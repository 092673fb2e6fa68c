"""Privacy filter: grant/PASS decisions under an adaptive budget cap.

The filter holds a per-order cap curve and the running sum of granted
requests. A request is denied (PASS) only when it would overshoot the cap
at every tracked order; otherwise it is granted and added at every order,
including orders already over their cap. One order staying within its cap
is what the final guarantee needs, and tracking all orders keeps the
choice of witness open until conversion time.

Denials are per query: a PASSed query contributes nothing and later,
smaller requests may still be granted. Callers wanting a terminal filter
can construct it with sealed=True, which denies everything after the
first PASS.

A repeated request costs no per-order work, whether denied or granted:
the state keeps one window on the request object last decided in full
(see `_Totals`).

This module also holds the window machinery the odometer shares: the
certified count and the deferred sums, each with the proof that it is
sound.
"""

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable, Optional, Sequence

from rdpmeter.core import OrderSet, RdpCurve, dp_target_to_rdp_budget

# a certified window: at most _MAX_SAFE repeats long, with every bound
# scaled by _SLACK (see _certified_repeats for why these two suffice)
_MAX_SAFE = 2**20
_SLACK = 1.0 - 2.0**-29


def _certified_repeats(
    totals: Sequence[float],
    request: Sequence[float],
    bounds: Sequence[float],
    combine: Callable[[list[float]], float],
) -> int:
    """How many more additions of request to totals certainly keep an
    order within its bound, combined over orders: the filter takes the
    max (one order within its cap grants), the odometer the min (every
    order within its level climbs no rung).

    Per order the count is floor((b * (1 - 2**-29) - s) / r); an order
    with r == 0 or an infinite bound counts as unbounded if s <= b and as
    0 otherwise. The result is clamped to [0, 2**20].

    Every total the count covers is within its bound. Write c, d and q
    for the rounded b * (1 - 2**-29), c - s and d / r, so the count n <=
    q, and u = 2**-53. Adding r to s k times, each sum rounded to
    nearest, gives at most (s + k*r) * (1 + u)**k. Where c is normal,
    each of the three roundings gains at most a factor 1 + u, so s + n*r
    <= b * (1 - 2**-29) * (1 + u)**3; for k <= n <= 2**20 the factors
    (1 + u)**(k + 3) stay below 1 + 2**-32, which the slack absorbs, and
    every total is at most b. Where c is subnormal, rounding is monotone
    so c <= b, the subtraction and the sums are exact, and q cannot round
    up past an integer (d and r are multiples of 2**-1074 and d is below
    2**-1022), so s + k*r <= c. An order with r == 0 keeps its total,
    and an infinite bound is never passed.
    """
    n = combine([
        (b * _SLACK - s) / r if r > 0.0 and b < math.inf
        else math.inf if s <= b
        else 0.0
        for s, r, b in zip(totals, request, bounds)
    ])
    return int(min(max(n, 0.0), _MAX_SAFE))


# where the deferred sums take `_add_repeated` rather than k float adds per
# order: a window of at least _CLOSED_MIN sends whose sum stays within
# about one binade of its start, or one of at least _CLOSED_ANY sends from
# anywhere (the crossovers measured in README.md, "Deferred sums")
_CLOSED_MIN = 64
_CLOSED_ANY = 512
_NORMAL = 2.0**-1022
_LOW_TOP = 2.0**-1021
_HUGE = 2.0**1023


def _add_repeated(s: float, r: float, k: int) -> float:
    """k sequential `s += r`, bit for bit, in O(binades crossed) rather
    than O(k), for 0 <= r < inf and 0 <= s <= inf.

    Take s's binade [top/2, top), or [0, 2**-1021) if s is subnormal, and
    u = top * 2**-53: the floats there are exactly the multiples of u.
    Write r = q*u + p with 0 <= p < u. A step from a multiple of u whose
    exact sum lands below top rounds it to the nearest multiple of u,
    ties to even multiples. If p != u/2 the step adds round(r/u)*u
    whatever the start. If p == u/2 (a tie) it adds q*u or (q+1)*u,
    whichever ends on an even multiple; so after one step that starts
    and ends in the binade the multiple is even, and from there every
    step adds the same d, q*u for even q and (q+1)*u for odd q. Hence
    once two consecutive steps start and end in the binade, every later
    step adds the second one's d while it stays there. From its end t
    the next j steps give t + j*d, where j = floor((top - u - t) / d)
    counts those that end at most top - u: such a step's exact sum is
    within u/2 of its end, so below top, and was rounded on the grid u.
    All of it is exact: t - s, top - u - t, j*d and t + j*d are
    multiples of u in [0, top), so floats, and the floor division of two
    multiples of u with a quotient below 2**53 is exact. Below 2**-1021
    every sum is exact and d = r.

    The steps at a binade's edge, and those from s >= 2**1023 (whose top
    is not a float), are single steps. A step that adds nothing leaves s
    as it was, so every later one adds nothing too: that returns at
    once, as s = inf does.
    """
    while k > 0:
        t = s + r
        k -= 1
        if t == s:
            return s
        if k and s < _HUGE:
            top = math.ldexp(1.0, math.frexp(s)[1]) if s >= _NORMAL else _LOW_TOP
            s, t = t, t + r
            k -= 1
            if t < top:  # so both steps start and end in the binade
                d = t - s
                if not d:
                    return t
                j = min(k, int((top - top * 2.0**-53 - t) // d))
                t += j * d
                k -= j
        s = t
    return s


class _Totals:
    """Per-order running totals, with the window both accountants keep on
    a repeated request.

    A training loop sends one request curve object many times in a row.
    _last is the request object last decided in full, and _safe how many
    more sends of it the window certifies: a send of _last while _safe >
    0 is only counted, in _pending, with no per-order work. A filter's
    _safe is -1 after a PASS: a decision is a pure function of (spent,
    request, cap), which a PASS leaves as they were, so the same send is
    PASSed again in O(1). Any other send is decided in full and may open
    a new window (`_certified_repeats` gives its length).

    _totals holds the sums added so far. Reading _spent first adds the
    pending sends, per order, as _pending sequential `s += r`: the same
    float additions in the same order as one new list per send, so every
    read gives the totals bit for bit. Where it pays, an order's sum is
    taken in closed form by `_add_repeated`, whose docstring proves it
    equal to the loop.
    """

    _last: Optional[RdpCurve] = None
    _safe = 0
    _pending = 0

    @property
    def spent(self) -> RdpCurve:
        return RdpCurve(self.orders, tuple(self._spent))

    @property
    def _spent(self) -> list[float]:
        k = self._pending
        if k:
            request = self._last.values
            if k < 16:
                totals = self._totals
                for _ in range(k):
                    totals = list(map(operator.add, totals, request))
            else:
                # one tight loop per order costs about half as much per
                # send as a new list per send, and the closed form less
                # again where it pays
                totals = []
                for s, r in zip(self._totals, request):
                    if k >= _CLOSED_ANY or k >= _CLOSED_MIN and k * r <= s:
                        s = _add_repeated(s, r, k)
                    else:
                        for _ in repeat(None, k):
                            s += r
                    totals.append(s)
            self._totals = totals
            self._pending = 0
        return self._totals


class Decision(str, Enum):
    GRANT = "GRANT"
    PASS = "PASS"

    def __str__(self) -> str:
        return self.value


@dataclass(init=False)
class FilterState(_Totals):
    """Single-owner mutable accountant; try_spend calls must be serialized.

    Holds only what decisions depend on; the session log is the per-query
    record. cap and sealed are fixed when the state is built: both are
    read-only. The repeat window (see `_Totals`) is not a field, so a
    state compares equal to, and prints like, one that decided every send
    in full: _spent reads the totals with the pending sends added.
    """

    cap: RdpCurve = property(operator.attrgetter("_cap"))
    sealed: bool = property(operator.attrgetter("_sealed"))
    _spent: list[float] = field(init=False)
    _passed_once: bool = field(init=False, default=False)

    def __init__(self, cap: RdpCurve, sealed: bool = False):
        self._cap = cap
        self._sealed = sealed
        self._totals = [0.0] * len(cap.orders)

    @property
    def orders(self) -> OrderSet:
        return self._cap.orders


def new_filter(cap: RdpCurve, sealed: bool = False) -> FilterState:
    """Fresh filter: nothing spent."""
    return FilterState(cap=cap, sealed=sealed)


def new_filter_from_dp_target(
    eps_dp: float, delta: float, orders: OrderSet, sealed: bool = False
) -> FilterState:
    """Filter whose granted total always converts back within (eps_dp, delta)."""
    return new_filter(dp_target_to_rdp_budget(eps_dp, delta, orders), sealed=sealed)


def try_spend(state: FilterState, request: RdpCurve) -> Decision:
    """Grant the request if it fits under the cap at any order.

    PASS exactly when spent + request > cap at every order; the
    comparison is strict, so a request landing exactly on the cap is
    granted. PASS leaves spent bit-identical: the new totals are kept
    only on GRANT. A repeat of the request last decided is answered in
    O(1) while its window lasts (see `_Totals`). A GRANT of the request
    object last granted opens a window of n further GRANTs, n the max
    over orders of floor((cap * (1 - 2**-29) - spent) / request) (see
    `_certified_repeats`); a PASS opens an unbounded window of PASSes.
    Another request object ends a window.
    """
    if request is state._last:
        # _last passed the order-set and sealed checks
        safe = state._safe
        if safe > 0:
            state._safe = safe - 1
            state._pending += 1
            return Decision.GRANT
        if safe < 0:
            return Decision.PASS
    cap = state._cap
    if request.orders is not cap.orders and request.orders.orders != cap.orders.orders:
        raise ValueError("request curve is defined over a different order set")
    if state._sealed and state._passed_once:
        return Decision.PASS
    new_spent = list(map(operator.add, state._spent, request.values))
    if any(map(operator.le, new_spent, cap.values)):
        state._totals = new_spent
        if request is state._last:
            # here _safe == 0: a negative count would have PASSed above
            state._safe = _certified_repeats(new_spent, request.values, cap.values, max)
        else:
            state._last = request
            state._safe = 0
        return Decision.GRANT
    # reading _spent above added any pending sends of the old _last
    state._passed_once = True
    state._last = request
    state._safe = -1
    return Decision.PASS


def _run_length(k: int) -> int:
    """k as the length of a run: an int >= 0, and not a bool."""
    n = operator.index(k)
    if n < 0 or isinstance(k, bool):
        raise ValueError(f"run length k must be an integer >= 0, got {k!r}")
    return n


def try_spend_run(state: FilterState, request: RdpCurve, k: int) -> int:
    """Send request k times and return g, the number granted: the first g
    GRANT, the rest PASS. The state ends as after k `try_spend` calls, which
    this makes for every send but those a window counts, counted at once."""
    k = _run_length(k)
    g = 0
    while g < k:
        if request is state._last and state._safe:
            if state._safe < 0:
                break
            n = min(state._safe, k - g)
            state._safe -= n
            state._pending += n
            g += n
        elif try_spend(state, request) is Decision.GRANT:
            g += 1
        else:
            break
    return g


def remaining(state: FilterState) -> RdpCurve:
    """Headroom curve: pointwise max(0, cap - spent)."""
    return RdpCurve(
        state.cap.orders,
        tuple(max(0.0, c - s) for c, s in zip(state.cap.values, state._spent)),
    )
