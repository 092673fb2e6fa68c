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
certified count, with the proof that it is sound, and the deferred sums.
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


class _Totals:
    """Per-order running totals, with the window both accountants keep on
    a repeated request.

    A training loop sends one request curve object many times in a row.
    _last is the request object last decided in full, and _safe how many
    more sends of it the window certifies: a send of _last while _safe >
    0 is only counted, in _pending, with no per-order work. A filter's
    window also needs the same cap object (_last_cap), and its _safe is
    -1 after a PASS: a decision is a pure function of (spent, request,
    cap), curves are frozen and a PASS changes none of the three, so the
    same send is PASSed again in O(1). Any other send is decided in full
    and may open a new window (`_certified_repeats` gives its length).

    _totals holds the sums added so far. Reading _spent first adds the
    pending sends, per order, as _pending sequential `s += r`: the same
    float additions in the same order as one new list per send, so every
    read gives the totals bit for bit.
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
                # send as a new list per send
                totals = []
                for s, r in zip(self._totals, request):
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


@dataclass
class FilterState(_Totals):
    """Single-owner mutable accountant; try_spend calls must be serialized.

    Holds only what decisions depend on; the session log is the per-query
    record. The repeat window (see `_Totals`) is not a field, so a state
    compares equal to, and prints like, one that decided every send in
    full: _spent reads the totals with the pending sends added.
    """

    cap: RdpCurve
    sealed: bool = False
    _spent: list[float] = field(init=False)
    _passed_once: bool = field(init=False, default=False)
    _last_cap = None  # not a field: see `_Totals`

    def __post_init__(self):
        self._totals = [0.0] * len(self.cap.orders)

    @property
    def orders(self) -> OrderSet:
        return self.cap.orders


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
    only on GRANT. A repeat of the request last decided, under the same
    cap object, is answered in O(1) while its window lasts (see
    `_Totals`). A GRANT of the request object last granted opens a
    window of n further GRANTs, n the max over orders of floor((cap *
    (1 - 2**-29) - spent) / request) (see `_certified_repeats`); a PASS
    opens an unbounded window of PASSes. Another request or cap object
    ends a window.
    """
    if request is state._last and state.cap is state._last_cap:
        # _last passed the order-set and sealed checks under this cap
        safe = state._safe
        if safe > 0:
            state._safe = safe - 1
            state._pending += 1
            return Decision.GRANT
        if safe < 0:
            return Decision.PASS
    cap = state.cap
    if request.orders is not cap.orders and request.orders.orders != cap.orders.orders:
        raise ValueError("request curve is defined over a different order set")
    if state.sealed and state._passed_once:
        return Decision.PASS
    new_spent = list(map(operator.add, state._spent, request.values))
    if any(map(operator.le, new_spent, cap.values)):
        state._totals = new_spent
        if request is state._last and cap is state._last_cap:
            # here _safe == 0: a negative count would have PASSed above
            state._safe = _certified_repeats(new_spent, request.values, cap.values, max)
        else:
            state._last = request
            state._last_cap = cap
            state._safe = 0
        return Decision.GRANT
    # reading _spent above added any pending sends of the old _last
    state._passed_once = True
    state._last = request
    state._last_cap = cap
    state._safe = -1
    return Decision.PASS


def remaining(state: FilterState) -> RdpCurve:
    """Headroom curve: pointwise max(0, cap - spent)."""
    return RdpCurve(
        state.cap.orders,
        tuple(max(0.0, c - s) for c, s in zip(state.cap.values, state._spent)),
    )
