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

A repeated request costs no per-order work, whether denied or granted.
A decision is a pure function of (spent, request, cap), and curves are
frozen. A PASS changes none of the three, so the state remembers the
request object it last denied and the cap it was denied under, and the
same two objects, asked again before any GRANT, are denied at once. A
GRANT of the request object granted last, under the same cap object,
opens a certified window: how many more sends of that object certainly
fit at some order (`_certified_repeats`). Those sends are granted and
only counted; the count is added at every order when the totals are
next read (`_Totals`). Both shortcuts give the decisions, and the totals
bit for bit, that the full test gives.

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
    """Per-order running totals that defer a certified window's sums.

    _totals holds the sums added so far. _pending counts sends of the
    request object _last that a window certified and that are not added
    yet, and _safe how many more sends the window still certifies.
    Reading _spent first adds the pending sends, per order, as _pending
    sequential `s += r`: the same float additions in the same order as
    one new list per send, so every read gives the totals bit for bit.
    """

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
    record. _denied and _denied_cap are the request object last PASSed and
    the cap object it was PASSed under, kept until the next GRANT, so a
    repeat of that denial is answered in O(1). _last and _last_cap are
    the request object last granted and its cap object; while _safe > 0,
    a send of the two is a certified GRANT (see try_spend). _spent is
    read through `_Totals`, so a state with pending sends compares equal
    to, and prints like, the state that added them.
    """

    cap: RdpCurve
    sealed: bool = False
    _spent: list[float] = field(init=False)
    _passed_once: bool = field(init=False, default=False)
    _denied: Optional[RdpCurve] = field(init=False, default=None, compare=False)
    _denied_cap: Optional[RdpCurve] = field(init=False, default=None, compare=False)
    # the window (see try_spend); repr and == read _spent instead
    _last: Optional[RdpCurve] = field(init=False, default=None, compare=False, repr=False)
    _last_cap: Optional[RdpCurve] = field(init=False, default=None, compare=False, repr=False)
    _safe: int = field(init=False, default=0, compare=False, repr=False)
    _pending: int = field(init=False, default=0, compare=False, repr=False)

    def __post_init__(self):
        self._totals = [0.0] * len(self.cap.orders)

    @property
    def orders(self) -> OrderSet:
        return self.cap.orders

    @property
    def spent(self) -> RdpCurve:
        return RdpCurve(self.cap.orders, tuple(self._spent))


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
    granted. Decisions are a pure function of (spent, request, cap);
    PASS leaves spent bit-identical: the new totals are kept only on
    GRANT. So the request object last PASSed, sent again under the same
    cap object with no GRANT between, is PASSed in O(1), after the
    order-set and sealed checks.

    A GRANT of the request object last granted, under the same cap
    object, opens a window of n further sends of it, n the max over
    orders of floor((cap * (1 - 2**-29) - spent) / request) (see
    `_certified_repeats`); a PASS, another request or cap object, or the
    window's end closes it. A send inside the window is granted in O(1)
    and its sum deferred (see `_Totals`).
    """
    if request is state._last and state._safe and state.cap is state._last_cap:
        # _last passed the order-set check under this cap, and a PASS,
        # sealed or not, closes the window
        state._safe -= 1
        state._pending += 1
        return Decision.GRANT
    cap = state.cap
    if request.orders is not cap.orders and request.orders.orders != cap.orders.orders:
        raise ValueError("request curve is defined over a different order set")
    if state.sealed and state._passed_once:
        return Decision.PASS
    if request is state._denied and cap is state._denied_cap:
        return Decision.PASS
    new_spent = list(map(operator.add, state._spent, request.values))
    if any(map(operator.le, new_spent, cap.values)):
        state._totals = new_spent
        state._denied = None
        if request is state._last and cap is state._last_cap:
            state._safe = _certified_repeats(new_spent, request.values, cap.values, max)
        else:
            state._last = request
            state._last_cap = cap
            state._safe = 0
        return Decision.GRANT
    state._passed_once = True
    state._denied = request
    state._denied_cap = cap
    state._safe = 0
    return Decision.PASS


def remaining(state: FilterState) -> RdpCurve:
    """Headroom curve: pointwise max(0, cap - spent)."""
    return RdpCurve(
        state.cap.orders,
        tuple(max(0.0, c - s) for c, s in zip(state.cap.values, state._spent)),
    )
