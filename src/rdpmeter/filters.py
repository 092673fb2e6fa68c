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

A repeated denial costs no per-order work. The decision is a pure
function of (spent, request, cap): a PASS changes none of them, and
curves are frozen. So the state remembers the request object it last
denied and the cap it was denied under, and the same two objects, asked
again before any GRANT, are denied at once. The shortcut can only deny,
and only where the full test would deny too.
"""

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from rdpmeter.core import OrderSet, RdpCurve, dp_target_to_rdp_budget


class Decision(str, Enum):
    GRANT = "GRANT"
    PASS = "PASS"

    def __str__(self) -> str:
        return self.value


@dataclass
class FilterState:
    """Single-owner mutable accountant; try_spend calls must be serialized.

    Holds only what decisions depend on; the session log is the per-query
    record. _denied and _denied_cap are the request object last PASSed and
    the cap object it was PASSed under, kept until the next GRANT, so a
    repeat of that denial is answered in O(1).
    """

    cap: RdpCurve
    sealed: bool = False
    _spent: list[float] = field(init=False)
    _passed_once: bool = field(init=False, default=False)
    _denied: Optional[RdpCurve] = field(init=False, default=None, compare=False)
    _denied_cap: Optional[RdpCurve] = field(init=False, default=None, compare=False)

    def __post_init__(self):
        self._spent = [0.0] * len(self.cap.orders)

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
    """
    cap = state.cap
    if request.orders is not cap.orders and request.orders.orders != cap.orders.orders:
        raise ValueError("request curve is defined over a different order set")
    if state.sealed and state._passed_once:
        return Decision.PASS
    if request is state._denied and cap is state._denied_cap:
        return Decision.PASS
    new_spent = list(map(operator.add, state._spent, request.values))
    if any(map(operator.le, new_spent, cap.values)):
        state._spent = new_spent
        state._denied = None
        return Decision.GRANT
    state._passed_once = True
    state._denied = request
    state._denied_cap = cap
    return Decision.PASS


def remaining(state: FilterState) -> RdpCurve:
    """Headroom curve: pointwise max(0, cap - spent)."""
    return RdpCurve(
        state.cap.orders,
        tuple(max(0.0, c - s) for c, s in zip(state.cap.values, state._spent)),
    )

