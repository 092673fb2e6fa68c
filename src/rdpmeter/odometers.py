"""Privacy odometer: unconditional spend tracking with a doubling
schedule of internal filter levels and a running DP bound that is valid
at any stopping time.

The schedule fixes, per order, a ladder of levels level(f, alpha) =
2^(f-1) * base(alpha) with base(alpha) = ln(2*|orders|/delta)/(alpha-1).
After any sequence of spends, each order sits at the smallest rung that
still covers its spent budget, and the reported bound is the best order's
level plus a union-bound term over rungs and orders. A fresh odometer
therefore reports exactly twice the base at every order: the price of not
fixing the budget in advance is a factor of two.

All bound arithmetic is scalar double precision. The schedule computes
the union-bound logs once, one per rung, and levels and candidates are
read from them, so equal inputs give bit-identical outputs across every
code path (fresh-bound doubling is exact, replays reconstruct bounds bit
for bit).

The bound depends on the rungs alone, which on a training schedule move
on a few queries in a thousand. So the state keeps its levels and bound,
`spend` recomputes them only when some order climbs, and `running_bound`
returns the kept object, the same one until a rung moves.

A training run also sends one request curve many times in a row. When a
spend repeats the request object of the spend before it, `spend` counts,
once, how many further spends of that object certainly climb no rung.
Those spends are only counted, in the window the filter also keeps
(`filters._Totals`), so totals, rungs and bounds are bit for bit the
ones the full path gives.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

from rdpmeter.core import DpGuarantee, OrderSet, RdpCurve, _check_delta
from rdpmeter.filters import _certified_repeats, _Totals

MAX_FILTER_INDEX = 64


def _log_arg(m: int, f: int, delta: float) -> float:
    # Shared by the schedule's logs and early_stopping_bound, so the two
    # are bit-identical where the formulas coincide.
    return 2.0 * m * f * f / delta


def _check_log_arg(m: int, f: int, delta: float) -> None:
    if not math.isfinite(_log_arg(m, f, delta)):
        raise ValueError(
            f"delta {delta} is too small: ln(2*{m}*{f}^2/delta) overflows"
        )


@dataclass(frozen=True)
class FilterSchedule:
    """Doubling ladder of per-order budget levels.

    Holds, once, the union-bound logs ln(2*|orders|*f^2/delta) for every
    rung f: level(1, alpha) is the first over (alpha - 1), every level is
    an exact doubling of it, and each bound candidate adds the log of its
    rung over (alpha - 1).
    """

    delta: float
    orders: OrderSet
    _logs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _base: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_delta(self.delta)
        m = len(self.orders)
        _check_log_arg(m, MAX_FILTER_INDEX, self.delta)
        rungs = range(1, MAX_FILTER_INDEX + 1)
        # list comprehensions: every CLI session and oracle call builds one
        logs = tuple([math.log(_log_arg(m, f, self.delta)) for f in rungs])
        object.__setattr__(self, "_logs", logs)
        object.__setattr__(
            self, "_base", tuple([logs[0] / (alpha - 1.0) for alpha in self.orders])
        )

    def level(self, f: int, alpha: float) -> float:
        """f-th level: exactly 2^(f-1) times ln(2*|orders|/delta)/(alpha-1)."""
        if isinstance(f, bool) or not isinstance(f, int) or f < 1:
            raise ValueError(f"filter index must be a positive integer, got {f!r}")
        if f > MAX_FILTER_INDEX:
            raise ValueError(
                f"filter index {f} exceeds the supported maximum "
                f"{MAX_FILTER_INDEX}"
            )
        return math.ldexp(self._base[self.orders.index(alpha)], f - 1)


@dataclass(frozen=True)
class RunningBound:
    """A DP statement valid at any stopping time, with its witnesses."""

    eps_dp: float
    witness_order: float
    witness_level: int
    delta: float


class OdometerState(_Totals):
    """Single-owner mutable accountant; spend calls must be serialized.

    Unlike a filter, an odometer never refuses: every request is added
    unconditionally and the running bound grows to cover it. Holds only
    spent, the rung per order, each order's current level, the running
    bound and the step count, plus the repeat window (`filters._Totals`);
    the session log is the per-query record. `spend` is the only writer.
    """

    def __init__(self, schedule: FilterSchedule):
        self.schedule = schedule
        self._totals = [0.0] * len(schedule.orders)
        self._f = [1] * len(schedule.orders)
        self._levels = list(schedule._base)  # level(1, alpha) is the base
        self._bound = _bound(schedule, self._f)
        self.step = 0

    @property
    def orders(self) -> OrderSet:
        return self.schedule.orders


def new_odometer(delta: float, orders: OrderSet) -> OdometerState:
    return OdometerState(FilterSchedule(delta=delta, orders=orders))


def spend(state: OdometerState, request: RdpCurve) -> OdometerState:
    """Add the request at every order; the odometer never refuses.
    A call that raises leaves the state as it was.

    An order climbs when its new total passes its level. A full spend of
    the same request object as the spend before it also opens a window:
    the next n spends of that object are counted in O(1) (see
    `filters._Totals`). n is the min over orders of
    floor((L * (1 - 2**-29) - s) / r), clamped to [0, 2**20], where s is
    the new total and L the level after any climb; no total in the
    window passes its level (see `filters._certified_repeats`), so none
    of these spends climbs a rung or raises past rung 64. A different
    request object, or a climb, starts a new window.
    """
    if request is state._last and state._safe:
        # _last passed the order-set check
        state._safe -= 1
        state._pending += 1
        state.step += 1
        return state
    schedule = state.schedule
    if request.orders is not schedule.orders and (
        request.orders.orders != schedule.orders.orders
    ):
        raise ValueError("request curve is defined over a different order set")
    new_spent = list(map(operator.add, state._spent, request.values))
    if any(map(operator.gt, new_spent, state._levels)):
        base = schedule._base
        new_f = list(state._f)
        for i, total in enumerate(new_spent):
            # climb the ladder only; spent is nondecreasing so f never falls
            while total > math.ldexp(base[i], new_f[i] - 1):
                new_f[i] += 1
                if new_f[i] > MAX_FILTER_INDEX:
                    raise ValueError(
                        f"spent budget {total} at order "
                        f"{schedule.orders.orders[i]} exceeds the top "
                        f"schedule level {MAX_FILTER_INDEX}"
                    )
        state._levels = [math.ldexp(b, f - 1) for b, f in zip(base, new_f)]
        state._bound = _bound(schedule, new_f)
        state._f = new_f
    if request is state._last:
        state._safe = _certified_repeats(new_spent, request.values, state._levels, min)
    else:
        state._last = request
        state._safe = 0
    state._totals = new_spent
    state.step += 1
    return state


def filter_index(state: OdometerState, alpha: float) -> int:
    """Smallest f with spent(alpha) <= level(f, alpha); fresh state gives 1."""
    return state._f[state.schedule.orders.index(alpha)]


def _candidates(schedule: FilterSchedule, rungs: list[int]) -> list[float]:
    # level(f_a, a) + ln(2*|orders|*f_a^2/delta)/(a - 1), per order
    logs = schedule._logs
    return [
        math.ldexp(base, f - 1) + logs[f - 1] / (alpha - 1.0)
        for base, f, alpha in zip(schedule._base, rungs, schedule.orders.orders)
    ]


def _bound(schedule: FilterSchedule, rungs: list[int]) -> RunningBound:
    # best candidate over orders; ties go to the smallest order
    candidates = _candidates(schedule, rungs)
    best = min(candidates)
    i = candidates.index(best)
    return RunningBound(
        eps_dp=best,
        witness_order=schedule.orders.orders[i],
        witness_level=rungs[i],
        delta=schedule.delta,
    )


def bound_candidates(state: OdometerState) -> dict[float, float]:
    """Per-order bound candidates: the order's level plus its union term."""
    return dict(
        zip(state.schedule.orders.orders, _candidates(state.schedule, state._f))
    )


def running_bound(state: OdometerState) -> RunningBound:
    """Best candidate over orders; ties go to the smallest order. Kept on
    the state and recomputed by `spend` only when a rung moves."""
    return state._bound


def early_stopping_bound(
    eps_per_step: Sequence[RdpCurve], s: int, delta: float
) -> DpGuarantee:
    """DP bound for stopping after step s of a pre-declared budget sequence.

    The per-step budgets are fixed in advance; only the stopping index s
    is adaptive. Per order: sum of the first s budgets plus
    ln(2*|orders|*s^2/delta)/(alpha-1), minimized over orders. With a
    single order and s=1 this collapses to rdp_to_dp at delta/2.
    """
    if not eps_per_step:
        raise ValueError("eps_per_step must be nonempty")
    if isinstance(s, bool) or not isinstance(s, int) or not 1 <= s <= len(eps_per_step):
        raise ValueError(
            f"s must be an integer in [1, {len(eps_per_step)}], got {s!r}"
        )
    _check_delta(delta)
    orders = eps_per_step[0].orders
    for curve in eps_per_step[1:]:
        if curve.orders.orders != orders.orders:
            raise ValueError("step budgets must share one order set")
    m = len(orders)
    _check_log_arg(m, s, delta)
    log_num = math.log(_log_arg(m, s, delta))
    best = math.inf
    best_alpha = None
    for i, alpha in enumerate(orders):
        total = math.fsum(curve.values[i] for curve in eps_per_step[:s])
        candidate = total + log_num / (alpha - 1.0)
        if candidate < best:
            best = candidate
            best_alpha = alpha
    return DpGuarantee(epsilon=best, delta=delta, witness_order=best_alpha)


def truncate(
    events: Sequence[RdpCurve], schedule: FilterSchedule, f: int, alpha: float
) -> list[RdpCurve]:
    """Cut the sequence where its running sum at alpha first needs a rung
    above f; that entry and everything after become zero curves.

    The comparison mirrors filter_index exactly (running sum <= level
    keeps the entry), including the accumulation order, so a truncated
    sequence routed through an odometer never climbs past rung f at alpha.
    """
    limit = schedule.level(f, alpha)
    i = schedule.orders.index(alpha)
    out = []
    total = 0.0
    stopped = False
    for event in events:
        if event.orders.orders != schedule.orders.orders:
            raise ValueError("event curve is defined over a different order set")
        if not stopped:
            nxt = total + event.values[i]
            if nxt <= limit:
                total = nxt
                out.append(event)
                continue
            stopped = True
        out.append(RdpCurve.zeros(event.orders))
    return out
