"""Order sets, budget-curve arithmetic, and RDP <-> DP conversion.

All budgets are in nats (natural log). Comparisons elsewhere in the
package use exact float comparisons on these values: budgets are
user-specified quantities, not measurements, so the accounting stays
conservative and deterministic.
"""

import math
import warnings
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable, Mapping, Optional


@dataclass(frozen=True)
class OrderSet:
    """A finite, sorted set of Renyi orders, each strictly greater than 1."""

    orders: tuple[float, ...]
    _index: dict[float, int] = field(init=False, repr=False, compare=False)

    def __init__(self, orders: Iterable[float]):
        values = sorted(float(a) for a in orders)
        if not values:
            raise ValueError("order set must be nonempty")
        for a in values:
            if not math.isfinite(a) or a <= 1.0:
                raise ValueError(f"every order must be a finite real > 1, got {a}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("orders must be distinct")
        object.__setattr__(self, "orders", tuple(values))
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(values)})

    def __len__(self) -> int:
        return len(self.orders)

    def __iter__(self):
        return iter(self.orders)

    def __contains__(self, alpha: float) -> bool:
        return alpha in self._index

    def index(self, alpha: float) -> int:
        try:
            return self._index[alpha]
        except KeyError:
            raise ValueError(f"order {alpha} is not tracked by this set") from None


@dataclass(frozen=True)
class RdpCurve:
    """A budget curve: one nonnegative epsilon value per tracked order."""

    orders: OrderSet
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(map(float, self.values))
        if len(values) != len(self.orders):
            raise ValueError(
                f"curve has {len(values)} values for {len(self.orders)} orders"
            )
        # C-level passes; the loop only names the first bad value
        if not (all(map(math.isfinite, values)) and min(values) >= 0.0):
            for v in values:
                if not math.isfinite(v) or v < 0.0:
                    raise ValueError(f"curve values must be finite and >= 0, got {v}")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, orders: OrderSet) -> "RdpCurve":
        return cls(orders, (0.0,) * len(orders))

    @classmethod
    def from_mapping(cls, values: Mapping[float, float]) -> "RdpCurve":
        orders = OrderSet(values.keys())
        return cls(orders, tuple(values[a] for a in orders))

    def value(self, alpha: float) -> float:
        return self.values[self.orders.index(alpha)]

    def __add__(self, other: "RdpCurve") -> "RdpCurve":
        return curve_add(self, other)

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)

    def to_json(self) -> dict:
        return {"orders": list(self.orders), "eps": list(self.values)}

    @classmethod
    def from_json(cls, data: Mapping) -> "RdpCurve":
        """Each eps is paired with the order listed at its position, so a
        file may list its orders in any order."""
        return _read_curve(data, {})


def _object(data, where: str, keys, required=()) -> dict:
    """data, if a JSON object with every required key and no key outside keys
    (None: any key); else a one-line ValueError naming where (steps[0].mech)."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise ValueError(f"{where} has no {key!r}")
    if keys is not None and not data.keys() <= keys:
        raise ValueError(f"unknown {where} keys: {', '.join(sorted(data.keys() - keys))}")
    return data


def _as_list(value, name: str) -> tuple:
    """A JSON list (or a tuple) as a tuple; tuple() alone would split a
    string into characters and an object into its keys."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {type(value).__name__}")
    return tuple(value)


# the types json.load gives a number, and the keys of a JSON curve
_NUMBER_TYPES = frozenset((int, float))
_CURVE_KEYS = frozenset({"orders", "eps"})


def _as_number(value, name: str) -> float:
    """A real number that is not a bool, as a float: what a JSON number
    reads as. float() alone would also take "2" and true."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_numbers(values: tuple, name: str) -> None:
    """Raise ValueError unless every entry is a real number that is not a
    bool; one C-level pass where every entry is an int or a float."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        for v in values:
            if isinstance(v, bool) or not isinstance(v, Real):
                raise ValueError(f"each {name} entry must be a number, got {v!r}")


def _read_order_list(listed, order_sets: dict) -> tuple[OrderSet, Optional[list[int]]]:
    """The OrderSet of a JSON order list, and the listed position of each of
    its sorted orders (None when the list is sorted). order_sets maps each
    list already read to this pair; a caller reading many curves passes one
    dict, so each distinct list is built and checked once."""
    key = _as_list(listed, "orders")
    try:
        # an entry equal to a cached order is an int or a float: no
        # string, bool or container equals an order > 1
        return order_sets[key]
    except (KeyError, TypeError):
        # TypeError: an unhashable entry, a list or an object
        _check_numbers(key, "orders")
        orders = OrderSet(key)
    values = [float(a) for a in key]
    positions = sorted(range(len(values)), key=values.__getitem__)
    if positions == list(range(len(values))):
        positions = None
    order_sets[key] = orders, positions
    return orders, positions


def _read_curve(data: Mapping, order_sets: dict, listed=None, where="curve") -> RdpCurve:
    """A JSON curve {"orders": [...], "eps": [...]} at where, each eps paired
    with the order listed at its position; see _read_order_list for order_sets.
    Every order and eps must be a JSON number. Given a JSON order list `listed`,
    a curve {"eps": [...]} without "orders" reads as if it listed those orders."""
    _object(data, where, _CURVE_KEYS, ("orders", "eps") if listed is None else ("eps",))
    if listed is None or "orders" in data:
        listed = data["orders"]
    orders, positions = _read_order_list(listed, order_sets)
    eps = _as_list(data["eps"], "eps")
    _check_numbers(eps, "eps")
    if positions is not None and len(eps) == len(positions):
        eps = tuple(eps[k] for k in positions)
    return RdpCurve(orders, eps)


@dataclass(frozen=True)
class DpGuarantee:
    """An (epsilon, delta)-DP statement, with the order that achieved it."""

    epsilon: float
    delta: float
    witness_order: float


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not math.isfinite(1.0 / delta):
        raise ValueError(f"delta {delta} is too small: ln(1/delta) overflows")


def rdp_to_dp(eps_rdp: float, alpha: float, delta: float) -> float:
    """Convert a single (alpha, eps_rdp) point to the DP epsilon at delta.

    Returns eps_rdp + ln(1/delta)/(alpha - 1).
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    _check_delta(delta)
    if eps_rdp < 0.0:
        raise ValueError(f"eps_rdp must be >= 0, got {eps_rdp}")
    return eps_rdp + math.log(1.0 / delta) / (alpha - 1.0)


def curve_to_dp(curve: RdpCurve, delta: float) -> DpGuarantee:
    """Best DP guarantee over the curve; ties broken toward the smallest order."""
    best_eps = math.inf
    best_alpha = None
    for alpha, eps in zip(curve.orders, curve.values):
        candidate = rdp_to_dp(eps, alpha, delta)
        if candidate < best_eps:
            best_eps = candidate
            best_alpha = alpha
    return DpGuarantee(epsilon=best_eps, delta=delta, witness_order=best_alpha)


def dp_target_to_rdp_budget(
    eps_dp: float, delta: float, orders: OrderSet
) -> RdpCurve:
    """Per-order budget whose conversion back to DP stays within the target.

    For each order the budget is max(0, eps_dp - ln(1/delta)/(alpha - 1));
    orders where the expression goes negative are clamped to 0 so the order
    set stays stable across the pipeline. If every order clamps to 0 the
    target is unreachable at these orders and a warning is emitted.
    """
    if not (math.isfinite(eps_dp) and eps_dp > 0.0):
        raise ValueError(f"eps_dp must be a finite number > 0, got {eps_dp}")
    _check_delta(delta)
    log_term = math.log(1.0 / delta)
    budgets = []
    for alpha in orders:
        tail = log_term / (alpha - 1.0)
        budget = max(0.0, eps_dp - tail)
        # Conservative: granted budget must reconvert within the target under
        # the same double arithmetic; nudge down the rare 1-ulp overshoot.
        while budget > 0.0 and budget + tail > eps_dp:
            budget = math.nextafter(budget, -math.inf)
        budgets.append(budget)
    if all(b == 0.0 for b in budgets):
        warnings.warn(
            f"DP target {eps_dp} is below the conversion floor at every "
            "tracked order; the resulting budget is identically zero",
            stacklevel=2,
        )
    return RdpCurve(orders, tuple(budgets))


def curve_add(a: RdpCurve, b: RdpCurve) -> RdpCurve:
    """Pointwise sum of two curves over the same order set."""
    if a.orders.orders != b.orders.orders:
        raise ValueError("cannot add curves over different order sets")
    return RdpCurve(a.orders, tuple(x + y for x, y in zip(a.values, b.values)))


def default_order_set() -> OrderSet:
    """The 38-order working set: 1.25 to 10.0 in steps of 0.25, plus 16 and 32."""
    return OrderSet([1.25 + 0.25 * i for i in range(36)] + [16.0, 32.0])


def granularity_order_set(n: int) -> OrderSet:
    """Powers of two up to ceil(log2(n^2)), for a dataset of n records.

    The largest order bounds the finest DP granularity worth tracking
    (about 1/n^2), so the set scales with the dataset size.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    top = (n * n - 1).bit_length()  # exact ceil(log2(n^2)) for integer n
    return OrderSet([2.0**i for i in range(1, top + 1)])
