"""Mechanism catalog: closed-form budget curves and two-world sampling.

Three mechanism kinds are supported. Gaussian mechanisms carry their noise
scale and sensitivity and get an exact closed-form curve. Discrete
mechanisms carry a pair of output distributions, one per neighboring
world, and get a symmetrized divergence curve. Raw curves carry
caller-supplied budget values for mechanisms analyzed elsewhere; they can
be accounted but not sampled.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from operator import truediv
from typing import Mapping, Union

from rdpmeter.core import _NUMBER_TYPES, OrderSet, RdpCurve, _as_list, _as_number
from rdpmeter.core import _object, _read_curve

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GaussianMechanism:
    """Additive Gaussian noise with scale sigma on a query of given sensitivity."""

    sigma: float
    sensitivity: float = 1.0

    def __post_init__(self):
        # a bool or a string is refused here as in mechanism JSON
        sigma = _as_number(self.sigma, "sigma")
        sensitivity = _as_number(self.sensitivity, "sensitivity")
        if not math.isfinite(sigma) or sigma <= 0.0:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not math.isfinite(sensitivity) or sensitivity <= 0.0:
            raise ValueError(
                f"sensitivity must be finite and > 0, got {self.sensitivity}"
            )
        # the curve's scale: 2*sigma^2 may underflow to 0, or the quotient
        # pass the float range
        try:
            scale = _gaussian_scale(self)
        except ArithmeticError:
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(
                f"sigma {self.sigma} is too small for sensitivity "
                f"{self.sensitivity}: the curve's scale leaves the float range"
            )


@dataclass(frozen=True)
class DiscreteMechanism:
    """A finite-output mechanism given by its two neighboring-world distributions.

    Outcome labels are shared between the worlds. Each distribution's
    entries must be real numbers (a bool or a string is refused) summing
    to 1 within PROB_SUM_TOL; drift inside the tolerance is
    renormalized, anything larger is rejected. The two distributions must
    share support, otherwise no finite budget curve exists.
    """

    outcomes: tuple[str, ...]
    p0: tuple[float, ...]
    p1: tuple[float, ...]

    def __post_init__(self):
        outcomes = tuple(str(x) for x in self.outcomes)
        if not outcomes:
            raise ValueError("mechanism must have at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be distinct")
        if not (len(outcomes) == len(self.p0) == len(self.p1)):
            raise ValueError("outcomes, p0, p1 must have equal length")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "p0", self._normalize(self.p0, "p0"))
        object.__setattr__(self, "p1", self._normalize(self.p1, "p1"))
        for a, b in zip(self.p0, self.p1):
            if (a == 0.0) != (b == 0.0):
                raise ValueError(
                    "p0 and p1 must share support; divergence is infinite otherwise"
                )

    @staticmethod
    def _normalize(probs, name):
        values = []
        for p in probs:
            if type(p) not in _NUMBER_TYPES:
                _as_number(p, f"each {name} entry")
            v = float(p)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} entries must be finite and >= 0, got {v}")
            values.append(v)
        total = math.fsum(values)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"{name} sums to {total}, not 1")
        if total != 1.0:
            values = [p / total for p in values]
            # absorb the last-ulp residue into the largest entry. Known
            # defect: this is not a fixed point. fsum can still come out
            # as 0.9999999999999999, and a reload renormalises again, so
            # a serialized mechanism may come back one ulp off
            residue = 1.0 - math.fsum(values)
            if residue != 0.0:
                top = max(range(len(values)), key=values.__getitem__)
                values[top] += residue
        return tuple(values)


@dataclass(frozen=True)
class RawCurve:
    """A pre-analyzed budget curve; participates in accounting only."""

    curve: RdpCurve


Mechanism = Union[GaussianMechanism, DiscreteMechanism, RawCurve]


def _gaussian_scale(mech: GaussianMechanism) -> float:
    return mech.sensitivity * mech.sensitivity / (2.0 * mech.sigma * mech.sigma)


def gaussian_rdp_curve(mech: GaussianMechanism, orders: OrderSet) -> RdpCurve:
    """Budget curve alpha * sensitivity^2 / (2 sigma^2) at each order. A
    curve that passes the float range at some order is refused."""
    scale = _gaussian_scale(mech)
    values = tuple([alpha * scale for alpha in orders])
    if values[-1] == math.inf:  # orders ascend: the last value is the largest
        alpha = orders.orders[values.index(math.inf)]
        raise ValueError(
            f"sigma {mech.sigma} is too small for sensitivity {mech.sensitivity}: "
            f"the curve leaves the float range at order {alpha}"
        )
    return RdpCurve(orders, values)


def discrete_rdp_curve(mech: DiscreteMechanism, orders: OrderSet) -> RdpCurve:
    """Symmetrized divergence curve: the worse of the two directions.

    Each direction is log(sum_i q_i * (p_i/q_i)^alpha) / (alpha - 1): the
    ratio form keeps intermediate terms near the probabilities
    themselves, and fsum removes ordering effects. The ratios are divided
    once per mechanism; the terms are built once per outcome and order,
    then summed, logged and divided per order in C-level passes, the same
    float operations as a per-order loop, so the values are bit for bit
    the same. Divergences are clamped at zero; identical distributions
    can land a few ulps negative through the ratio form.

    Where a term r**alpha or an order's sum passes the float range, the
    passes abort; each order is then redone on its own, and only the
    orders that overflow are computed in log space (_order_divergence).
    """
    # shared support: p0 and p1 are zero at the same outcomes
    support = [(p, q) for p, q in zip(mech.p0, mech.p1) if p != 0.0]
    alphas = orders.orders
    below = [alpha - 1.0 for alpha in alphas]

    def direction(pairs):
        # one row of terms per outcome; zip(*rows) gives each order's terms
        rows = [[w * r**alpha for alpha in alphas] for w, r in pairs]
        return map(truediv, map(math.log, map(math.fsum, zip(*rows))), below)

    p01 = [(q, p / q) for p, q in support]
    p10 = [(p, q / p) for p, q in support]
    try:
        values = tuple(map(max, direction(p01), direction(p10), repeat(0.0)))
    except OverflowError:
        values = tuple(
            max(_order_divergence(p01, alpha), _order_divergence(p10, alpha), 0.0)
            for alpha in alphas
        )
    return RdpCurve(orders, values)


def _order_divergence(pairs, alpha: float) -> float:
    """One direction at one order: log(sum w * r**alpha) / (alpha - 1) with
    the passes' float operations, or, where a term or the sum overflows,
    the max-shifted log-sum-exp of the terms' logs log(w) + alpha*log(r)."""
    try:
        return math.log(math.fsum([w * r**alpha for w, r in pairs])) / (alpha - 1.0)
    except OverflowError:
        logs = [math.log(w) + alpha * math.log(r) for w, r in pairs]
        top = max(logs)
        total = math.fsum([math.exp(t - top) for t in logs])
        return (top + math.log(total)) / (alpha - 1.0)


def mechanism_rdp_curve(mech: Mechanism, orders: OrderSet) -> RdpCurve:
    """Dispatch to the right curve for any catalog mechanism."""
    if isinstance(mech, GaussianMechanism):
        return gaussian_rdp_curve(mech, orders)
    if isinstance(mech, DiscreteMechanism):
        return discrete_rdp_curve(mech, orders)
    if isinstance(mech, RawCurve):
        if mech.curve.orders.orders != orders.orders:
            raise ValueError("raw curve is defined over a different order set")
        return mech.curve
    raise TypeError(f"unknown mechanism type {type(mech).__name__}")


def sample(mech: Mechanism, world: int, rng: "numpy.random.Generator"):
    """Draw one output from the world-b distribution.

    Gaussian mechanisms model the worst-case neighboring pair: the query
    answer is 0 in world 0 and shifts by the sensitivity in world 1.
    Deterministic given the generator state.
    """
    if world not in (0, 1):
        raise ValueError(f"world must be 0 or 1, got {world}")
    if isinstance(mech, GaussianMechanism):
        center = 0.0 if world == 0 else mech.sensitivity
        return float(center + rng.normal(0.0, mech.sigma))
    if isinstance(mech, DiscreteMechanism):
        probs = mech.p0 if world == 0 else mech.p1
        idx = rng.choice(len(mech.outcomes), p=probs)
        return mech.outcomes[int(idx)]
    if isinstance(mech, RawCurve):
        raise TypeError("raw curves carry no output distribution to sample")
    raise TypeError(f"unknown mechanism type {type(mech).__name__}")


def mechanism_to_json(mech: Mechanism) -> dict:
    if isinstance(mech, GaussianMechanism):
        return {
            "kind": "gaussian",
            "sigma": mech.sigma,
            "sensitivity": mech.sensitivity,
        }
    if isinstance(mech, DiscreteMechanism):
        return {
            "kind": "discrete",
            "outcomes": list(mech.outcomes),
            "p0": list(mech.p0),
            "p1": list(mech.p1),
        }
    if isinstance(mech, RawCurve):
        return {"kind": "raw", "curve": mech.curve.to_json()}
    raise TypeError(f"unknown mechanism type {type(mech).__name__}")


def mechanism_from_json(data: Mapping, where: str = "mech") -> Mechanism:
    kind = _object(data, where, None, ("kind",))["kind"]
    if kind == "gaussian":
        _object(data, where, {"kind", "sigma", "sensitivity"}, ("sigma",))
        return GaussianMechanism(
            sigma=_as_number(data["sigma"], "sigma"),
            sensitivity=_as_number(data.get("sensitivity", 1.0), "sensitivity"),
        )
    if kind == "discrete":
        _object(data, where, {"kind", "outcomes", "p0", "p1"}, ("outcomes", "p0", "p1"))
        return DiscreteMechanism(
            outcomes=_as_list(data["outcomes"], "outcomes"),
            p0=_as_list(data["p0"], "p0"),
            p1=_as_list(data["p1"], "p1"),
        )
    if kind == "raw":
        _object(data, where, {"kind", "curve"}, ("curve",))
        return RawCurve(_read_curve(data["curve"], {}, where=f"{where}.curve"))
    raise ValueError(f"unknown mechanism kind {kind!r} in {where}")
