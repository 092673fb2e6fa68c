"""Ground-truth verification by brute force.

Adaptive adversaries over finite-output mechanisms are finite decision
trees, so their two view distributions (one per neighboring world) can be
enumerated exactly: each leaf's probability is the product of conditional
outcome probabilities along its path. Divergences computed on those views
certify the accountants' bounds end to end, independently of the
accounting code paths. Gaussian curves, which have no finite view tree,
are certified separately by adaptive quadrature, with a stdlib-only
Gauss-Kronrod rule.

Denied and truncated steps emit a dedicated null outcome with probability
one in both worlds. Such a factor contributes nothing to any divergence,
which is exactly why denied queries are free. After truncation every
later output is deterministically null in both worlds, so the tail is
collapsed into a single terminal null without changing any divergence.
"""

import math
import random
import sys
from dataclasses import InitVar, dataclass, field
from itertools import repeat
from operator import add, lt, mul, sub
from typing import Mapping, Optional, Union

from rdpmeter.core import OrderSet, RdpCurve, _object, _read_curve
from rdpmeter.mechanisms import (
    DiscreteMechanism,
    discrete_rdp_curve,
    mechanism_from_json,
    mechanism_to_json,
)
from rdpmeter.odometers import FilterSchedule

BOTTOM = "⊥"  # the null outcome emitted for denied/truncated steps
MAX_DEPTH = 8
MAX_OUTCOMES = 6
VERIFY_TOL = 1e-9
# random_script's chances: a child per outcome, a null-outcome child, slack
_CONTINUE_PROB = 0.7
_BOTTOM_CHILD_PROB = 0.4
_SLACK_PROB = 0.3

_STOP = "STOP"


@dataclass(frozen=True)
class ScriptNode:
    """One adversary move: a mechanism, its declared budget, and the
    follow-up move for every outcome the adversary might observe.

    Missing children (including the null outcome) mean the adversary
    stops after seeing that outcome.
    """

    mech: DiscreteMechanism
    request: RdpCurve
    children: Mapping[str, Optional["ScriptNode"]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "children", dict(self.children))


@dataclass(frozen=True)
class AdversaryScript:
    """A finite adaptive strategy; root None means stop immediately.

    Declared request curves must dominate the mechanisms' true curves at
    every order: an adversary may over-declare (slack) but never
    under-declare. true_curves, if given, maps id(node) to that node's
    true curve on the script's orders, already computed by the caller.
    """

    root: Optional[ScriptNode]
    true_curves: InitVar[Optional[Mapping[int, RdpCurve]]] = None

    def __post_init__(self, true_curves):
        if self.root is not None:
            _validate_node(self.root, 1, self.root.request.orders, true_curves or {})

    @property
    def orders(self) -> Optional[OrderSet]:
        return None if self.root is None else self.root.request.orders


def _validate_node(
    node: ScriptNode, depth: int, orders: OrderSet, true_curves: Mapping
) -> None:
    if depth > MAX_DEPTH:
        raise ValueError(f"script deeper than the supported maximum {MAX_DEPTH}")
    if not isinstance(node.mech, DiscreteMechanism):
        raise ValueError("only finite-output mechanisms can be enumerated")
    if len(node.mech.outcomes) > MAX_OUTCOMES:
        raise ValueError(
            f"mechanism has {len(node.mech.outcomes)} outcomes; "
            f"the enumeration cap is {MAX_OUTCOMES}"
        )
    if BOTTOM in node.mech.outcomes:
        raise ValueError(f"outcome label {BOTTOM!r} is reserved for denied steps")
    request = node.request
    if request.orders is not orders and request.orders.orders != orders.orders:
        raise ValueError("every request in a script must share one order set")
    true_curve = true_curves.get(id(node))
    if true_curve is None:
        true_curve = discrete_rdp_curve(node.mech, orders)
    # a C-level pass; the loop only names the first under-declared order
    if any(map(lt, request.values, true_curve.values)):
        for alpha, declared, true in zip(orders, request.values, true_curve.values):
            if declared < true:
                raise ValueError(
                    f"declared budget {declared} under-declares the true value "
                    f"{true} at order {alpha}"
                )
    allowed = set(node.mech.outcomes) | {BOTTOM}
    for label, child in node.children.items():
        if label not in allowed:
            raise ValueError(f"child outcome {label!r} is not produced here")
        if child is not None:
            _validate_node(child, depth + 1, orders, true_curves)


@dataclass(frozen=True)
class ViewDistribution:
    """Probability of each complete outcome sequence in one world, and the
    log-probability of each sequence in its support (probability > 0)."""

    probs: Mapping[tuple, float]
    logs: Mapping[tuple, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        logs = {k: math.log(p) for k, p in self.probs.items() if p > 0.0}
        object.__setattr__(self, "logs", logs)

    def total(self) -> float:
        return math.fsum(self.probs.values())

    def __len__(self) -> int:
        return len(self.probs)


# -------------------------------------------------------------- policies


@dataclass(frozen=True)
class FilterPolicy:
    """Route requests through a budget cap; denials emit the null outcome
    and the interaction continues."""

    cap: RdpCurve

    def initial(self):
        return (0.0,) * len(self.cap.orders)

    def admit(self, spent, request: RdpCurve):
        fits = any(
            s + r <= c
            for s, r, c in zip(spent, request.values, self.cap.values)
        )
        if fits:
            return "deliver", tuple(
                s + r for s, r in zip(spent, request.values)
            )
        return "pass", spent


@dataclass(frozen=True)
class OdometerPolicy:
    """Deliver everything; plain unconditional composition."""

    def initial(self):
        return None

    def admit(self, carry, request: RdpCurve):
        return "deliver", None


@dataclass(frozen=True)
class TruncationPolicy:
    """Terminate the interaction once the running sum at one order would
    climb past the given schedule level.

    The level and the order's index are read once, when the policy is
    built; requests must be on the schedule's orders, as
    `verify_truncated_odometer` checks.
    """

    schedule: FilterSchedule
    f: int
    alpha: float
    _index: int = field(init=False, repr=False, compare=False)
    _level: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", self.schedule.orders.index(self.alpha))
        object.__setattr__(self, "_level", self.schedule.level(self.f, self.alpha))

    def initial(self):
        return 0.0

    def admit(self, total, request: RdpCurve):
        nxt = total + request.values[self._index]
        if nxt <= self._level:
            return "deliver", nxt
        return "stop", total


Policy = Union[FilterPolicy, OdometerPolicy, TruncationPolicy]


# ------------------------------------------------------------ enumeration


def enumerate_views(
    script: AdversaryScript, policy: Policy
) -> tuple[ViewDistribution, ViewDistribution]:
    """Exact view distributions for both worlds under the given policy."""
    out0: dict[tuple, float] = {}
    out1: dict[tuple, float] = {}
    _walk(script.root, 1.0, 1.0, (), policy.initial(), policy, out0, out1)
    for world, out in (("0", out0), ("1", out1)):
        total = math.fsum(out.values())
        if abs(total - 1.0) > 1e-9:
            raise ArithmeticError(
                f"world-{world} view probabilities sum to {total}"
            )
    return ViewDistribution(out0), ViewDistribution(out1)


def _walk(node, prob0, prob1, prefix, carry, policy, out0, out1):
    if node is None:
        out0[prefix] = out0.get(prefix, 0.0) + prob0
        out1[prefix] = out1.get(prefix, 0.0) + prob1
        return
    action, carry = policy.admit(carry, node.request)
    if action == "pass":
        # denied: null outcome with probability 1 in both worlds, the
        # adversary sees it and may continue
        _walk(
            node.children.get(BOTTOM),
            prob0,
            prob1,
            prefix + (BOTTOM,),
            carry,
            policy,
            out0,
            out1,
        )
        return
    if action == "stop":
        # truncated: deterministic null from here on, collapsed to one symbol
        key = prefix + (BOTTOM,)
        out0[key] = out0.get(key, 0.0) + prob0
        out1[key] = out1.get(key, 0.0) + prob1
        return
    mech = node.mech
    for label, q0, q1 in zip(mech.outcomes, mech.p0, mech.p1):
        if q0 == 0.0:
            continue  # shared support: q1 is 0 too, the branch never occurs
        _walk(
            node.children.get(label),
            prob0 * q0,
            prob1 * q1,
            prefix + (label,),
            carry,
            policy,
            out0,
            out1,
        )


def renyi_divergence_views(
    v0: ViewDistribution, v1: ViewDistribution, alpha: float
) -> float:
    """Exact divergence of order alpha between two view distributions.

    Where a leaf's term or their sum passes the float range, the sum is
    redone as a max-shifted log-sum-exp of the terms' exponents; every
    divergence the plain sum can hold keeps its bits."""
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    logs0, logs1 = v0.logs, v1.logs
    if logs0.keys() != logs1.keys():
        raise ValueError("view supports differ; the divergence is infinite")

    def exponents():
        # alpha*log p0 + (1-alpha)*log p1 per leaf, in C-level passes
        return map(
            add,
            map(mul, repeat(alpha), logs0.values()),
            map(mul, repeat(1.0 - alpha), map(logs1.__getitem__, logs0)),
        )

    # fsum is exact, so the order of the terms does not matter
    try:
        return math.log(math.fsum(map(math.exp, exponents()))) / (alpha - 1.0)
    except OverflowError:
        logs = list(exponents())
        top = max(logs)
        total = math.fsum([math.exp(e - top) for e in logs])
        return (top + math.log(total)) / (alpha - 1.0)


def _symmetric_divergence(v0, v1, alpha):
    return max(
        renyi_divergence_views(v0, v1, alpha),
        renyi_divergence_views(v1, v0, alpha),
    )


# ------------------------------------------------------------ verification


@dataclass(frozen=True)
class OracleReport:
    """Per-order divergences against their bounds.

    requirement "any" passes when one order is within its bound (a budget
    cap only needs a single surviving order); "all" demands every order
    hold (each truncation level is its own guarantee).
    """

    kind: str
    ok: bool
    orders: tuple[float, ...]
    divergences: tuple[float, ...]
    bounds: tuple[float, ...]
    margins: tuple[float, ...]
    witness_order: Optional[float]
    requirement: str
    tolerance: float = VERIFY_TOL

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "orders": list(self.orders),
            "divergence": list(self.divergences),
            "bound": list(self.bounds),
            "margin": list(self.margins),
            "witness_order": self.witness_order,
            "requirement": self.requirement,
            "tolerance": self.tolerance,
        }


def verify_filter_bound(script: AdversaryScript, cap: RdpCurve) -> OracleReport:
    """Certify that views under the cap stay within it at some order."""
    if script.orders is not None and script.orders.orders != cap.orders.orders:
        raise ValueError("script and cap use different order sets")
    v0, v1 = enumerate_views(script, FilterPolicy(cap))
    divergences = tuple(
        _symmetric_divergence(v0, v1, alpha) for alpha in cap.orders
    )
    margins = tuple(c - d for c, d in zip(cap.values, divergences))
    witness = next(
        (a for a, m in zip(cap.orders, margins) if m >= -VERIFY_TOL), None
    )
    return OracleReport(
        kind="filter",
        ok=witness is not None,
        orders=cap.orders.orders,
        divergences=divergences,
        bounds=cap.values,
        margins=margins,
        witness_order=witness,
        requirement="any",
    )


def verify_truncated_odometer(
    script: AdversaryScript, schedule: FilterSchedule, f: int
) -> OracleReport:
    """Certify every order's truncated views against its own level."""
    if (
        script.orders is not None
        and script.orders.orders != schedule.orders.orders
    ):
        raise ValueError("script and schedule use different order sets")
    divergences = []
    bounds = []
    for alpha in schedule.orders:
        v0, v1 = enumerate_views(script, TruncationPolicy(schedule, f, alpha))
        divergences.append(_symmetric_divergence(v0, v1, alpha))
        bounds.append(schedule.level(f, alpha))
    margins = tuple(b - d for b, d in zip(bounds, divergences))
    ok = all(m >= -VERIFY_TOL for m in margins)
    witness = next(
        (a for a, m in zip(schedule.orders, margins) if m >= -VERIFY_TOL), None
    )
    return OracleReport(
        kind="truncated-odometer",
        ok=ok,
        orders=schedule.orders.orders,
        divergences=tuple(divergences),
        bounds=tuple(bounds),
        margins=margins,
        witness_order=witness,
        requirement="all",
    )


# -------------------------------------------------------------- quadrature

# QUADPACK's qk21 table (Piessens et al. 1983), one row per node pair +-x
# in (0, 1): x, its 21-point Kronrod weight, and its 10-point Gauss weight.
# The Gauss pairs come first, so a sum over the Gauss weights stops after
# their 10 nodes; the center node 0 has Kronrod weight _KRONROD_CENTER.
_QK21 = (
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.2943928627014602, 0.14277593857706009, 0.0),
)
_KRONROD_CENTER = 0.1494455540029169
_NODES = tuple(t for x, _, _ in _QK21 for t in (-x, x)) + (0.0,)
_KRONROD = tuple(w for _, w, _ in _QK21 for _ in "-+") + (_KRONROD_CENTER,)
_GAUSS = tuple(w for _, _, w in _QK21[:5] for _ in "-+")
_ROUNDOFF = 50.0 * sys.float_info.epsilon


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """(error, a, b, integral) of f over [a, b] by the 21-point Kronrod rule.

    f maps a list of abscissae to their values. The error is QUADPACK's:
    the Kronrod-Gauss difference, scaled by resasc (the rule's integral of
    |f - mean|) and floored at 50 ulps of the integral (f >= 0 here, so
    the integral of |f| is the integral itself).
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = list(f([center + half * t for t in _NODES]))
    kronrod = sum(map(mul, _KRONROD, values))
    err = abs((kronrod - sum(map(mul, _GAUSS, values))) * half)
    resasc = abs(half) * sum(
        map(mul, _KRONROD, map(abs, map(sub, values, repeat(0.5 * kronrod))))
    )
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    value = kronrod * half
    return max(_ROUNDOFF * abs(value), err), a, b, value


def _quad(f, a: float, b: float, tol: float, limit: int) -> tuple[float, float]:
    """(integral, error) of f over [a, b] by adaptive Gauss-Kronrod
    quadrature, as QUADPACK's qag: bisect the interval with the largest
    error until the summed error is within tol, absolute or relative to
    the integral, or limit intervals are in use."""
    intervals = [_qk21(f, a, b)]
    err, _, _, value = intervals[0]
    while err > max(tol, tol * abs(value)) and len(intervals) < limit:
        worst = max(intervals)
        intervals.remove(worst)
        worst_err, lo, hi, worst_value = worst
        mid = 0.5 * (lo + hi)
        halves = (_qk21(f, lo, mid), _qk21(f, mid, hi))
        intervals += halves
        err += halves[0][0] + halves[1][0] - worst_err
        value += halves[0][3] + halves[1][3] - worst_value
    return math.fsum(interval[3] for interval in intervals), err


def numeric_renyi_gaussian(sigma: float, shift: float, alpha: float) -> float:
    """Divergence between N(0, sigma^2) and N(shift, sigma^2) by quadrature.

    The integrand exp(alpha*log p0 + (1-alpha)*log p1) is a Gaussian bump
    centered at -(alpha-1)*shift, far from the distributions' own means
    for large alpha, and its peak overflows double precision in raw form.
    Integrating exp(g - g_max) over a window around the peak (widened to
    cover both distributions) keeps everything in range; the peak height
    is added back in log space. The integral is taken by `_quad`, a
    stdlib-only adaptive 21-point Gauss-Kronrod rule, to 1e-12 absolute
    and relative error on at most 200 intervals.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if shift < 0.0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    lognorm = math.log(sigma * math.sqrt(2.0 * math.pi))
    tilt = 1.0 - alpha
    two_var = 2.0 * sigma * sigma

    def g(xs: list, top: float) -> list:
        """g(x) - top at each x; g(x) - 0.0 is g(x) exactly."""
        return [
            -(alpha * x * x + tilt * (x - shift) ** 2) / two_var - lognorm - top
            for x in xs
        ]

    mode = -(alpha - 1.0) * shift  # the quadratic's stationary point
    (gmax,) = g([mode], 0.0)
    lo = min(-20.0 * sigma, mode - 25.0 * sigma)
    hi = max(shift + 20.0 * sigma, mode + 25.0 * sigma)
    value, err = _quad(
        lambda xs: map(math.exp, g(xs, gmax)), lo, hi, tol=1e-12, limit=200
    )
    if value <= 0.0 or err / value > 1e-8 * (alpha - 1.0):
        raise ArithmeticError(
            f"quadrature did not converge (value={value}, err={err})"
        )
    return (gmax + math.log(value)) / (alpha - 1.0)


# ------------------------------------------------------------ script corpus


def random_script(
    rng: random.Random,
    orders: OrderSet,
    max_depth: int = 4,
    max_outcomes: int = 4,
) -> AdversaryScript:
    """Random adaptive script for corpus testing.

    Children differ per observed outcome, so the strategies are genuinely
    adaptive; a fraction of nodes over-declare their budgets (slack), and
    a fraction plan a follow-up move for the null outcome so denial paths
    stay adaptive too. Each node's true curve is computed once, and the
    script's validation reads it from true_curves.
    """
    true_curves: dict[int, RdpCurve] = {}

    def gen(depth: int) -> ScriptNode:
        n = rng.randint(2, max_outcomes)
        p0 = _random_probs(rng, n)
        p1 = _random_probs(rng, n)
        mech = DiscreteMechanism(
            tuple(f"v{i}" for i in range(n)), tuple(p0), tuple(p1)
        )
        true_curve = discrete_rdp_curve(mech, orders)
        if rng.random() < _SLACK_PROB:
            factor = rng.uniform(1.0, 1.5)
            request = RdpCurve(
                orders, tuple(factor * v for v in true_curve.values)
            )
        else:
            request = true_curve
        children: dict[str, Optional[ScriptNode]] = {}
        if depth < max_depth:
            for label in mech.outcomes:
                if rng.random() < _CONTINUE_PROB:
                    children[label] = gen(depth + 1)
            if rng.random() < _BOTTOM_CHILD_PROB:
                children[BOTTOM] = gen(depth + 1)
        node = ScriptNode(mech=mech, request=request, children=children)
        true_curves[id(node)] = true_curve
        return node

    root = gen(1)
    # gen reaches itself through its closure; clearing the name ends that
    # cycle, so true_curves is freed on return, not at a later collection
    del gen
    return AdversaryScript(root=root, true_curves=true_curves)


def _random_probs(rng: random.Random, n: int) -> list[float]:
    weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = math.fsum(weights)
    return [w / total for w in weights]


# ------------------------------------------------------------ serialization


def script_to_json(script: AdversaryScript) -> Union[dict, str]:
    """The script as JSON: the root's request lists its orders, and every
    request below it, on the same orders, is written as {"eps": [...]}."""
    if script.root is None:
        return _STOP
    return _node_to_json(script.root, script.root.request.to_json())


def _node_to_json(node: ScriptNode, request: dict) -> dict:
    return {
        "mech": mechanism_to_json(node.mech),
        "request": request,
        "children": {
            label: _STOP
            if child is None
            else _node_to_json(child, {"eps": list(child.request.values)})
            for label, child in node.children.items()
        },
    }


def script_from_json(data: Union[dict, str]) -> AdversaryScript:
    """A script from JSON. A request without "orders" reads as if it listed
    the root request's orders as written; one that lists its own, as every
    request of a file written before the eps-only form does, is read on
    those."""
    if data == _STOP:
        return AdversaryScript(root=None)
    return AdversaryScript(root=_node_from_json(data, {}, None, "script", 1))


def _node_from_json(
    data: dict, order_sets: dict, listed, where: str, depth: int
) -> ScriptNode:
    """The node at where, depth deep, and its subtree; order_sets is the
    script's one dict for `_read_curve`, so requests listing the same
    orders share one OrderSet, and listed is the root request's order
    list (None at the root itself). The depth is checked here, before
    the recursion goes deeper, and again by validation."""
    if depth > MAX_DEPTH:
        raise ValueError(f"script deeper than the supported maximum {MAX_DEPTH}")
    _object(data, where, {"mech", "request", "children"}, ("mech", "request"))
    mech = mechanism_from_json(data["mech"], f"{where}.mech")
    request = _read_curve(data["request"], order_sets, listed, f"{where}.request")
    listed = data["request"]["orders"] if listed is None else listed
    children = _object(data.get("children", {}), f"{where}.children", None)
    children = {
        label: None
        if child == _STOP
        else _node_from_json(
            child, order_sets, listed, f"{where}.children[{label!r}]", depth + 1
        )
        for label, child in children.items()
    }
    return ScriptNode(mech=mech, request=request, children=children)
