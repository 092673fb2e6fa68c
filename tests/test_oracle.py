import hashlib
import json
import math
import pathlib
import random

import numpy as np
import pytest

from rdpmeter.core import OrderSet, RdpCurve, default_order_set
from rdpmeter.mechanisms import (
    DiscreteMechanism,
    GaussianMechanism,
    discrete_rdp_curve,
    gaussian_rdp_curve,
)
from rdpmeter import oracle
from rdpmeter.odometers import FilterSchedule
from rdpmeter.oracle import (
    BOTTOM,
    MAX_DEPTH,
    MAX_OUTCOMES,
    AdversaryScript,
    FilterPolicy,
    OdometerPolicy,
    ScriptNode,
    TruncationPolicy,
    _GAUSS,
    _KRONROD,
    _NODES,
    _quad,
    enumerate_views,
    numeric_renyi_gaussian,
    random_script,
    renyi_divergence_views,
    script_from_json,
    script_to_json,
    verify_filter_bound,
    verify_truncated_odometer,
)

ORDERS = OrderSet([2.0, 4.0, 8.0])
DATA = pathlib.Path(__file__).resolve().parent / "data"


def rr(p):
    return DiscreteMechanism(("a", "b"), (p, 1.0 - p), (1.0 - p, p))


def honest_node(mech, children=None):
    return ScriptNode(
        mech=mech,
        request=discrete_rdp_curve(mech, ORDERS),
        children=children or {},
    )


# ------------------------------------------------------------- enumeration


def test_depth_one_views():
    script = AdversaryScript(root=honest_node(rr(0.75)))
    v0, v1 = enumerate_views(script, OdometerPolicy())
    assert v0.probs == {("a",): 0.75, ("b",): 0.25}
    assert v1.probs == {("a",): 0.25, ("b",): 0.75}


def test_depth_two_adaptive_views_hand_enumerated():
    script = AdversaryScript(
        root=honest_node(
            rr(0.75),
            children={"a": honest_node(rr(0.9)), "b": honest_node(rr(0.6))},
        )
    )
    v0, v1 = enumerate_views(script, OdometerPolicy())
    assert v0.probs == pytest.approx(
        {
            ("a", "a"): 0.75 * 0.9,
            ("a", "b"): 0.75 * 0.1,
            ("b", "a"): 0.25 * 0.6,
            ("b", "b"): 0.25 * 0.4,
        }
    )
    assert v1.probs == pytest.approx(
        {
            ("a", "a"): 0.25 * 0.1,
            ("a", "b"): 0.25 * 0.9,
            ("b", "a"): 0.75 * 0.4,
            ("b", "b"): 0.75 * 0.6,
        }
    )


def test_view_probabilities_sum_to_one():
    rng = random.Random(11)
    for _ in range(20):
        script = random_script(rng, ORDERS, max_depth=6, max_outcomes=4)
        v0, v1 = enumerate_views(script, OdometerPolicy())
        assert abs(v0.total() - 1.0) < 1e-12
        assert abs(v1.total() - 1.0) < 1e-12


def test_empty_script_has_single_empty_view():
    script = AdversaryScript(root=None)
    v0, v1 = enumerate_views(script, OdometerPolicy())
    assert v0.probs == {(): 1.0}
    assert v1.probs == {(): 1.0}


def test_zero_probability_branches_are_skipped():
    mech = DiscreteMechanism(("a", "b", "c"), (0.5, 0.5, 0.0), (0.25, 0.75, 0.0))
    script = AdversaryScript(
        root=ScriptNode(mech=mech, request=discrete_rdp_curve(mech, ORDERS))
    )
    v0, _ = enumerate_views(script, OdometerPolicy())
    assert ("c",) not in v0.probs


# -------------------------------------------------------------- validation


def test_under_declaring_script_rejected():
    mech = rr(0.75)
    low = RdpCurve(ORDERS, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        AdversaryScript(root=ScriptNode(mech=mech, request=low))


def test_slack_declaration_accepted():
    mech = rr(0.75)
    true = discrete_rdp_curve(mech, ORDERS)
    slack = RdpCurve(ORDERS, tuple(2.0 * v for v in true.values))
    AdversaryScript(root=ScriptNode(mech=mech, request=slack))


def test_depth_cap_enforced():
    node = honest_node(rr(0.6))
    for _ in range(MAX_DEPTH):
        node = honest_node(rr(0.6), children={"a": node})
    with pytest.raises(ValueError):
        AdversaryScript(root=node)


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 600])
def test_a_script_too_deep_is_refused_while_loading(depth):
    # a chain of one-outcome nodes built in Python: json's own depth limit
    # never sees it, so the loader's recursion must stop at the supported
    # depth
    null = DiscreteMechanism(("x",), (1.0,), (1.0,))
    mech = script_to_json(AdversaryScript(root=honest_node(null)))["mech"]
    node = {"mech": mech, "request": {"eps": [0.0, 0.0, 0.0]}}
    for _ in range(depth - 1):
        node = {"mech": mech, "request": {"eps": [0.0, 0.0, 0.0]}, "children": {"x": node}}
    node["request"]["orders"] = list(ORDERS)
    with pytest.raises(ValueError) as info:
        script_from_json(node)
    assert str(info.value) == f"script deeper than the supported maximum {MAX_DEPTH}"


def test_a_script_at_the_supported_depth_loads():
    node = honest_node(rr(0.6))
    for _ in range(MAX_DEPTH - 1):
        node = honest_node(rr(0.6), children={"a": node})
    script = AdversaryScript(root=node)
    assert script_from_json(json.loads(json.dumps(script_to_json(script)))) == script


def test_outcome_cap_and_reserved_label_enforced():
    n = MAX_OUTCOMES + 1
    mech = DiscreteMechanism(
        tuple(f"v{i}" for i in range(n)), (1.0 / n,) * n, (1.0 / n,) * n
    )
    with pytest.raises(ValueError):
        AdversaryScript(
            root=ScriptNode(mech=mech, request=RdpCurve.zeros(ORDERS))
        )
    bad = DiscreteMechanism((BOTTOM, "x"), (0.5, 0.5), (0.5, 0.5))
    with pytest.raises(ValueError):
        AdversaryScript(root=ScriptNode(mech=bad, request=RdpCurve.zeros(ORDERS)))


def test_mixed_order_sets_rejected():
    mech = rr(0.75)
    child = ScriptNode(
        mech=mech, request=discrete_rdp_curve(mech, OrderSet([2.0]))
    )
    with pytest.raises(ValueError):
        AdversaryScript(root=honest_node(mech, children={"a": child}))


# ------------------------------------------------------------- divergences


def test_divergence_of_identical_views_is_zero():
    script = AdversaryScript(
        root=ScriptNode(
            mech=DiscreteMechanism(("a", "b"), (0.3, 0.7), (0.3, 0.7)),
            request=RdpCurve.zeros(ORDERS),
        )
    )
    v0, v1 = enumerate_views(script, OdometerPolicy())
    for alpha in ORDERS:
        assert abs(renyi_divergence_views(v0, v1, alpha)) < 1e-15


def test_single_query_divergence_matches_catalog():
    mech = rr(0.25)
    script = AdversaryScript(root=honest_node(mech))
    v0, v1 = enumerate_views(script, OdometerPolicy())
    catalog = discrete_rdp_curve(mech, ORDERS)
    for alpha in ORDERS:
        oracle_value = max(
            renyi_divergence_views(v0, v1, alpha),
            renyi_divergence_views(v1, v0, alpha),
        )
        assert abs(oracle_value - catalog.value(alpha)) < 1e-12
    assert renyi_divergence_views(v0, v1, 2.0) == pytest.approx(
        0.8472978603872037, abs=1e-12
    )


def test_composition_of_fixed_queries_adds_divergences():
    first, second = rr(0.75), rr(0.8)
    two_level = AdversaryScript(
        root=honest_node(
            first,
            children={"a": honest_node(second), "b": honest_node(second)},
        )
    )
    v0, v1 = enumerate_views(two_level, OdometerPolicy())
    for alpha in ORDERS:
        singles = 0.0
        for mech in (first, second):
            s0, s1 = enumerate_views(
                AdversaryScript(root=honest_node(mech)), OdometerPolicy()
            )
            singles += renyi_divergence_views(s0, s1, alpha)
        combined = renyi_divergence_views(v0, v1, alpha)
        assert abs(combined - singles) < 1e-12


def test_divergence_support_mismatch_rejected():
    from rdpmeter.oracle import ViewDistribution

    v0 = ViewDistribution({("a",): 1.0})
    v1 = ViewDistribution({("b",): 1.0})
    with pytest.raises(ValueError):
        renyi_divergence_views(v0, v1, 2.0)


# ------------------------------------------------------------ filter oracle


def test_filter_denial_emits_bottom_and_zero_divergence():
    cap = RdpCurve(ORDERS, (0.5, 0.5, 0.5))  # below the true curve at 2
    script = AdversaryScript(root=honest_node(rr(0.9)))
    v0, v1 = enumerate_views(script, FilterPolicy(cap))
    assert v0.probs == {(BOTTOM,): 1.0}
    assert v1.probs == {(BOTTOM,): 1.0}
    report = verify_filter_bound(script, cap)
    assert report.ok
    assert report.divergences[0] == pytest.approx(0.0, abs=1e-15)


def test_filter_grants_then_denies_second_query():
    mech = rr(0.75)
    true = discrete_rdp_curve(mech, ORDERS)
    cap = RdpCurve(ORDERS, tuple(1.5 * v for v in true.values))
    script = AdversaryScript(
        root=honest_node(
            mech, children={"a": honest_node(mech), "b": honest_node(mech)}
        )
    )
    v0, _ = enumerate_views(script, FilterPolicy(cap))
    # first query granted, second denied at every order (2x > 1.5x cap)
    assert set(v0.probs) == {("a", BOTTOM), ("b", BOTTOM)}
    report = verify_filter_bound(script, cap)
    assert report.ok


def test_filter_bottom_child_lets_adversary_continue():
    mech = rr(0.75)
    true = discrete_rdp_curve(mech, ORDERS)
    cap = true  # exactly one honest query fits
    big = RdpCurve(ORDERS, tuple(3.0 * v for v in true.values))
    # ask too much first; after the denial, ask something that fits
    script = AdversaryScript(
        root=ScriptNode(
            mech=mech,
            request=big,
            children={BOTTOM: honest_node(mech)},
        )
    )
    v0, v1 = enumerate_views(script, FilterPolicy(cap))
    assert set(v0.probs) == {(BOTTOM, "a"), (BOTTOM, "b")}
    assert v0.probs[(BOTTOM, "a")] == 0.75
    report = verify_filter_bound(script, cap)
    assert report.ok
    assert report.witness_order is not None


def test_filter_report_fields_and_json():
    cap = RdpCurve(ORDERS, (10.0, 10.0, 10.0))
    report = verify_filter_bound(AdversaryScript(root=honest_node(rr(0.75))), cap)
    assert report.ok and report.requirement == "any"
    assert report.witness_order == 2.0
    assert len(report.margins) == len(ORDERS)
    data = report.to_json()
    assert json.dumps(data)  # serializable
    assert data["ok"] is True


def test_filter_oracle_on_random_corpus():
    rng = random.Random(2024)
    for _ in range(30):
        script = random_script(rng, ORDERS, max_depth=3, max_outcomes=3)
        cap = RdpCurve(ORDERS, tuple(rng.uniform(0.0, 4.0) for _ in ORDERS))
        assert verify_filter_bound(script, cap).ok


# --------------------------------------------------------- truncation oracle


def test_truncation_large_f_reduces_to_plain_composition():
    sched = FilterSchedule(delta=1e-5, orders=ORDERS)
    script = AdversaryScript(
        root=honest_node(rr(0.75), children={"a": honest_node(rr(0.6))})
    )
    report = verify_truncated_odometer(script, sched, 3)
    assert report.ok
    plain0, plain1 = enumerate_views(script, OdometerPolicy())
    for i, alpha in enumerate(ORDERS):
        d_plain = max(
            renyi_divergence_views(plain0, plain1, alpha),
            renyi_divergence_views(plain1, plain0, alpha),
        )
        assert report.divergences[i] == pytest.approx(d_plain, abs=1e-12)


def test_truncation_cuts_over_budget_tails():
    orders = OrderSet([2.0])
    sched = FilterSchedule(delta=0.5, orders=orders)  # level(1) = ln 4
    # one query (~1.18 at order 2) fits under ln 4, two do not
    mech = rr(0.8)
    node = ScriptNode(mech=mech, request=discrete_rdp_curve(mech, orders))
    chain = ScriptNode(
        mech=mech,
        request=discrete_rdp_curve(mech, orders),
        children={"a": node, "b": node},
    )
    script = AdversaryScript(root=chain)
    policy = TruncationPolicy(sched, 1, 2.0)
    v0, _ = enumerate_views(script, policy)
    # first query fits below ln4; the second would cross, so paths end in null
    assert set(v0.probs) == {("a", BOTTOM), ("b", BOTTOM)}
    report = verify_truncated_odometer(script, sched, 1)
    assert report.ok


def test_truncation_first_query_too_big():
    orders = OrderSet([2.0])
    sched = FilterSchedule(delta=0.5, orders=orders)
    mech = rr(0.99)
    big = RdpCurve(orders, (10.0,))
    script = AdversaryScript(root=ScriptNode(mech=mech, request=big))
    v0, v1 = enumerate_views(script, TruncationPolicy(sched, 1, 2.0))
    assert v0.probs == {(BOTTOM,): 1.0} and v1.probs == {(BOTTOM,): 1.0}
    assert verify_truncated_odometer(script, sched, 1).ok


def test_truncation_oracle_on_random_corpus():
    rng = random.Random(7)
    orders = OrderSet([2.0, 4.0])
    sched = FilterSchedule(delta=0.3, orders=orders)
    for _ in range(15):
        script = random_script(rng, orders, max_depth=3, max_outcomes=3)
        for f in (1, 2, 3):
            assert verify_truncated_odometer(script, sched, f).ok


# ------------------------------------------- one walk against per-order walks


def _reference_filter(script, cap):
    """verify_filter_bound as the per-order form: the views' logs aligned
    again at each order, by `_symmetric_divergence`."""
    if script.orders is not None and script.orders.orders != cap.orders.orders:
        raise ValueError("script and cap use different order sets")
    v0, v1 = enumerate_views(script, FilterPolicy(cap))
    divergences = tuple(
        oracle._symmetric_divergence(v0, v1, alpha) for alpha in cap.orders
    )
    return _reference_report("filter", cap.orders, divergences, cap.values, "any")


def _reference_truncated(script, schedule, f):
    """verify_truncated_odometer as the per-order form: one
    `enumerate_views` walk under `TruncationPolicy` per order."""
    if script.orders is not None and script.orders.orders != schedule.orders.orders:
        raise ValueError("script and schedule use different order sets")
    divergences = []
    bounds = []
    for alpha in schedule.orders:
        v0, v1 = enumerate_views(script, TruncationPolicy(schedule, f, alpha))
        divergences.append(oracle._symmetric_divergence(v0, v1, alpha))
        bounds.append(schedule.level(f, alpha))
    return _reference_report(
        "truncated-odometer", schedule.orders, tuple(divergences), tuple(bounds), "all"
    )


def _reference_report(kind, orders, divergences, bounds, requirement):
    margins = tuple(b - d for b, d in zip(bounds, divergences))
    held = [m >= -oracle.VERIFY_TOL for m in margins]
    return oracle.OracleReport(
        kind=kind,
        ok=all(held) if requirement == "all" else any(held),
        orders=orders.orders,
        divergences=divergences,
        bounds=bounds,
        margins=margins,
        witness_order=next((a for a, h in zip(orders, held) if h), None),
        requirement=requirement,
    )


def _outcome(check, *args):
    """A report's JSON with every float as float.hex, or the exception's
    type and message."""
    try:
        report = check(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)

    def bits(x):
        return x.hex() if isinstance(x, float) else x

    return {
        key: [bits(x) for x in value] if isinstance(value, list) else bits(value)
        for key, value in report.to_json().items()
    }


@pytest.mark.parametrize("delta", [0.05, 0.5, 1e-5])
@pytest.mark.parametrize(
    "orders", [OrderSet([2.0, 4.0]), default_order_set()], ids=["2-orders", "38-orders"]
)
def test_one_walk_reports_are_the_per_order_reports(orders, delta):
    rng = random.Random(31)
    schedule = FilterSchedule(delta=delta, orders=orders)
    scripts = [AdversaryScript(root=None)] + [
        random_script(rng, orders, max_depth=rng.randint(1, 4)) for _ in range(6)
    ]
    for script in scripts:
        for f in (1, 2, 3, 4):
            got = _outcome(verify_truncated_odometer, script, schedule, f)
            assert got == _outcome(_reference_truncated, script, schedule, f)
        root = script.root or scripts[1].root  # the empty script borrows a cap
        cap = RdpCurve(orders, tuple(rng.uniform(0.3, 3.0) * v for v in root.request.values))
        assert _outcome(verify_filter_bound, script, cap) == _outcome(
            _reference_filter, script, cap
        )


def _chain(mech, depth):
    """Depth nodes deep, each the next one's parent through outcome "a",
    each declaring its true curve on {2, 4}."""
    orders = OrderSet([2.0, 4.0])
    node = None
    for _ in range(depth):
        children = {} if node is None else {"a": node}
        node = ScriptNode(mech, discrete_rdp_curve(mech, orders), children)
    return AdversaryScript(root=node)


# p1's 1e-90 underflows to 0 four levels down, where p0's 0.5**4 does not;
# with p0's 1e-90 as well, the deep leaf is 0 in both worlds, in neither view
_LOPSIDED = _chain(DiscreteMechanism(("a", "b"), (0.5, 0.5), (1e-90, 1.0)), 4)
_BOTH_ZERO = _chain(DiscreteMechanism(("a", "b"), (1e-90, 1.0), (2e-90, 1.0)), 4)


@pytest.mark.parametrize("f", [1, 8, 10, 20])
@pytest.mark.parametrize("script", [_LOPSIDED, _BOTH_ZERO], ids=["lopsided", "both-zero"])
def test_one_walk_underflowed_leaves_are_the_per_order_outcome(script, f):
    schedule = FilterSchedule(delta=0.05, orders=script.orders)
    got = _outcome(verify_truncated_odometer, script, schedule, f)
    assert got == _outcome(_reference_truncated, script, schedule, f)
    if script is _LOPSIDED and f == 20:  # every order reaches the deep leaf
        assert got == (ValueError, "view supports differ; the divergence is infinite")
    cap = RdpCurve(script.orders, (1e4, 1e4))
    assert _outcome(verify_filter_bound, script, cap) == _outcome(
        _reference_filter, script, cap
    )


def test_one_walk_admits_a_total_that_lands_on_its_level():
    orders = OrderSet([2.0, 4.0])
    schedule = FilterSchedule(delta=0.05, orders=orders)
    at_level = RdpCurve(orders, tuple(schedule.level(1, alpha) for alpha in orders))
    mech = rr(0.6)
    child = ScriptNode(mech, discrete_rdp_curve(mech, orders))
    script = AdversaryScript(root=ScriptNode(mech, at_level, {"a": child}))
    for f in (1, 2):
        got = _outcome(verify_truncated_odometer, script, schedule, f)
        assert got == _outcome(_reference_truncated, script, schedule, f)
    # admitted at f = 1: the root's outcomes are in the views
    assert verify_truncated_odometer(script, schedule, 1).divergences[0] > 0.0


def test_one_walk_checks_each_worlds_total_as_the_per_order_form():
    mech = rr(0.6)
    script = AdversaryScript(root=honest_node(mech, {"a": honest_node(rr(0.7))}))
    # a world-1 distribution summing to 0.9, past the constructor's checks
    object.__setattr__(script.root.children["a"].mech, "p1", (0.5, 0.4))
    schedule = FilterSchedule(delta=0.5, orders=ORDERS)
    got = _outcome(verify_truncated_odometer, script, schedule, 10)
    assert got[0] is ArithmeticError and got[1].startswith("world-1 view probabilities")
    assert got == _outcome(_reference_truncated, script, schedule, 10)


@pytest.mark.parametrize("f", [0, -1, 65, True, 1.5, "2"])
def test_one_walk_refuses_a_bad_filter_index_as_the_per_order_form(f):
    script = random_script(random.Random(3), ORDERS)
    schedule = FilterSchedule(delta=0.05, orders=ORDERS)
    got = _outcome(verify_truncated_odometer, script, schedule, f)
    assert got[0] is ValueError
    assert got == _outcome(_reference_truncated, script, schedule, f)


def test_one_walk_refuses_a_script_on_other_orders_as_the_per_order_form():
    script = random_script(random.Random(3), ORDERS)
    schedule = FilterSchedule(delta=0.05, orders=OrderSet([2.0, 4.0]))
    got = _outcome(verify_truncated_odometer, script, schedule, 1)
    assert got == (ValueError, "script and schedule use different order sets")
    assert got == _outcome(_reference_truncated, script, schedule, 1)


def test_truncation_check_walks_no_per_order_views(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_views was called")

    script = random_script(random.Random(5), ORDERS)
    schedule = FilterSchedule(delta=0.05, orders=ORDERS)
    expected = _outcome(_reference_truncated, script, schedule, 2)
    monkeypatch.setattr(oracle, "enumerate_views", refuse)
    assert _outcome(verify_truncated_odometer, script, schedule, 2) == expected


# -------------------------------------------------------------- quadrature


def test_quadrature_matches_closed_form_frozen_points():
    assert numeric_renyi_gaussian(1.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-6)
    assert numeric_renyi_gaussian(2.0, 1.0, 4.0) == pytest.approx(0.5, abs=1e-6)


def test_quadrature_zero_shift_is_zero():
    assert abs(numeric_renyi_gaussian(1.0, 0.0, 8.0)) < 1e-9


def test_quadrature_handles_far_tilted_peak():
    # at alpha=32 the integrand peaks at -31; the naive window misses it
    assert numeric_renyi_gaussian(0.5, 1.0, 32.0) == pytest.approx(
        32.0 / (2.0 * 0.25), abs=1e-6
    )


@pytest.mark.parametrize(
    "weights, degree", [(_KRONROD, 31), (_GAUSS, 19)], ids=["kronrod", "gauss"]
)
def test_rule_integrates_polynomials_up_to_its_degree(weights, degree):
    # the Gauss weights cover the first 10 nodes only (zip stops there)
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = sum(w * t**k for w, t in zip(weights, _NODES))
        assert abs(got - exact) <= 1e-15, k


def test_gauss_nodes_and_weights_match_legendre():
    want_nodes, want_weights = np.polynomial.legendre.leggauss(10)
    got = sorted(zip(_NODES, _GAUSS))
    assert len(got) == 10
    for (t, w), want_t, want_w in zip(got, want_nodes, want_weights):
        assert abs(t - want_t) <= 1e-15
        assert abs(w - want_w) <= 1e-15


def test_adaptive_rule_takes_quadpacks_steps():
    # the normal bump on a window 25 deviations wide, as numeric_renyi_gaussian
    # integrates it at large sigma; QUADPACK (scipy.integrate.quad) makes
    # 357 evaluations here with an error estimate of 1.3117e-12, and so must
    # a rule with the same table, error scaling and bisection
    count = 0

    def bump(xs):
        nonlocal count
        count += len(xs)
        return [math.exp(-0.5 * x * x) for x in xs]

    value, err = _quad(bump, -25.0, 25.0, tol=1e-12, limit=200)
    assert count == 357
    assert err == pytest.approx(1.3117e-12, rel=1e-2)
    assert abs(value - math.sqrt(2.0 * math.pi)) <= 1e-15
    # one interval: the rule alone is far off, and says so
    value, err = _quad(bump, -25.0, 25.0, tol=1e-12, limit=1)
    assert count == 357 + 21
    assert err > abs(value - math.sqrt(2.0 * math.pi)) > 0.1


@pytest.mark.parametrize(
    "sigma", [0.5, 1.0, 2.0, 4.0, 40.0, 50.0, 60.0, 75.0, 95.0, 120.0, 140.0, 170.0]
)
def test_quadrature_matches_closed_form_on_default_orders(sigma):
    orders = default_order_set()
    closed = gaussian_rdp_curve(GaussianMechanism(sigma, 1.0), orders)
    for alpha, want in zip(orders, closed.values):
        assert abs(want - numeric_renyi_gaussian(sigma, 1.0, alpha)) <= 1e-12


def test_quadrature_validates_inputs():
    with pytest.raises(ValueError):
        numeric_renyi_gaussian(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        numeric_renyi_gaussian(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        numeric_renyi_gaussian(1.0, -1.0, 2.0)


# ------------------------------------------------------------ serialization


def test_script_json_round_trip():
    rng = random.Random(99)
    script = random_script(rng, ORDERS, max_depth=3, max_outcomes=3)
    data = script_to_json(script)
    text = json.dumps(data)
    back = script_from_json(json.loads(text))
    assert back == script


def _nodes(node):
    yield node
    for child in node.children.values():
        if child is not None:
            yield from _nodes(child)


def test_reloaded_script_shares_one_order_set():
    rng = random.Random(7)
    script = random_script(rng, ORDERS, max_depth=4, max_outcomes=3)
    back = script_from_json(json.loads(json.dumps(script_to_json(script))))
    nodes = list(_nodes(back.root))
    assert len(nodes) > 1
    assert len({id(node.request.orders) for node in nodes}) == 1
    assert [n.request for n in nodes] == [n.request for n in _nodes(script.root)]


def test_reload_still_checks_every_node():
    child = honest_node(rr(0.75))
    data = script_to_json(AdversaryScript(root=honest_node(rr(0.6), {"a": child})))
    under = json.loads(json.dumps(data))
    under["children"]["a"]["request"]["eps"] = [0.0] * len(ORDERS)
    with pytest.raises(ValueError, match="under-declares"):
        script_from_json(under)
    other = json.loads(json.dumps(data))
    other["children"]["a"]["request"] = discrete_rdp_curve(
        rr(0.75), OrderSet([2.0, 4.0])
    ).to_json()
    with pytest.raises(ValueError, match="share one order set"):
        script_from_json(other)


def test_reload_pairs_each_eps_with_its_listed_order():
    child = honest_node(rr(0.75))
    script = AdversaryScript(root=honest_node(rr(0.6), {"a": child}))
    data = json.loads(json.dumps(script_to_json(script)))
    # the full form, as files written before the eps-only form list it
    request = data["children"]["a"]["request"] = child.request.to_json()
    request["orders"].reverse()
    request["eps"].reverse()
    back = script_from_json(data)
    assert back.root.children["a"].request == child.request


def test_child_requests_are_written_eps_only():
    rng = random.Random(3)
    script = random_script(rng, ORDERS, max_depth=3, max_outcomes=3)
    data = script_to_json(script)
    assert data["request"] == script.root.request.to_json()
    children = [c for c in data["children"].values() if c != "STOP"]
    assert children
    while children:
        child = children.pop()
        assert list(child["request"]) == ["eps"]
        children += [c for c in child["children"].values() if c != "STOP"]


def _full_form_script():
    """The script tests/data/full_form_script.json was written from, by
    rdpmeter before child requests were written eps-only; in the file, the
    request of child "a" lists its orders largest first."""
    three = DiscreteMechanism(("x", "y", "z"), (0.5, 0.3, 0.2), (0.2, 0.3, 0.5))
    slack = RdpCurve(
        ORDERS, tuple(1.25 * v for v in discrete_rdp_curve(three, ORDERS).values)
    )
    return AdversaryScript(
        root=honest_node(
            rr(0.6),
            {"a": honest_node(rr(0.75)), "b": None, BOTTOM: ScriptNode(three, slack)},
        )
    )


def test_full_form_script_file_still_loads():
    data = json.loads((DATA / "full_form_script.json").read_text(encoding="utf-8"))
    assert data["children"]["a"]["request"]["orders"] == [8.0, 4.0, 2.0]
    script = _full_form_script()
    back = script_from_json(data)
    assert back == script
    assert back == script_from_json(json.loads(json.dumps(script_to_json(script))))
    assert [n.request.values for n in _nodes(back.root)] == [
        n.request.values for n in _nodes(script.root)
    ]


def test_eps_only_requests_pair_with_the_roots_listed_orders():
    script = _full_form_script()
    data = json.loads(json.dumps(script_to_json(script)))
    data["request"]["orders"].reverse()
    data["request"]["eps"].reverse()
    for label in ("a", BOTTOM):
        data["children"][label]["request"]["eps"].reverse()
    back = script_from_json(data)
    assert back == script
    assert len({id(n.request.orders) for n in _nodes(back.root)}) == 1


def test_root_request_without_orders_is_refused():
    data = json.loads(json.dumps(script_to_json(_full_form_script())))
    del data["request"]["orders"]
    with pytest.raises(ValueError, match=r"^script\.request has no 'orders'$"):
        script_from_json(data)


def test_eps_only_child_of_the_wrong_length_is_refused():
    data = json.loads(json.dumps(script_to_json(_full_form_script())))
    data["children"]["a"]["request"]["eps"].pop()
    with pytest.raises(ValueError, match="^curve has 2 values for 3 orders$"):
        script_from_json(data)


@pytest.mark.parametrize("where", ["root", "child"])
@pytest.mark.parametrize("key, value", [("orders", "248"), ("eps", "123"), ("eps", {"1": 0})])
def test_script_request_lists_must_be_lists(where, key, value):
    data = json.loads(json.dumps(script_to_json(_full_form_script())))
    node = data if where == "root" else data["children"]["a"]
    node["request"][key] = value
    with pytest.raises(ValueError, match=f"^{key} must be a list, got "):
        script_from_json(data)


def test_under_declared_node_names_its_first_failing_order():
    true = discrete_rdp_curve(rr(0.75), ORDERS).values
    under = RdpCurve(ORDERS, (true[0], 0.5 * true[1], 0.0))
    with pytest.raises(ValueError, match=f"the true value {true[1]!r} at order 4.0$"):
        AdversaryScript(root=ScriptNode(rr(0.75), under))


def _report_digest() -> str:
    """sha256 of the verify-filter report and the verify-truncated reports
    at f = 1, 2, 3 on 40 seeded random scripts, on the default orders and
    on {2, 4}; each report is its JSON text and a newline."""
    digest = hashlib.sha256()
    for orders in (default_order_set(), OrderSet([2.0, 4.0])):
        rng = random.Random(20)
        schedule = FilterSchedule(delta=0.05, orders=orders)
        for _ in range(40):
            script = random_script(rng, orders)
            cap = RdpCurve(
                orders,
                tuple(rng.uniform(0.5, 3.0) * v for v in script.root.request.values),
            )
            reports = [verify_filter_bound(script, cap)]
            reports += [verify_truncated_odometer(script, schedule, f) for f in (1, 2, 3)]
            for report in reports:
                digest.update(json.dumps(report.to_json()).encode() + b"\n")
    return digest.hexdigest()


def test_oracle_reports_are_pinned():
    # the reports of the per-order curve and validation loops, before they
    # became C-level passes
    assert _report_digest() == (
        "ac6ded6d8526952d78a7b302aa24df1b643b6b3c6718bf1eaaf93eddc5abd846"
    )


def test_empty_script_json():
    assert script_to_json(AdversaryScript(root=None)) == "STOP"
    assert script_from_json("STOP").root is None


def _nodes(node):
    yield node
    for child in node.children.values():
        if child is not None:
            yield from _nodes(child)


@pytest.mark.parametrize(
    "orders", [default_order_set(), OrderSet([2.0, 4.0])], ids=["default", "2-4"]
)
def test_random_script_computes_each_true_curve_once(monkeypatch, orders):
    mechs = []

    def counting(mech, on):
        mechs.append(mech)
        return discrete_rdp_curve(mech, on)

    monkeypatch.setattr(oracle, "discrete_rdp_curve", counting)
    rng = random.Random(3)
    for _ in range(20):
        mechs.clear()
        script = random_script(rng, orders)
        assert sorted(map(id, mechs)) == sorted(id(n.mech) for n in _nodes(script.root))


def test_a_seeded_corpus_validates_again_from_its_root():
    # the curves random_script hands to validation are the ones validation
    # would compute: each script, validated from scratch, loads as it was
    for orders in (default_order_set(), OrderSet([2.0, 4.0])):
        rng = random.Random(1)
        for _ in range(30):
            script = random_script(rng, orders)
            for node in _nodes(script.root):
                true = discrete_rdp_curve(node.mech, orders).values
                assert all(d >= t for d, t in zip(node.request.values, true))
            assert AdversaryScript(root=script.root) == script
