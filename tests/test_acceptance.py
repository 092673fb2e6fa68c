"""Acceptance gate: eight product-level criteria, one test each.

Every test prints a single pass/fail line (routed past pytest's capture so
the verdicts always appear in the run output) and then asserts, so a red
criterion fails loudly with its numbers attached.
"""

import math
import random
import time

import pytest

from rdpmeter.core import (
    OrderSet,
    RdpCurve,
    curve_to_dp,
    default_order_set,
)
from rdpmeter.filters import new_filter, new_filter_from_dp_target, try_spend
from rdpmeter.harness import (
    FILTER,
    ODOMETER,
    ScheduleReplay,
    ScheduleStep,
    SessionConfig,
    SessionLog,
    export,
    reconstruct,
    run_session,
)
from rdpmeter.mechanisms import (
    DiscreteMechanism,
    GaussianMechanism,
    discrete_rdp_curve,
    gaussian_rdp_curve,
)
from rdpmeter.odometers import (
    FilterSchedule,
    bound_candidates,
    early_stopping_bound,
    new_odometer,
    running_bound,
    spend,
)
from rdpmeter.oracle import (
    AdversaryScript,
    ScriptNode,
    numeric_renyi_gaussian,
    random_script,
    verify_filter_bound,
    verify_truncated_odometer,
)

CORPUS_SEED = 20260819
CORPUS_ORDER_SETS = (
    OrderSet([2.0]),
    OrderSet([2.0, 4.0]),
    OrderSet([1.5, 3.0, 8.0]),
    OrderSet([2.0, 16.0, 32.0]),
)
SCRIPTS_PER_ORDER_SET = 30


@pytest.fixture
def verdict(capsys):
    """Print one pass/fail line per criterion, bypassing pytest capture."""

    def emit(n: int, ok: bool, detail: str) -> None:
        line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)

    return emit


def _worst_path_total(script: AdversaryScript, orders: OrderSet) -> list[float]:
    """Largest declared spend over any root-to-leaf path, per order."""

    def walk(node):
        if node is None:
            return [0.0] * len(orders)
        best = [0.0] * len(orders)
        for child in node.children.values():
            best = [max(b, s) for b, s in zip(best, walk(child))]
        return [r + b for r, b in zip(node.request.values, best)]

    return walk(script.root)


def _single_honest_query(rng, orders):
    """One honestly declared query with the cap exactly at its true curve.

    The realized view divergence equals the declared budget here, so the
    filter bound is tested right on the boundary where only the stated
    tolerance keeps it green.
    """
    n = rng.randint(2, 4)
    probs = []
    for _ in range(2):
        w = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = math.fsum(w)
        probs.append(tuple(x / total for x in w))
    mech = DiscreteMechanism(
        tuple(f"v{i}" for i in range(n)), probs[0], probs[1]
    )
    curve = discrete_rdp_curve(mech, orders)
    script = AdversaryScript(root=ScriptNode(mech=mech, request=curve))
    return script, curve


@pytest.fixture(scope="module")
def corpus():
    """128 adaptive scripts (depth <= 4, <= 4 outcomes) with random caps."""
    rng = random.Random(CORPUS_SEED)
    entries = []
    for orders in CORPUS_ORDER_SETS:
        for _ in range(2):
            script, cap = _single_honest_query(rng, orders)
            entries.append((orders, script, cap))
        for k in range(SCRIPTS_PER_ORDER_SET):
            script = random_script(rng, orders, max_depth=4, max_outcomes=4)
            totals = _worst_path_total(script, orders)
            if k % 5 == 0:
                # cap exactly at the declared worst-path total: everything
                # is grantable and honest declarations sit on the boundary
                cap = RdpCurve(orders, tuple(totals))
            else:
                cap = RdpCurve(
                    orders, tuple(rng.uniform(0.0, 1.2) * t for t in totals)
                )
            entries.append((orders, script, cap))
    return entries


def test_criterion_1_adaptive_corpus_respects_filter_caps(corpus, verdict):
    start = time.perf_counter()
    worst_margin = math.inf
    for orders, script, cap in corpus:
        report = verify_filter_bound(script, cap)
        witness_margin = max(report.margins)
        worst_margin = min(worst_margin, witness_margin)
        assert report.ok, (
            f"cap violated at every order: margins {report.margins}"
        )
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-9 and elapsed < 30.0
    verdict(
        1,
        ok,
        f"{len(corpus)} scripts over {len(CORPUS_ORDER_SETS)} order sets, "
        f"worst witness margin {worst_margin:.3e}, {elapsed:.2f}s",
    )
    assert worst_margin >= -1e-9
    assert elapsed < 30.0


def test_criterion_2_truncated_views_stay_under_levels(corpus, verdict):
    start = time.perf_counter()
    delta = 0.05
    worst_margin = math.inf
    checks = 0
    for orders, script, _cap in corpus:
        schedule = FilterSchedule(delta=delta, orders=orders)
        for f in (1, 2, 3):
            report = verify_truncated_odometer(script, schedule, f)
            worst_margin = min(worst_margin, min(report.margins))
            checks += 1
            assert report.ok, (
                f"level {f} violated: margins {report.margins}"
            )
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-9 and elapsed < 60.0
    verdict(
        2,
        ok,
        f"{checks} script-level checks (f in 1..3), worst margin "
        f"{worst_margin:.3e}, {elapsed:.2f}s",
    )
    assert worst_margin >= -1e-9
    assert elapsed < 60.0


def test_criterion_3_gaussian_curve_matches_quadrature(verdict):
    start = time.perf_counter()
    orders = default_order_set()
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0, 4.0):
        closed = gaussian_rdp_curve(GaussianMechanism(sigma, 1.0), orders)
        for i, alpha in enumerate(orders):
            numeric = numeric_renyi_gaussian(sigma, 1.0, alpha)
            worst = max(worst, abs(closed.values[i] - numeric))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    verdict(
        3,
        ok,
        f"4 sigmas x {len(orders)} orders, worst abs err {worst:.3e}, "
        f"{elapsed:.2f}s",
    )
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_4_granted_spend_converts_within_target(verdict):
    start = time.perf_counter()
    rng = random.Random(41)
    orders = default_order_set()
    alphas = tuple(orders)
    floor = min(1.0 / (a - 1.0) for a in alphas)  # multiplies ln(1/delta)
    worst_slack = math.inf
    for _ in range(1000):
        delta = 10.0 ** rng.uniform(-8.0, -1.0)
        eps_dp = math.log(1.0 / delta) * floor + rng.uniform(0.01, 10.0)
        state = new_filter_from_dp_target(eps_dp, delta, orders)
        for _ in range(rng.randint(1, 15)):
            c = rng.uniform(1e-4, 0.5)
            request = RdpCurve(orders, tuple(c * a for a in alphas))
            try_spend(state, request)
        eps = curve_to_dp(state.spent, delta).epsilon
        worst_slack = min(worst_slack, eps_dp - eps)
        assert eps <= eps_dp, f"target {eps_dp} delta {delta} converted {eps}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    verdict(
        4,
        ok,
        f"1000 targets, smallest target-minus-converted slack "
        f"{worst_slack:.3e}, {elapsed:.2f}s",
    )
    assert elapsed < 5.0


def test_criterion_5_odometer_candidates_at_order_32(verdict):
    orders = default_order_set()
    state = new_odometer(1e-5, orders)
    fresh = bound_candidates(state)[32.0]
    spend(state, RdpCurve(orders, (0.6,) * len(orders)))
    after = bound_candidates(state)[32.0]
    ok = abs(fresh - 1.022172) <= 1e-5 and abs(after - 1.577977) <= 1e-5
    verdict(
        5,
        ok,
        f"fresh candidate {fresh:.6f} (want 1.022172), after 0.6 spend "
        f"{after:.6f} (want 1.577977)",
    )
    assert fresh == pytest.approx(1.022172, abs=1e-5)
    assert after == pytest.approx(1.577977, abs=1e-5)


def test_criterion_6_bound_monotone_and_filter_witness_holds(verdict):
    rng = random.Random(6)
    orders = default_order_set()
    alphas = tuple(orders)
    odometer = new_odometer(1e-5, orders)
    # total spend lands near 8*alpha + 2, so caps of 1x..3x alpha saturate
    # partway through and the run mixes grants with denials
    cap = RdpCurve(orders, tuple(rng.uniform(1.0, 3.0) * a for a in alphas))
    filt = new_filter(cap)
    prev = running_bound(odometer).eps_dp
    steps = 100_000
    denials = 0
    for _ in range(steps):
        c = rng.uniform(0.0, 2e-4)
        if rng.random() < 0.2:
            request = RdpCurve(orders, (c,) * len(alphas))
        else:
            request = RdpCurve(orders, tuple(c * a for a in alphas))
        spend(odometer, request)
        current = running_bound(odometer).eps_dp
        assert current >= prev, f"bound regressed {prev} -> {current}"
        prev = current
        if try_spend(filt, request).value == "PASS":
            denials += 1
        assert any(
            s <= cv for s, cv in zip(filt._spent, cap.values)
        ), "no order left under the cap"
    ok = denials > 0
    verdict(
        6,
        ok,
        f"{steps} spends, final bound {prev:.3f} nondecreasing throughout, "
        f"{denials} denials, witness order always under cap",
    )
    assert denials > 0, "cap never saturated; witness check was vacuous"


def test_criterion_7_early_stopping_value_and_monotonicity(verdict):
    single = OrderSet([2.0])
    steps = [RdpCurve(single, (0.1,))] * 3
    got = early_stopping_bound(steps, 3, 1e-5).epsilon
    value_ok = abs(got - 14.703298) <= 1e-5

    rng = random.Random(7)
    order_pool = [OrderSet([2.0]), OrderSet([2.0, 4.0]), OrderSet([1.5, 8.0])]
    monotone = True
    for _ in range(1000):
        orders = rng.choice(order_pool)
        n = rng.randint(1, 8)
        schedule = [
            RdpCurve(
                orders,
                tuple(rng.uniform(0.0, 2.0) for _ in range(len(orders))),
            )
            for _ in range(n)
        ]
        delta = 10.0 ** rng.uniform(-6.0, -1.0)
        bounds = [
            early_stopping_bound(schedule, s, delta).epsilon
            for s in range(1, n + 1)
        ]
        if any(b > a for a, b in zip(bounds[1:], bounds[:-1])):
            monotone = False
            break
    ok = value_ok and monotone
    verdict(
        7,
        ok,
        f"three 0.1 steps at order 2 give {got:.6f} (want 14.703298); "
        f"nondecreasing in s over 1000 random schedules: {monotone}",
    )
    assert value_ok
    assert monotone


def test_criterion_8_session_logs_replay_bit_identically(tmp_path, verdict):
    rng = random.Random(8)
    orders_pool = [OrderSet([2.0, 4.0]), OrderSet([1.5, 2.0, 8.0])]
    sessions = 0
    for trial in range(12):
        orders = rng.choice(orders_pool)
        seed = rng.randrange(2**32)
        if trial % 2 == 0:
            source = ScheduleReplay(
                steps=tuple(
                    ScheduleStep(GaussianMechanism(rng.uniform(0.5, 3.0)), 1)
                    for _ in range(rng.randint(1, 6))
                )
            )
            config = SessionConfig(
                mode=ODOMETER,
                orders=orders,
                delta=1e-5,
                seed=seed,
                source=source,
            )
        else:
            script = random_script(rng, orders, max_depth=3, max_outcomes=3)
            totals = _worst_path_total(script, orders)
            cap = RdpCurve(
                orders, tuple(rng.uniform(0.3, 1.2) * t for t in totals)
            )
            config = SessionConfig(
                mode=FILTER,
                orders=orders,
                delta=1e-5,
                seed=seed,
                source=script,
                cap=cap,
            )
        first = run_session(config)
        second = run_session(config)
        assert first.to_jsonl().encode() == second.to_jsonl().encode()

        path = tmp_path / f"session_{trial}.jsonl"
        export(first, "json", str(path))
        exported = SessionLog.from_jsonl(path.read_text())
        rebuilt = reconstruct(exported)
        live = first.final_state
        assert rebuilt.spent.values == live.spent.values
        if config.mode == ODOMETER:
            assert rebuilt._f == live._f
            assert running_bound(rebuilt) == running_bound(live)
        else:
            assert rebuilt.cap == live.cap
            assert [r["decision"] for r in exported.events] == [
                r["decision"] for r in first.events
            ]
        sessions += 1
    ok = True
    verdict(
        8,
        ok,
        f"{sessions} seeded sessions byte-identical on rerun and "
        f"bit-identical after export/reconstruct",
    )
