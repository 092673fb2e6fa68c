import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from windows import CountingCurve, drifting_run, hexes, repeat_sum

from rdpmeter import filters
from rdpmeter.core import OrderSet, RdpCurve, curve_to_dp
from rdpmeter.filters import (
    Decision,
    new_filter,
    new_filter_from_dp_target,
    remaining,
    try_spend,
    try_spend_run,
)
from rdpmeter.harness import (
    FILTER,
    ScheduleReplay,
    ScheduleStep,
    SessionConfig,
    SessionLog,
    reconstruct,
    run_session,
)
from rdpmeter.mechanisms import RawCurve

GRANT, PASS = Decision.GRANT, Decision.PASS


def curve(**kv):
    return RdpCurve.from_mapping({float(k[1:]): v for k, v in kv.items()})


# ----------------------------------------------------------------- basics


def test_fresh_filter_state():
    f = new_filter(curve(a2=1.0))
    assert f.spent.is_zero()
    assert remaining(f) == f.cap


def test_single_order_grant_pass_sequence():
    f = new_filter(curve(a2=1.0))
    assert try_spend(f, curve(a2=0.4)) is Decision.GRANT
    assert try_spend(f, curve(a2=0.5)) is Decision.GRANT
    # 0.9 + 0.2 > 1.0 at the only order
    assert try_spend(f, curve(a2=0.2)) is Decision.PASS
    assert f.spent.value(2.0) == pytest.approx(0.9)
    # later smaller request fits again
    assert try_spend(f, curve(a2=0.1)) is Decision.GRANT
    assert f.spent.value(2.0) == pytest.approx(1.0)


def test_two_order_grant_needs_only_one_surviving_order():
    f = new_filter(curve(a2=1.0, a4=3.0))
    assert try_spend(f, curve(a2=1.2, a4=2.0)) is Decision.GRANT  # fits at 4
    assert try_spend(f, curve(a2=0.1, a4=1.5)) is Decision.PASS
    assert f.spent.value(2.0) == 1.2
    assert f.spent.value(4.0) == 2.0


def test_request_exactly_on_cap_is_granted():
    f = new_filter(curve(a2=1.0))
    assert try_spend(f, curve(a2=1.0)) is Decision.GRANT
    assert f.spent.value(2.0) == 1.0
    assert remaining(f).value(2.0) == 0.0


def test_grant_adds_at_every_order_even_over_cap():
    f = new_filter(curve(a2=0.5, a4=10.0))
    try_spend(f, curve(a2=3.0, a4=1.0))
    assert f.spent.value(2.0) == 3.0
    assert remaining(f).value(2.0) == 0.0  # clamped, never negative


def test_pass_leaves_spent_bit_identical():
    f = new_filter(curve(a2=1.0, a4=1.0))
    try_spend(f, curve(a2=0.7, a4=0.9))
    before = f.spent.values
    assert try_spend(f, curve(a2=5.0, a4=5.0)) is Decision.PASS
    assert f.spent.values == before


def test_order_set_mismatch_rejected():
    f = new_filter(curve(a2=1.0))
    with pytest.raises(ValueError):
        try_spend(f, curve(a4=0.1))


@pytest.mark.parametrize("passed_once", [False, True])
def test_failed_try_spend_leaves_the_state_unchanged(passed_once):
    orders = OrderSet([2.0, 32.0])
    f = new_filter(RdpCurve(orders, (1.0, 1.0)))
    granted = RdpCurve(orders, (0.25, 0.125))
    for _ in range(3):  # the second GRANT opens a window, the third is in it
        assert try_spend(f, granted) is Decision.GRANT
    if passed_once:
        assert try_spend(f, RdpCurve(orders, (2.0, 2.0))) is Decision.PASS

    def snapshot():
        # _totals, not spent: reading spent would add the pending send
        return (
            hexes(f._totals),
            f._passed_once,
            id(f._last),
            f._safe,
            f._pending,
        )

    before = snapshot()
    assert before[3:] == ((-1, 0) if passed_once else (4, 1))
    with pytest.raises(ValueError, match="different order set"):
        try_spend(f, RdpCurve.from_mapping({2.0: 0.1, 4.0: 0.1}))
    assert snapshot() == before
    # the accountant still works after the refused call
    assert try_spend(f, RdpCurve(orders, (0.5, 0.0))) is Decision.GRANT
    assert f.spent.values == (1.25, 0.375)


def test_a_repeated_denial_does_no_per_order_work():
    f = new_filter(curve(a2=1.0, a4=1.0))
    request = CountingCurve(f.orders, (2.0, 2.0))
    assert try_spend(f, request) is Decision.PASS
    reads = CountingCurve.reads
    assert reads > 0
    for _ in range(3):
        assert try_spend(f, request) is Decision.PASS
    assert CountingCurve.reads == reads
    # an equal but distinct object is tested in full
    assert try_spend(f, CountingCurve(f.orders, (2.0, 2.0))) is Decision.PASS
    assert CountingCurve.reads > reads


def test_a_grant_forgets_the_last_denial():
    f = new_filter(curve(a2=1.0))
    small, large = curve(a2=0.25), CountingCurve(f.orders, (0.9,))
    assert try_spend(f, small) is Decision.GRANT
    assert try_spend(f, large) is Decision.PASS
    reads = CountingCurve.reads
    assert try_spend(f, large) is Decision.PASS
    assert CountingCurve.reads == reads
    assert try_spend(f, small) is Decision.GRANT
    # the GRANT of another object ended the window: tested in full
    assert try_spend(f, large) is Decision.PASS
    assert CountingCurve.reads > reads
    assert f.spent.value(2.0) == 0.5


def test_sealed_filter_denies_everything_after_first_pass():
    f = new_filter(curve(a2=1.0), sealed=True)
    assert try_spend(f, curve(a2=0.8)) is Decision.GRANT
    assert try_spend(f, curve(a2=0.5)) is Decision.PASS
    # would fit, but the filter is sealed now
    assert try_spend(f, curve(a2=0.1)) is Decision.PASS
    assert f.spent.value(2.0) == 0.8


def test_dp_target_filter_frozen_cap():
    f = new_filter_from_dp_target(12.512925464970229, 1e-5, OrderSet([2.0]))
    assert f.cap.value(2.0) == pytest.approx(1.0, abs=1e-12)
    g = new_filter_from_dp_target(2.0, 1e-5, OrderSet([16.0, 32.0]))
    assert g.cap.value(16.0) == pytest.approx(1.2324716356686514, abs=1e-12)
    assert g.cap.value(32.0) == pytest.approx(1.6286153075816054, abs=1e-12)


# -------------------------------------------------------------- invariants


@st.composite
def request_sequences(draw):
    n_orders = draw(st.integers(min_value=1, max_value=4))
    orders = OrderSet([1.5 * 2.0**i for i in range(n_orders)])
    cap = RdpCurve(
        orders,
        tuple(
            draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
            for _ in range(n_orders)
        ),
    )
    requests = draw(
        st.lists(
            st.tuples(
                *[
                    st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
                    for _ in range(n_orders)
                ]
            ),
            max_size=30,
        )
    )
    return cap, [RdpCurve(orders, r) for r in requests]


@given(request_sequences())
def test_safety_some_order_stays_within_cap(case):
    cap, requests = case
    f = new_filter(cap)
    for r in requests:
        try_spend(f, r)
        assert any(
            s <= c for s, c in zip(f.spent.values, cap.values)
        ), "no order within cap after a grant sequence"


@given(request_sequences())
def test_decision_depends_only_on_spent_request_cap(case):
    cap, requests = case
    f = new_filter(cap)
    for r in requests:
        spent_before = f.spent
        decision = try_spend(f, r)
        # recompute from the three inputs alone
        fits = any(
            s + q <= c
            for s, q, c in zip(spent_before.values, r.values, cap.values)
        )
        assert decision is (Decision.GRANT if fits else Decision.PASS)


def _reference_try_spend(state, request):
    """try_spend as it was before its per-order work ran in map passes: a
    generator for the test and an indexed += for the grant. Kept as the
    reference the current form must match bit for bit."""
    if request.orders.orders != state.cap.orders.orders:
        raise ValueError("request curve is defined over a different order set")
    if state.sealed and state._passed_once:
        decision = Decision.PASS
    else:
        fits = any(
            s + r <= c
            for s, r, c in zip(state._spent, request.values, state.cap.values)
        )
        decision = Decision.GRANT if fits else Decision.PASS
    if decision is Decision.GRANT:
        for i, r in enumerate(request.values):
            state._spent[i] += r
    else:
        state._passed_once = True
    return decision


_AMOUNTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=1e-300),
)


_CAPS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=1e-300),
)


# what a caller may read between sends: each must see the totals the
# sends so far give, whether a window has deferred some of them or not
_READS = (
    lambda f: hexes(f.spent.values),
    lambda f: hexes(remaining(f).values),
    lambda f: hexes(f._spent),
)


@settings(max_examples=300)
@given(st.data())
def test_try_spend_matches_the_reference_bit_for_bit(data):
    n_orders = data.draw(st.integers(min_value=1, max_value=5))
    orders = OrderSet([1.5 * 2.0**i for i in range(n_orders)])
    cap = RdpCurve(orders, tuple(data.draw(_CAPS) for _ in range(n_orders)))
    sealed = data.draw(st.booleans())
    f, ref = new_filter(cap, sealed=sealed), new_filter(cap, sealed=sealed)
    sent = []
    passed = None  # the request object the reference last PASSed
    budget = 3000  # sends per example
    for _ in range(data.draw(st.integers(min_value=0, max_value=40))):
        if sent and data.draw(st.booleans()):
            # the same object again: the last one, which repeats a PASS or
            # a GRANT (a window), the one last PASSed, whose window a GRANT
            # of another object may have ended, or an earlier one
            pick = data.draw(st.sampled_from(["last", "passed", "any"]))
            if pick == "last":
                request = sent[-1]
            elif pick == "passed" and passed is not None:
                request = passed
            else:
                request = data.draw(st.sampled_from(sent))
        else:
            values = [data.draw(_AMOUNTS) for _ in range(n_orders)]
            if data.draw(st.booleans()):
                # aim at the cap at one order: the gap left, or an ulp
                # either side
                k = data.draw(st.integers(min_value=0, max_value=n_orders - 1))
                gap = cap.values[k] - ref._spent[k]
                step = data.draw(st.sampled_from([0.0, math.inf, -math.inf]))
                values[k] = max(0.0, gap if step == 0.0 else math.nextafter(gap, step))
            request = RdpCurve(orders, tuple(values))
            sent.append(request)
        # sent once, or in a run long enough to open a window, run it out
        # or have it cut short, with one read somewhere in the run
        run = min(budget, data.draw(st.sampled_from([1, 1, 1, 2, 3, 17, 300, 2000])))
        budget -= run
        read_at = data.draw(st.integers(min_value=0, max_value=run))
        read = data.draw(st.sampled_from(_READS))
        for k in range(run):
            if k == read_at:
                assert read(f) == read(ref)
            decision = _reference_try_spend(ref, request)
            assert try_spend(f, request) is decision
            if decision is Decision.PASS:
                passed = request
        assert hexes(f.spent.values) == hexes(ref.spent.values)
        assert f._passed_once == ref._passed_once


@settings(max_examples=300)
@given(st.data())
def test_a_run_matches_k_sends_bit_for_bit(data):
    # try_spend_run(f, request, k) against k calls of try_spend on a twin,
    # sealed or not: runs of a share of the cap, so long ones cross it,
    # runs of one object again, which start mid-window or after its PASS,
    # and runs after another object's PASS; the totals are read after
    # some runs only, so others start with sends still pending
    n_orders = data.draw(st.integers(min_value=1, max_value=4))
    orders = OrderSet([1.5 * 2.0**i for i in range(n_orders)])
    cap = RdpCurve(orders, tuple(data.draw(_CAPS) for _ in range(n_orders)))
    sealed = data.draw(st.booleans())
    f, twin = new_filter(cap, sealed=sealed), new_filter(cap, sealed=sealed)
    pool = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if data.draw(st.booleans()):
            share = data.draw(st.sampled_from([1.0, 0.5, 1 / 3, 0.01, 1e-3]))
            values = tuple(c * share for c in cap.values)
        else:
            values = tuple(data.draw(_AMOUNTS) for _ in range(n_orders))
        pool.append(RdpCurve(orders, values))
    budget = 3000  # sends per example
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        request = data.draw(st.sampled_from(pool))
        k = min(budget, data.draw(st.sampled_from([0, 1, 2, 3, 17, 300, 2000])))
        budget -= k
        decisions = [try_spend(twin, request) for _ in range(k)]
        g = try_spend_run(f, request, k)
        assert decisions == [GRANT] * g + [PASS] * (k - g)
        assert (f._last, f._safe, f._pending) == (twin._last, twin._safe, twin._pending)
        if data.draw(st.booleans()):
            assert hexes(f._spent) == hexes(twin._spent)
    assert hexes(f._spent) == hexes(twin._spent)
    assert f == twin


def test_a_run_is_decided_in_full_only_where_no_window_counts(monkeypatch):
    # 2,000 sends of one request take a handful of full decisions
    import rdpmeter.filters as filters

    calls = []
    original = filters.try_spend
    monkeypatch.setattr(
        filters, "try_spend", lambda s, r: calls.append(r) or original(s, r)
    )
    f = new_filter(curve(a2=1000.0, a4=10.0))
    request = curve(a2=1.0, a4=1.0)
    assert try_spend_run(f, request, 2000) == 1000
    assert 2 <= len(calls) <= 10
    assert f.spent.values == (1000.0, 1000.0)
    assert f._safe == -1  # a repeat is PASSed at once
    assert try_spend_run(f, request, 5) == 0 and len(calls) <= 10


@pytest.mark.parametrize("k", [-3, -1, True, False])
def test_a_run_of_negative_or_bool_length_is_refused(k):
    f = new_filter(curve(a2=100.0, a4=100.0))
    request = curve(a2=0.5, a4=0.25)
    assert try_spend_run(f, request, 3) == 3  # a window is open, a send pending
    assert f._safe > 0 and f._pending == 1

    def snapshot():
        return (hexes(f._totals), f._passed_once, f._last, f._safe, f._pending)

    before = snapshot()
    with pytest.raises(ValueError, match=f"run length k .*got {k!r}$"):
        try_spend_run(f, request, k)
    assert snapshot() == before
    assert try_spend_run(f, request, 0) == 0
    assert snapshot() == before


@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_a_window_ends_where_the_full_test_does(ulps):
    # the k-th repeat lands one ulp below, on or one ulp above the cap
    k = 100
    bound = 12.25
    a, r = drifting_run(bound, bound + ulps * math.ulp(bound), k)
    # without the slack the window opened after the second repeat would
    # cover the k-th
    second = a + r + r
    assert math.floor((bound - second) / r) >= k - 2
    orders = OrderSet([2.0])
    f, ref = new_filter(curve(a2=bound)), new_filter(curve(a2=bound))
    start, request = RdpCurve(orders, (a,)), RdpCurve(orders, (r,))
    for state in (f, ref):
        assert try_spend(state, start) is Decision.GRANT
    decisions = []
    for _ in range(k + 3):
        decisions.append(try_spend(f, request))
        assert decisions[-1] is _reference_try_spend(ref, request)
    assert decisions.count(Decision.GRANT) == (k if ulps <= 0 else k - 1)
    assert hexes(f.spent.values) == hexes(ref.spent.values)


def test_an_order_with_a_zero_request_that_fits_grants_every_repeat():
    # order 2 has cap 0 and request 0: it fits for good, so the window is
    # as long as it can be, while order 4 passes its cap
    f, ref = new_filter(curve(a2=0.0, a4=1.0)), new_filter(curve(a2=0.0, a4=1.0))
    request = curve(a2=0.0, a4=0.3)
    for _ in range(3000):
        assert try_spend(f, request) is Decision.GRANT
        _reference_try_spend(ref, request)
    assert f._safe == 2**20 - 2998
    assert hexes(f.spent.values) == hexes(ref.spent.values)
    assert f.spent.value(4.0) > 800.0


def test_a_repeated_grant_does_no_per_order_work():
    f = new_filter(curve(a2=100.0, a4=100.0))
    request = CountingCurve(f.orders, (0.1, 0.2))
    for _ in range(2):  # the second GRANT of the object opens the window
        assert try_spend(f, request) is Decision.GRANT
    reads = CountingCurve.reads
    for _ in range(300):
        assert try_spend(f, request) is Decision.GRANT
    assert CountingCurve.reads == reads
    # the totals are read once, and the 300 sums are made then
    assert f.spent.values == (repeat_sum(0.0, 0.1, 302), repeat_sum(0.0, 0.2, 302))
    assert CountingCurve.reads == reads + 1


def test_pending_sends_compare_equal_and_print_like_added_ones():
    cap = curve(a2=100.0, a4=100.0)
    request = curve(a2=0.1, a4=0.2)
    f, g = new_filter(cap), new_filter(cap)
    for _ in range(250):
        try_spend(f, request)
        try_spend(g, request)
        g._spent  # g adds each send as it comes
    assert f._pending > 0 and g._pending == 0
    assert repr(f) == repr(g)
    assert f == g
    try_spend(f, request)
    assert f != g


@pytest.mark.parametrize("every", [200, 1500])
@pytest.mark.parametrize("start", [0.0, 40.0])
def test_long_windows_read_like_a_per_call_twin(start, every, monkeypatch):
    # windows of 200 and 1,500 sends, read from zero and from mid-session,
    # so their sums take both the loop and `_add_repeated`; at order 8 the
    # request is a tie on the grid of [32, 64)
    closed, real = [], filters._add_repeated

    def counted(s, r, k):
        closed.append(k)
        return real(s, r, k)

    monkeypatch.setattr(filters, "_add_repeated", counted)
    cap = curve(a2=1000.0, a4=1000.0, a8=1000.0)
    f, ref = new_filter(cap), new_filter(cap)
    if start:
        for state in (f, ref):
            try_spend(state, curve(a2=start, a4=start, a8=start))
    request = curve(a2=0.01, a4=0.03, a8=1.5 * math.ulp(40.0))
    for n in range(1, 3 * every + 1):
        assert try_spend(f, request) is _reference_try_spend(ref, request)
        if n % every == 0:
            assert f._pending >= every - 2
            assert hexes(f.spent.values) == hexes(ref.spent.values)
    assert closed


def test_a_pass_of_another_object_ends_a_window_of_grants():
    f = new_filter(curve(a2=100.0))
    request = CountingCurve(f.orders, (1.0,))
    for _ in range(10):
        assert try_spend(f, request) is Decision.GRANT
    assert try_spend(f, curve(a2=500.0)) is Decision.PASS
    reads = CountingCurve.reads
    assert try_spend(f, request) is Decision.GRANT
    assert CountingCurve.reads > reads
    assert f.spent.values == (repeat_sum(0.0, 1.0, 11),)


def _send(f, ref, request, times):
    """Send request `times` times to f and to the reference ref; return
    the decisions."""
    decisions = []
    for _ in range(times):
        decisions.append(try_spend(f, request))
        assert decisions[-1] is _reference_try_spend(ref, request)
    assert hexes(f.spent.values) == hexes(ref.spent.values)
    assert f._passed_once == ref._passed_once
    return decisions


def test_grant_a_pass_b_then_a_again_matches_the_reference():
    cap = curve(a2=10.0, a4=10.0)
    f, ref = new_filter(cap), new_filter(cap)
    a, b = curve(a2=1.0, a4=0.5), curve(a2=20.0, a4=20.0)
    assert _send(f, ref, a, 3) == [GRANT] * 3  # a window of GRANTs
    assert _send(f, ref, b, 2) == [PASS] * 2
    # a's window is gone; a is tested in full, then a new window runs to
    # the cap at order 4
    assert _send(f, ref, a, 20) == [GRANT] * 17 + [PASS] * 3
    assert _send(f, ref, b, 1) == [PASS]
    assert f.spent.values == (20.0, 10.0)


def test_a_sealed_filters_repeated_pass_matches_the_reference():
    cap = curve(a2=1.0)
    f, ref = new_filter(cap, sealed=True), new_filter(cap, sealed=True)
    small, large = curve(a2=0.25), curve(a2=0.9)
    assert _send(f, ref, small, 2) == [GRANT] * 2
    assert _send(f, ref, large, 3) == [PASS] * 3
    # would fit, but the filter is sealed
    assert _send(f, ref, small, 3) == [PASS] * 3
    assert _send(f, ref, large, 2) == [PASS] * 2
    assert f.spent.values == (0.5,)


def test_safety_under_ten_thousand_random_requests():
    import random

    rng = random.Random(42)
    orders = OrderSet([2.0, 4.0, 8.0])
    cap = RdpCurve(orders, (2.0, 5.0, 11.0))
    f = new_filter(cap)
    for _ in range(10_000):
        r = RdpCurve(orders, tuple(rng.uniform(0.0, 0.03) for _ in range(3)))
        try_spend(f, r)
    assert any(s <= c for s, c in zip(f.spent.values, cap.values))
    # singleton-order filter: spent never exceeds cap at all
    g = new_filter(curve(a2=1.0))
    for _ in range(10_000):
        try_spend(g, curve(a2=rng.uniform(0.0, 0.01)))
    assert g.spent.value(2.0) <= 1.0


def test_spent_equals_sum_of_granted_requests():
    f = new_filter(curve(a2=1.0, a4=2.0))
    total = [0.0, 0.0]
    decisions = []
    for v in (0.3, 0.9, 0.4, 0.2):
        request = curve(a2=v, a4=v * 2.0)
        decisions.append(try_spend(f, request))
        if decisions[-1] is Decision.GRANT:
            total[0] += request.values[0]
            total[1] += request.values[1]
    assert Decision.PASS in decisions
    assert f.spent.values == tuple(total)


def test_state_does_not_grow_with_queries():
    # decisions need only cap, spent and the sealed flag; the per-query
    # record is the session log, so the accountant itself stays flat
    orders = OrderSet([2.0, 4.0, 8.0])
    f = new_filter(RdpCurve(orders, (1.0, 2.0, 3.0)))
    request = RdpCurve(orders, (1e-4, 2e-4, 4e-4))
    for _ in range(100):
        try_spend(f, request)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            try_spend(f, request)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024


# ------------------------------------------------------------ session logs


def _session(cap: RdpCurve, *values: float) -> SessionLog:
    steps = tuple(ScheduleStep(RawCurve(curve(a2=v))) for v in values)
    return run_session(
        SessionConfig(
            mode=FILTER,
            orders=cap.orders,
            delta=1e-5,
            seed=0,
            source=ScheduleReplay(steps=steps),
            cap=cap,
        )
    )


def test_event_log_round_trip_and_replay():
    log = _session(curve(a2=1.0), 0.4, 0.5, 0.2, 0.1)
    assert [r["decision"] for r in log.events] == ["GRANT", "GRANT", "PASS", "GRANT"]
    assert [r["i"] for r in log.events] == [1, 2, 3, 4]
    rebuilt = reconstruct(SessionLog.from_jsonl(log.to_jsonl()))
    assert rebuilt.spent.values == log.final_state.spent.values


def test_replay_rejects_inconsistent_log():
    log = _session(curve(a2=1.0), 0.4, 0.4)
    record = {"request": curve(a2=5.0).to_json(), "decision": "GRANT"}
    log.records[1:] = [dict(record, i=1), dict(record, i=2)]
    with pytest.raises(ValueError, match="replay decides"):
        reconstruct(log)  # second grant impossible


def test_event_json_schema():
    log = _session(curve(a2=1.0), 0.4, 0.5, 0.25)
    assert log.records[3] == {
        "i": 3,
        "request": {"orders": [2.0], "eps": [0.25]},
        "decision": "PASS",
    }
    assert log.to_jsonl().splitlines()[3] == (
        '{"i": 3, "request": {"orders": [2.0], "eps": [0.25]}, "decision": "PASS"}'
    )


# ----------------------------------------------- dp-target round trip


@settings(max_examples=200)
@given(
    st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    st.floats(min_value=1e-8, max_value=0.01, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_granted_spend_converts_within_dp_target(eps_dp, delta, seed):
    import math
    import random

    orders = OrderSet([2.0, 8.0, 32.0])
    # ensure the target is achievable at the largest order
    if eps_dp <= math.log(1.0 / delta) / 31.0:
        eps_dp = math.log(1.0 / delta) / 31.0 + 0.5
    f = new_filter_from_dp_target(eps_dp, delta, orders)
    rng = random.Random(seed)
    for _ in range(20):
        # mechanism-shaped request: linear in alpha like a Gaussian curve
        rate = rng.uniform(0.0, eps_dp / 8.0)
        try_spend(f, RdpCurve(orders, tuple(rate * a for a in orders)))
    assert curve_to_dp(f.spent, delta).epsilon <= eps_dp
