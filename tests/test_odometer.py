import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from windows import CountingCurve, drifting_run, hexes, repeat_sum

from rdpmeter import filters, odometers
from rdpmeter.core import OrderSet, RdpCurve, default_order_set, rdp_to_dp
from rdpmeter.harness import ScheduleReplay, ScheduleStep, SessionConfig, run_session
from rdpmeter.mechanisms import GaussianMechanism
from rdpmeter.odometers import (
    MAX_FILTER_INDEX,
    FilterSchedule,
    _bound,
    bound_candidates,
    early_stopping_bound,
    filter_index,
    new_odometer,
    running_bound,
    spend,
    spend_run,
    truncate,
)

DELTA = 1e-5


def curve(orders, *values):
    return RdpCurve(orders, tuple(values))


def filter_index_from_spent(schedule, spent, alpha):
    """From-scratch recomputation, for cross-checking the running index."""
    f = 1
    while spent > schedule.level(f, alpha):
        f += 1
    return f


# ---------------------------------------------------------------- schedule


def test_schedule_base_frozen_value():
    sched = FilterSchedule(delta=DELTA, orders=default_order_set())
    # ln(2 * 38 / 1e-5) / 31 = ln(7.6e6) / 31
    assert sched.level(1, 32.0) == pytest.approx(0.511085767911502, abs=1e-14)
    assert sched.level(1, 32.0) == math.log(7.6e6) / 31.0


def test_levels_double_exactly():
    sched = FilterSchedule(delta=DELTA, orders=OrderSet([1.5, 2.0, 32.0]))
    for alpha in sched.orders:
        for f in range(1, 51):
            assert sched.level(f + 1, alpha) == 2.0 * sched.level(f, alpha)
    assert sched.level(1, 2.0) == math.log(2.0 * 3 / DELTA) / (2.0 - 1.0)


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FilterSchedule(delta=0.0, orders=OrderSet([2.0]))
    with pytest.raises(ValueError):
        FilterSchedule(delta=1.0, orders=OrderSet([2.0]))
    sched = FilterSchedule(delta=DELTA, orders=OrderSet([2.0]))
    with pytest.raises(ValueError):
        sched.level(0, 2.0)
    with pytest.raises(ValueError):
        sched.level(MAX_FILTER_INDEX + 1, 2.0)
    for f in (True, 1.0):
        with pytest.raises(ValueError, match="filter index must be a positive integer"):
            sched.level(f, 2.0)


def test_schedule_rejects_a_delta_whose_log_argument_overflows():
    # 2*1*64^2/1e-320 is not finite; at 1e-300 every rung's is
    with pytest.raises(ValueError, match="too small"):
        FilterSchedule(delta=1e-320, orders=OrderSet([2.0]))
    orders = OrderSet([2.0])
    state = new_odometer(1e-300, orders)
    assert state.schedule.level(1, 2.0) == math.log(2.0 / 1e-300)
    top = state.schedule.level(MAX_FILTER_INDEX, 2.0)
    spend(state, curve(orders, top))
    assert filter_index(state, 2.0) == MAX_FILTER_INDEX
    assert math.isfinite(bound_candidates(state)[2.0])


# ------------------------------------------------------------------- spend


def test_spend_accumulates_and_never_refuses():
    orders = OrderSet([2.0])
    state = new_odometer(DELTA, orders)
    for _ in range(3):
        spend(state, curve(orders, 100.0))  # far beyond any filter cap
    assert state.spent.value(2.0) == 300.0
    assert state.step == 3


def test_state_does_not_grow_with_queries():
    # the bound needs only spent and the rung per order; the per-query
    # record is the session log, so the accountant itself stays flat
    orders = default_order_set()
    state = new_odometer(DELTA, orders)
    request = RdpCurve(orders, tuple(1e-6 * a for a in orders))
    for _ in range(100):
        spend(state, request)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            spend(state, request)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024


def test_zero_spend_changes_nothing_but_the_step():
    orders = OrderSet([2.0, 4.0])
    state = new_odometer(DELTA, orders)
    b0 = running_bound(state)
    spend(state, RdpCurve.zeros(orders))
    assert state.spent.is_zero()
    assert running_bound(state) == b0
    assert state.step == 1


def test_spend_order_mismatch_rejected():
    state = new_odometer(DELTA, OrderSet([2.0]))
    with pytest.raises(ValueError):
        spend(state, RdpCurve.from_mapping({4.0: 0.1}))


def test_ten_thousand_small_spends_sum_cleanly():
    orders = OrderSet([2.0])
    state = new_odometer(DELTA, orders)
    step = curve(orders, 1e-4)
    for _ in range(10_000):
        spend(state, step)
    assert abs(state.spent.value(2.0) - 1.0) < 1e-12


# ---------------------------------------------------------- filter index


def test_filter_index_fresh_is_one():
    state = new_odometer(DELTA, default_order_set())
    for alpha in state.orders:
        assert filter_index(state, alpha) == 1


def test_filter_index_frozen_example():
    orders = default_order_set()
    state = new_odometer(DELTA, orders)
    request = RdpCurve(orders, tuple(0.6 if a == 32.0 else 0.0 for a in orders))
    spend(state, request)
    # level(1, 32) = 0.511086 < 0.6 <= level(2, 32)
    assert filter_index(state, 32.0) == 2
    assert filter_index(state, 2.0) == 1


def test_filter_index_boundary_is_inclusive():
    orders = OrderSet([2.0])
    sched = FilterSchedule(delta=DELTA, orders=orders)
    state = new_odometer(DELTA, orders)
    spend(state, curve(orders, sched.level(3, 2.0)))
    assert filter_index(state, 2.0) == 3
    spend(state, curve(orders, math.ulp(sched.level(3, 2.0))))
    assert filter_index(state, 2.0) == 4


def test_filter_index_rejects_untracked_order():
    state = new_odometer(DELTA, OrderSet([2.0]))
    with pytest.raises(ValueError):
        filter_index(state, 4.0)


def test_spend_beyond_top_level_is_an_error():
    orders = OrderSet([2.0])
    state = new_odometer(DELTA, orders)
    top = FilterSchedule(delta=DELTA, orders=orders).level(MAX_FILTER_INDEX, 2.0)
    with pytest.raises(ValueError):
        spend(state, curve(orders, 2.0 * top))


@settings(max_examples=100)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_incremental_index_matches_from_scratch(amounts):
    orders = OrderSet([1.5, 4.0])
    state = new_odometer(0.05, orders)
    for a in amounts:
        spend(state, curve(orders, a, a / 2.0))
        for alpha in orders:
            assert filter_index(state, alpha) == filter_index_from_spent(
                state.schedule, state.spent.value(alpha), alpha
            )


def _reference_spend(state, request):
    """spend as it was before its no-climb window: the climb test runs on
    every query. Kept as the reference the current form must match bit
    for bit; it leaves the window fields alone."""
    if request.orders.orders != state.schedule.orders.orders:
        raise ValueError("request curve is defined over a different order set")
    new_spent = list(map(operator.add, state._spent, request.values))
    if any(map(operator.gt, new_spent, state._levels)):
        schedule = state.schedule
        base = schedule._base
        new_f = list(state._f)
        for i, total in enumerate(new_spent):
            while total > math.ldexp(base[i], new_f[i] - 1):
                new_f[i] += 1
                if new_f[i] > MAX_FILTER_INDEX:
                    raise ValueError("past the top schedule level")
        new_levels = [math.ldexp(b, f - 1) for b, f in zip(base, new_f)]
        new_bound = _bound(schedule, new_f)
        state._f = new_f
        state._levels = new_levels
        state._bound = new_bound
    state._totals = new_spent
    state.step += 1
    return state


# a request entry as a multiple of its order's first level: zero, a step
# too small to climb for many repeats, one near a level, one that passes
# a level or several at once, and one past the top rung
_LEVEL_FRACTIONS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-7, max_value=0.3),
    st.floats(min_value=0.9, max_value=1.1),
    st.floats(min_value=1.0, max_value=8.0),
    st.just(2.0**MAX_FILTER_INDEX),
)


@settings(max_examples=300)
@given(st.data())
def test_spend_matches_the_per_query_reference_bit_for_bit(data):
    orders, delta = data.draw(st.sampled_from([
        (OrderSet([2.0]), DELTA),
        (OrderSet([1.5, 3.0, 6.0, 12.0]), 0.05),
        # a huge order: its first level is subnormal
        (OrderSet([2.0, 1.7e308]), 0.5),
    ]))
    state, ref = new_odometer(delta, orders), new_odometer(delta, orders)
    base = state.schedule._base
    pool = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        values = []
        for b in base:
            if data.draw(st.integers(0, 4)) == 0:
                values.append(data.draw(st.floats(min_value=5e-324, max_value=2e-308)))
            else:
                values.append(data.draw(_LEVEL_FRACTIONS) * b)
        pool.append(RdpCurve(orders, tuple(values)))
    # runs of one request object, short and long, so windows open, run
    # out and are cut short; pool picks alternate requests. Each run has
    # one read somewhere in it; totals are compared after each run, the
    # rest after every spend (reading them adds nothing)
    budget = 3000  # spends per example
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        request = data.draw(st.sampled_from(pool))
        run = min(budget, data.draw(st.one_of(
            st.integers(min_value=1, max_value=40), st.sampled_from([300, 2000])
        )))
        budget -= run
        read_at = data.draw(st.integers(min_value=0, max_value=run))
        read = data.draw(st.sampled_from(_READS))
        for k in range(run):
            if k == read_at:
                assert read(state) == read(ref)
            try:
                _reference_spend(ref, request)
            except ValueError:
                with pytest.raises(ValueError):
                    spend(state, request)
            else:
                spend(state, request)
            assert state._f == ref._f and state._levels == ref._levels
            assert running_bound(state) == running_bound(ref)
            assert state.step == ref.step
        assert hexes(state._spent) == hexes(ref._spent)
        if budget == 0:
            break


@settings(max_examples=200)
@given(st.data())
def test_a_run_matches_k_spends_bit_for_bit(data):
    # spend_run(state, request, k) against k calls of spend on a twin: the
    # positions of rung moves with the rungs and bound after each, and
    # the state after the run, also where a spend past the top rung
    # raises; the totals are read after some runs only
    orders, delta = data.draw(st.sampled_from([
        (OrderSet([2.0]), DELTA),
        (OrderSet([1.5, 3.0, 6.0, 12.0]), 0.05),
        (OrderSet([2.0, 1.7e308]), 0.5),
    ]))
    state, twin = new_odometer(delta, orders), new_odometer(delta, orders)
    base = state.schedule._base
    pool = [
        RdpCurve(orders, tuple(data.draw(_LEVEL_FRACTIONS) * b for b in base))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    budget = 3000  # spends per example
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        request = data.draw(st.sampled_from(pool))
        k = min(budget, data.draw(st.sampled_from([0, 1, 2, 3, 17, 300, 2000])))
        budget -= k
        moves = []
        try:
            for position in range(k):
                bound = twin._bound
                spend(twin, request)
                if twin._bound is not bound:
                    moves.append((position, list(twin._f), twin._bound))
        except ValueError:
            with pytest.raises(ValueError):
                spend_run(state, request, k)
        else:
            assert [(p, list(f), b) for p, f, b in spend_run(state, request, k)] == moves
        assert state._f == twin._f and state._levels == twin._levels
        assert running_bound(state) == running_bound(twin)
        assert state.step == twin.step
        if data.draw(st.booleans()):
            assert hexes(state._spent) == hexes(twin._spent)
    assert hexes(state._spent) == hexes(twin._spent)


# what a caller may read between spends: each must see the totals the
# spends so far give, whether a window has deferred some of them or not
_READS = (
    lambda s: hexes(s.spent.values),
    lambda s: hexes(s._spent),
    lambda s: bound_candidates(s),
)


@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_a_window_ends_where_the_climb_test_does(ulps):
    # the k-th repeat lands one ulp below, on or one ulp above the level
    k = 100
    orders = OrderSet([2.0])
    state, ref = new_odometer(DELTA, orders), new_odometer(DELTA, orders)
    level = state.schedule.level(1, 2.0)
    a, r = drifting_run(level, level + ulps * math.ulp(level), k)
    # without the slack the window opened by the second repeat would
    # cover the k-th
    assert math.floor((level - (a + r + r)) / r) >= k - 2
    start, request = curve(orders, a), curve(orders, r)
    climbed_at = []
    for s in (state, ref):
        spend(s, start)
    for i in range(1, k + 4):
        spend(state, request)
        _reference_spend(ref, request)
        assert state._f == ref._f
        if ref._f == [2] and not climbed_at:
            climbed_at.append(i)
    assert climbed_at == [k if ulps > 0 else k + 1]
    assert hexes(state._spent) == hexes(ref._spent)


def test_a_windowed_spend_does_no_per_order_work():
    orders = OrderSet([2.0, 32.0])
    state = new_odometer(DELTA, orders)
    request = CountingCurve(orders, (1e-6, 1e-7))
    for _ in range(2):  # the second spend of the object opens the window
        spend(state, request)
    assert state._safe > 300
    reads = CountingCurve.reads
    for _ in range(300):
        spend(state, request)
    assert CountingCurve.reads == reads and state.step == 302
    # the totals are read once, and the 300 sums are made then
    assert state.spent.values == (repeat_sum(0.0, 1e-6, 302), repeat_sum(0.0, 1e-7, 302))
    assert CountingCurve.reads == reads + 1


def test_pending_spends_read_like_added_ones():
    orders = default_order_set()
    request = RdpCurve(orders, tuple(a / 800.0 for a in orders))
    state, added = new_odometer(DELTA, orders), new_odometer(DELTA, orders)
    for _ in range(250):
        spend(state, request)
        spend(added, request)
        added._spent  # added sums each spend as it comes
    assert state._pending > 0 and added._pending == 0
    assert running_bound(state) == running_bound(added)
    assert bound_candidates(state) == bound_candidates(added)
    assert repr(state.spent) == repr(added.spent)
    assert state.spent == added.spent and state.step == added.step


@pytest.mark.parametrize("every", [200, 1500])
@pytest.mark.parametrize("mid_session", [False, True])
def test_long_windows_read_like_a_per_call_twin(mid_session, every, monkeypatch):
    # windows of 200 and 1,500 spends, read from zero and from mid-session,
    # so their sums take both the loop and `_add_repeated`; at order 8 the
    # request is a tie on the grid of the start's binade
    closed, real = [], filters._add_repeated

    def counted(s, r, k):
        closed.append(k)
        return real(s, r, k)

    monkeypatch.setattr(filters, "_add_repeated", counted)
    orders = OrderSet([2.0, 4.0, 8.0])
    state, ref = new_odometer(DELTA, orders), new_odometer(DELTA, orders)
    base = [state.schedule.level(1, a) for a in orders]
    start = curve(orders, *(b / 4 for b in base))
    if mid_session:
        for s in (state, ref):
            spend(s, start)
    tie = 1.5 * math.ulp(start.values[2])
    request = curve(orders, base[0] / 20_000, base[1] / 20_000, tie)
    for n in range(1, 3 * every + 1):
        spend(state, request)
        _reference_spend(ref, request)
        if n % every == 0:
            assert state._pending >= every - 2
            assert hexes(state.spent.values) == hexes(ref.spent.values)
            assert state._f == ref._f and bound_candidates(state) == bound_candidates(ref)
    assert closed


def test_a_long_run_of_one_request_sets_a_window_once_per_climb(monkeypatch):
    windows = []
    real = odometers._certified_repeats

    def counted(*args):
        windows.append(real(*args))
        return windows[-1]

    monkeypatch.setattr(odometers, "_certified_repeats", counted)
    schedule = ScheduleReplay((ScheduleStep(GaussianMechanism(sigma=20.0), 10_000),))
    log = run_session(SessionConfig(
        mode="odometer", orders=default_order_set(), delta=DELTA, seed=0, source=schedule
    ))
    tails = [(r["f_per_alpha"], r["bound"]) for r in log.events]
    climbs = sum(map(operator.ne, tails[1:], tails))
    assert climbs == 160
    assert 1 <= len(windows) <= climbs + 1
    # the windows cover every spend but the first two and the climbs
    assert sum(windows) >= 10_000 - 2 - climbs


# ------------------------------------------------------------ running bound


def test_fresh_bound_is_exactly_twice_the_base():
    state = new_odometer(DELTA, default_order_set())
    cands = bound_candidates(state)
    for alpha in state.orders:
        assert cands[alpha] == 2.0 * state.schedule.level(1, alpha)
    assert cands[32.0] == pytest.approx(1.022171535823004, abs=1e-14)


def test_bound_after_point_spend_frozen_value():
    orders = default_order_set()
    state = new_odometer(DELTA, orders)
    spend(state, RdpCurve(orders, tuple(0.6 if a == 32.0 else 0.0 for a in orders)))
    cands = bound_candidates(state)
    assert cands[32.0] == pytest.approx(1.577976476673857, abs=1e-14)


def test_running_bound_witness_fields():
    orders = OrderSet([2.0, 32.0])
    state = new_odometer(DELTA, orders)
    rb = running_bound(state)
    # min of 2*ln(4/1e-5)/(alpha-1) lands on the largest order
    assert rb.witness_order == 32.0
    assert rb.witness_level == 1
    assert rb.delta == DELTA
    assert rb.eps_dp == bound_candidates(state)[32.0]


def test_bound_nondecreasing_under_random_spends():
    rng = random.Random(7)
    orders = OrderSet([2.0, 4.0, 16.0])
    state = new_odometer(1e-3, orders)
    prev = running_bound(state).eps_dp
    for _ in range(2_000):
        rate = rng.uniform(0.0, 0.5)
        spend(state, RdpCurve(orders, tuple(rate * a / 16.0 for a in orders)))
        now = running_bound(state).eps_dp
        assert now >= prev
        prev = now


def test_every_rung_matches_the_closed_form_bit_for_bit():
    # a first spend of 1.5 levels puts every order on rung 2; each later
    # spend doubles spent (exactly), which moves every order up one rung
    orders = default_order_set()
    m = len(orders)
    state = new_odometer(DELTA, orders)
    sched = state.schedule
    for f in range(1, MAX_FILTER_INDEX + 1):
        if f == 2:
            first = tuple(1.5 * sched.level(1, a) for a in orders)
            spend(state, RdpCurve(orders, first))
        elif f > 2:
            spend(state, state.spent)
        expected = {
            a: math.ldexp(sched.level(1, a), f - 1)
            + math.log(2.0 * m * f * f / DELTA) / (a - 1.0)
            for a in orders
        }
        assert all(filter_index(state, a) == f for a in orders)
        assert bound_candidates(state) == expected
        rb = running_bound(state)
        best = min(expected.values())
        assert rb.eps_dp == best
        assert rb.witness_order == min(a for a in orders if expected[a] == best)
        assert rb.witness_level == f


def _spend_path(rng, state):
    """Yield after each spend of a seeded path: mostly tiny requests that
    move no rung, some that jump orders several rungs at once, and a last
    one that puts every order on rung 64."""
    sched = state.schedule
    orders = state.orders
    exponents = [0] * len(orders)
    for step in range(60):
        if step == 59:
            exponents = [MAX_FILTER_INDEX - 1] * len(orders)
        elif rng.random() < 0.3:
            exponents = [
                min(MAX_FILTER_INDEX - 2, e + rng.randint(0, 8)) for e in exponents
            ]
        else:
            spend(state, RdpCurve(orders, tuple(
                1e-9 * sched.level(1, a) for a in orders
            )))
            yield
            continue
        # a target in (level(e), level(e + 1)) puts the order on rung e + 1
        targets = [
            max(s, math.ldexp(sched.level(1, a), e) * rng.uniform(0.51, 0.99))
            for s, a, e in zip(state.spent.values, orders, exponents)
        ]
        spend(state, RdpCurve(orders, tuple(
            t - s for t, s in zip(targets, state.spent.values)
        )))
        yield


@pytest.mark.parametrize("orders", [OrderSet([2.0, 32.0]), default_order_set()])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_running_bound_after_every_spend_is_the_fresh_argmin(orders, seed):
    state = new_odometer(DELTA, orders)
    top_reached = False
    for _ in _spend_path(random.Random(seed), state):
        cands = bound_candidates(state)
        best = min(cands.values())
        first = next(a for a in orders if cands[a] == best)
        rb = running_bound(state)
        assert (rb.eps_dp, rb.witness_order, rb.witness_level, rb.delta) == (
            best, first, filter_index(state, first), DELTA
        )
        for alpha in orders:
            assert filter_index(state, alpha) == filter_index_from_spent(
                state.schedule, state.spent.value(alpha), alpha
            )
        top_reached = top_reached or all(
            filter_index(state, a) == MAX_FILTER_INDEX for a in orders
        )
    assert top_reached


def _snapshot(state):
    return (
        state.spent.values, list(state._f), list(state._levels), running_bound(state),
        state.step, id(state._last), state._safe,
    )


@pytest.mark.parametrize(
    "make_request",
    [
        # order 2 would climb one rung; order 32 overflows rung 64
        lambda s: RdpCurve(s.orders, (s.schedule.level(2, 2.0),
                                      2.0 * s.schedule.level(MAX_FILTER_INDEX, 32.0))),
        lambda s: RdpCurve.from_mapping({2.0: 1.0, 4.0: 1.0}),
    ],
    ids=["past-rung-64", "other-order-set"],
)
def test_failed_spend_leaves_the_state_unchanged(make_request):
    orders = OrderSet([2.0, 32.0])
    state = new_odometer(DELTA, orders)
    spend(state, RdpCurve(orders, (0.0, 1.5 * state.schedule.level(1, 32.0))))
    # a repeated small request opens a no-climb window the failure must keep
    small = RdpCurve(orders, (0.0, 0.01 * state.schedule.level(2, 32.0)))
    spend(state, small)
    spend(state, small)
    assert state._last is small and state._safe > 0
    before = _snapshot(state)
    with pytest.raises(ValueError):
        spend(state, make_request(state))
    assert _snapshot(state) == before
    # the accountant still works after the refused call
    spend(state, RdpCurve(orders, (state.schedule.level(2, 2.0), 0.0)))
    assert filter_index(state, 2.0) == 2 and state.step == before[4] + 1


def test_a_repeat_past_rung_64_raises_and_keeps_its_window():
    orders = OrderSet([2.0])
    state = new_odometer(DELTA, orders)
    request = curve(orders, 0.75 * state.schedule.level(MAX_FILTER_INDEX, 2.0))
    spend(state, request)
    assert filter_index(state, 2.0) == MAX_FILTER_INDEX
    before = _snapshot(state)
    for _ in range(2):
        with pytest.raises(ValueError):
            spend(state, request)
        assert _snapshot(state) == before


@pytest.mark.parametrize("k", [-3, -1, True, False])
def test_a_run_of_negative_or_bool_length_is_refused(k):
    orders = OrderSet([2.0, 32.0])
    state = new_odometer(DELTA, orders)
    request = curve(orders, 0.01, 0.02)
    spend_run(state, request, 3)  # a window is open, a spend pending
    assert state._safe > 0 and state._pending == 1

    def snapshot():
        return (
            hexes(state._totals), state._pending, list(state._f),
            running_bound(state), state.step, state._last, state._safe,
        )

    before = snapshot()
    with pytest.raises(ValueError, match=f"run length k .*got {k!r}$"):
        spend_run(state, request, k)
    assert snapshot() == before
    assert spend_run(state, request, 0) == []
    assert snapshot() == before


def test_bound_ties_break_to_smallest_order():
    # Two copies of the same order cannot exist; instead exercise the tie
    # path with a symmetric two-order schedule where candidates differ,
    # then check determinism of repeated evaluation.
    state = new_odometer(DELTA, OrderSet([2.0, 32.0]))
    assert running_bound(state) == running_bound(state)


# ----------------------------------------------------------- early stopping


def test_early_stopping_frozen_value():
    orders = OrderSet([2.0])
    steps = [curve(orders, 0.1)] * 3
    g = early_stopping_bound(steps, 3, DELTA)
    # 0.3 + ln(2*9/1e-5)/1
    assert g.epsilon == pytest.approx(14.703297222866393, abs=1e-12)
    assert g.witness_order == 2.0
    assert g.delta == DELTA


def test_early_stopping_s1_equals_conversion_at_half_delta():
    orders = OrderSet([2.0])
    steps = [curve(orders, 0.4)]
    g = early_stopping_bound(steps, 1, DELTA)
    assert g.epsilon == rdp_to_dp(0.4, 2.0, DELTA / 2.0)


def test_early_stopping_validates_inputs():
    orders = OrderSet([2.0])
    steps = [curve(orders, 0.1)] * 2
    with pytest.raises(ValueError):
        early_stopping_bound([], 1, DELTA)
    with pytest.raises(ValueError):
        early_stopping_bound(steps, 0, DELTA)
    with pytest.raises(ValueError):
        early_stopping_bound(steps, 3, DELTA)
    with pytest.raises(ValueError, match="s must be an integer"):
        early_stopping_bound(steps, True, DELTA)
    with pytest.raises(ValueError):
        early_stopping_bound(
            [curve(orders, 0.1), curve(OrderSet([4.0]), 0.1)], 2, DELTA
        )


def test_early_stopping_rejects_a_delta_whose_log_argument_overflows():
    steps = [curve(OrderSet([2.0]), 0.1)]
    with pytest.raises(ValueError, match="too small"):
        early_stopping_bound(steps, 1, 1e-320)
    g = early_stopping_bound(steps, 1, 1e-300)
    assert g.epsilon == 0.1 + math.log(2.0 / 1e-300)
    assert g.witness_order == 2.0


@settings(max_examples=100)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=2,
        max_size=12,
    )
)
def test_early_stopping_nondecreasing_in_s(values):
    orders = OrderSet([2.0, 8.0])
    steps = [curve(orders, v, v / 4.0) for v in values]
    bounds = [early_stopping_bound(steps, s, DELTA).epsilon for s in range(1, len(steps) + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        assert hi >= lo


def test_early_stopping_multi_order_takes_the_min():
    orders = OrderSet([2.0, 32.0])
    steps = [curve(orders, 0.1, 0.1)] * 2
    g = early_stopping_bound(steps, 2, DELTA)
    m = 2
    by_hand = min(
        0.2 + math.log(2.0 * m * 4 / DELTA) / (alpha - 1.0) for alpha in orders
    )
    assert g.epsilon == by_hand
    assert g.witness_order == 32.0


# -------------------------------------------------------------- truncation


def test_truncate_identity_when_everything_fits():
    orders = OrderSet([2.0])
    sched = FilterSchedule(delta=0.1, orders=orders)
    events = [curve(orders, 0.1)] * 5
    assert truncate(events, sched, 2, 2.0) == events


def test_truncate_zeroes_first_violation_and_rest():
    orders = OrderSet([2.0])
    sched = FilterSchedule(delta=0.5, orders=orders)
    level1 = sched.level(1, 2.0)  # ln(2*1/0.5) = ln 4
    step = level1 / 2.0  # halving is exact, so two steps land on the level
    events = [curve(orders, step)] * 5
    out = truncate(events, sched, 1, 2.0)
    # two halves fit exactly; the third and everything after drop to zero
    assert out[0] == events[0] and out[1] == events[1]
    assert all(c.is_zero() for c in out[2:])
    assert len(out) == len(events)


def test_truncate_first_event_too_big_gives_all_zero():
    orders = OrderSet([2.0])
    sched = FilterSchedule(delta=0.5, orders=orders)
    events = [curve(orders, 100.0), curve(orders, 0.001)]
    out = truncate(events, sched, 1, 2.0)
    assert all(c.is_zero() for c in out)


@settings(max_examples=100)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        max_size=20,
    ),
    st.integers(min_value=1, max_value=3),
)
def test_truncated_sum_respects_level(values, f):
    orders = OrderSet([2.0])
    sched = FilterSchedule(delta=0.3, orders=orders)
    events = [curve(orders, v) for v in values]
    out = truncate(events, sched, f, 2.0)
    total = 0.0
    for c in out:
        total += c.value(2.0)
    assert total <= sched.level(f, 2.0)
    # once zeroed, always zeroed
    seen_zero = False
    for orig, kept in zip(events, out):
        if kept.is_zero() and not orig.is_zero():
            seen_zero = True
        if seen_zero:
            assert kept.is_zero()
