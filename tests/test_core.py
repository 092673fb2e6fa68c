import math
import warnings

import pytest
from hypothesis import example, given, strategies as st

from rdpmeter.core import (
    DpGuarantee,
    OrderSet,
    RdpCurve,
    _read_curve,
    curve_add,
    curve_to_dp,
    default_order_set,
    dp_target_to_rdp_budget,
    granularity_order_set,
    rdp_to_dp,
)


# ---------------------------------------------------------------- order sets


def test_order_set_sorts_and_dedups_input_order():
    s = OrderSet([32.0, 2.0, 4.0])
    assert s.orders == (2.0, 4.0, 32.0)
    assert s.index(4.0) == 1
    assert 4.0 in s and 3.0 not in s


def test_order_set_rejects_bad_orders():
    with pytest.raises(ValueError):
        OrderSet([])
    with pytest.raises(ValueError):
        OrderSet([1.0, 2.0])
    with pytest.raises(ValueError):
        OrderSet([0.5])
    with pytest.raises(ValueError):
        OrderSet([2.0, 2.0])
    with pytest.raises(ValueError):
        OrderSet([2.0, math.inf])


def test_default_order_set_contents():
    s = default_order_set()
    assert len(s) == 38
    assert s.orders[0] == 1.25
    assert s.orders[-2:] == (16.0, 32.0)
    assert 9.75 in s
    assert 10.0 in s
    assert 10.25 not in s
    # interior spacing is exactly representable
    diffs = {b - a for a, b in zip(s.orders[:36], s.orders[1:36])}
    assert diffs == {0.25}


def test_granularity_order_set_small_n():
    assert granularity_order_set(2).orders == (2.0, 4.0)
    assert granularity_order_set(3).orders == (2.0, 4.0, 8.0, 16.0)
    assert granularity_order_set(4).orders == (2.0, 4.0, 8.0, 16.0)
    assert granularity_order_set(1000).orders[-1] == 2.0**20


def test_granularity_order_set_rejects_small_or_nonint():
    with pytest.raises(ValueError):
        granularity_order_set(1)
    with pytest.raises(ValueError):
        granularity_order_set(2.5)


@given(st.integers(min_value=2, max_value=10**6))
def test_granularity_top_order_covers_n_squared(n):
    top = granularity_order_set(n).orders[-1]
    assert top >= n * n
    assert top / 2 < n * n


# ------------------------------------------------------------------- curves


def test_curve_requires_matching_lengths_and_valid_values():
    s = OrderSet([2.0, 4.0])
    with pytest.raises(ValueError):
        RdpCurve(s, (1.0,))
    with pytest.raises(ValueError):
        RdpCurve(s, (1.0, -0.1))
    with pytest.raises(ValueError):
        RdpCurve(s, (1.0, math.nan))


def test_curve_json_round_trip_is_exact():
    c = RdpCurve.from_mapping({2.0: 0.1, 32.0: 1.7})
    back = RdpCurve.from_json(c.to_json())
    assert back == c
    assert back.values == c.values


def test_json_curve_pairs_each_eps_with_its_listed_order():
    back = RdpCurve.from_json({"orders": [32, 2], "eps": [5, 1]})
    assert back.value(2.0) == 1.0 and back.value(32.0) == 5.0
    # eps(32) = 100, eps(2) = 0: the bound is carried by order 2, not by a
    # 0 misread at order 32
    curve = RdpCurve.from_json({"orders": [32, 2], "eps": [100, 0]})
    guarantee = curve_to_dp(curve, 1e-5)
    assert guarantee.witness_order == 2.0
    assert guarantee.epsilon == math.log(1.0 / 1e-5)


@given(st.data())
def test_json_curve_reads_the_same_in_any_listed_order(data):
    orders = data.draw(
        st.lists(st.floats(1.01, 1e6), min_size=1, max_size=12, unique=True)
    )
    eps = data.draw(
        st.lists(st.floats(0.0, 1e6), min_size=len(orders), max_size=len(orders))
    )
    listed = data.draw(st.permutations(range(len(orders))))
    curve = RdpCurve.from_mapping(dict(zip(orders, eps)))
    back = RdpCurve.from_json(
        {"orders": [orders[k] for k in listed], "eps": [eps[k] for k in listed]}
    )
    assert back.orders.orders == curve.orders.orders
    assert [v.hex() for v in back.values] == [v.hex() for v in curve.values]


def test_json_curve_with_a_wrong_eps_count_is_rejected():
    for listed in ([2.0, 4.0], [4.0, 2.0]):
        with pytest.raises(ValueError, match="3 values for 2 orders"):
            RdpCurve.from_json({"orders": listed, "eps": [1.0, 2.0, 3.0]})


@pytest.mark.parametrize(
    "data, name, kind",
    [
        ({"orders": "24", "eps": [1.0, 2.0]}, "orders", "str"),
        ({"orders": [2.0, 4.0], "eps": "12"}, "eps", "str"),
        ({"orders": "24", "eps": "12"}, "orders", "str"),
        ({"orders": {"2": 1}, "eps": [1.0]}, "orders", "dict"),
        ({"orders": [2.0], "eps": {"1": 0}}, "eps", "dict"),
        ({"orders": 2.0, "eps": [1.0]}, "orders", "float"),
    ],
    ids=["orders-str", "eps-str", "both-str", "orders-object", "eps-object", "orders-number"],
)
def test_json_curve_lists_must_be_lists(data, name, kind):
    # tuple() would split a string into characters and an object into keys
    with pytest.raises(ValueError, match=f"^{name} must be a list, got {kind}$"):
        RdpCurve.from_json(data)


@pytest.mark.parametrize(
    "data, name, bad",
    [
        ({"orders": ["2", 4.0], "eps": [1.0, 1.0]}, "orders", "'2'"),
        ({"orders": [2.0, True], "eps": [1.0, 1.0]}, "orders", "True"),
        ({"orders": [2.0, 4.0], "eps": [1.0, "1.0"]}, "eps", "'1.0'"),
        ({"orders": [2.0, 4.0], "eps": [False, 1.0]}, "eps", "False"),
        ({"orders": [2.0, 4.0], "eps": [1.0, [1.0]]}, "eps", r"\[1.0\]"),
    ],
    ids=["orders-str", "orders-bool", "eps-str", "eps-bool", "eps-list"],
)
def test_json_curve_entries_must_be_numbers(data, name, bad):
    # float() would read "2" as 2.0 and true as 1.0
    with pytest.raises(ValueError, match=f"^each {name} entry must be a number, got {bad}$"):
        RdpCurve.from_json(data)
    # also where the order list was read before, as every log and script
    # reads all but its first
    order_sets: dict = {}
    _read_curve({"orders": [2.0, 4.0], "eps": [1.0, 1.0]}, order_sets)
    with pytest.raises(ValueError, match=f"^each {name} entry must be a number"):
        _read_curve(data, order_sets)
    # other real types than int and float are numbers too
    import numpy as np

    curve = RdpCurve.from_json({"orders": [np.float64(2.0), 4], "eps": [np.float32(0.5), 1]})
    assert curve.values == (0.5, 1.0)


def test_eps_only_curve_reads_on_the_given_order_list():
    order_sets: dict = {}
    full = _read_curve({"orders": [4.0, 2.0], "eps": [2.0, 1.0]}, order_sets)
    eps_only = _read_curve({"eps": [2.0, 1.0]}, order_sets, [4.0, 2.0])
    assert eps_only == full and eps_only.orders is full.orders
    # a curve that lists its own orders is read on those
    own = _read_curve({"orders": [2.0, 4.0], "eps": [1.0, 2.0]}, order_sets, [4.0, 2.0])
    assert own == full
    with pytest.raises(ValueError, match="^curve has no 'orders'$"):
        _read_curve({"eps": [1.0, 2.0]}, order_sets)
    with pytest.raises(ValueError, match="^eps must be a list, got str$"):
        _read_curve({"eps": "12"}, order_sets, [4.0, 2.0])


def _per_value_curve(orders, values):
    """RdpCurve's checks as a per-value loop, the reference for its
    C-level passes."""
    values = tuple(float(v) for v in values)
    if len(values) != len(orders):
        raise ValueError(f"curve has {len(values)} values for {len(orders)} orders")
    for v in values:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"curve values must be finite and >= 0, got {v}")
    return values


def _outcome(build, orders, values):
    try:
        return [v.hex() for v in build(orders, values)]
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


@given(
    st.lists(
        st.one_of(
            st.floats(),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0]),
            st.integers(min_value=-3, max_value=3),
            st.just(10**400),
        ),
        min_size=1,
        max_size=5,
    )
)
@example([1.0, -1.0, math.nan])  # several bad values: the first is named
@example([math.inf, -1.0, 0.0])
@example([0.0, -0.0, -2])
@example([-0.0, 0, 1])
def test_curve_checks_match_a_per_value_loop(values):
    orders = OrderSet([2.0, 4.0, 8.0])
    want = _outcome(_per_value_curve, orders, values)
    got = _outcome(lambda o, v: RdpCurve(o, tuple(v)).values, orders, values)
    assert got == want


def test_curves_read_through_one_dict_share_each_order_set():
    order_sets: dict = {}
    read = [
        _read_curve({"orders": listed, "eps": [1.0, 2.0]}, order_sets)
        for listed in ([2.0, 4.0], [2, 4], [4.0, 2.0], [2.0, 4.0], [4.0, 2.0])
    ]
    # (2, 4) and (2.0, 4.0) are one key; the reversed list is another
    assert len(order_sets) == 2
    assert len({id(c.orders) for c in read}) == 2
    assert read[0].orders is read[1].orders is read[3].orders
    assert read[2].orders is read[4].orders
    assert [c.values for c in read] == [
        (1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (1.0, 2.0), (2.0, 1.0)
    ]


def test_curve_add_requires_same_orders():
    a = RdpCurve.from_mapping({2.0: 1.0})
    b = RdpCurve.from_mapping({4.0: 1.0})
    with pytest.raises(ValueError):
        curve_add(a, b)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    st.data(),
)
def test_curve_add_commutes_and_zero_is_identity(values, data):
    orders = OrderSet([2.0 + i for i in range(len(values))])
    a = RdpCurve(orders, tuple(values))
    b = RdpCurve(
        orders,
        tuple(
            data.draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
            for _ in values
        ),
    )
    assert curve_add(a, b) == curve_add(b, a)
    z = RdpCurve.zeros(orders)
    assert curve_add(a, z) == a


def test_curve_add_associative_on_dyadic_values():
    # Dyadic rationals add exactly in binary floating point.
    orders = OrderSet([2.0, 4.0])
    a = RdpCurve(orders, (0.5, 0.25))
    b = RdpCurve(orders, (0.125, 2.0))
    c = RdpCurve(orders, (4.0, 0.0625))
    assert curve_add(curve_add(a, b), c) == curve_add(a, curve_add(b, c))


def test_repeated_small_adds_stay_near_exact():
    orders = OrderSet([2.0])
    step = RdpCurve(orders, (1e-4,))
    total = RdpCurve.zeros(orders)
    for _ in range(10_000):
        total = curve_add(total, step)
    assert abs(total.values[0] - 1.0) < 1e-12


# -------------------------------------------------------------- conversions


def test_rdp_to_dp_frozen_values():
    # ln(1e5) = 11.512925464970229
    assert rdp_to_dp(1.0, 2.0, 1e-5) == pytest.approx(
        12.512925464970229, abs=1e-12
    )
    assert rdp_to_dp(0.5, 32.0, 1e-5) == pytest.approx(
        0.8713846924183944, abs=1e-12
    )


def test_rdp_to_dp_validates_inputs():
    with pytest.raises(ValueError):
        rdp_to_dp(1.0, 1.0, 1e-5)
    with pytest.raises(ValueError):
        rdp_to_dp(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        rdp_to_dp(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        rdp_to_dp(-0.5, 2.0, 1e-5)


@given(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=1.0 + 1e-6, max_value=64.0, allow_nan=False),
    st.floats(min_value=1e-12, max_value=0.5, allow_nan=False),
)
def test_rdp_to_dp_monotone_in_eps_and_delta(e1, e2, alpha, delta):
    lo, hi = sorted([e1, e2])
    assert rdp_to_dp(lo, alpha, delta) <= rdp_to_dp(hi, alpha, delta)
    assert rdp_to_dp(lo, alpha, delta) >= rdp_to_dp(lo, alpha, delta * 1.5)


def test_rdp_to_dp_rejects_a_delta_whose_log_overflows():
    # 1/1e-320 is not finite; the bound would silently be inf
    with pytest.raises(ValueError, match="too small"):
        rdp_to_dp(1.0, 2.0, 1e-320)
    assert rdp_to_dp(1.0, 2.0, 1e-300) == 1.0 + math.log(1.0 / 1e-300)


def test_curve_to_dp_frozen_value_and_witness():
    c = RdpCurve.from_mapping({2.0: 1.0, 32.0: 1.0})
    g = curve_to_dp(c, 1e-5)
    assert g.epsilon == pytest.approx(1.3713846924183946, abs=1e-12)
    assert g.witness_order == 32.0
    assert g.delta == 1e-5


def test_curve_to_dp_tie_breaks_to_smallest_order():
    # At delta=0.25 the tails are L/1 and L/2 for orders 2 and 3, and L/2
    # halves exactly in binary, so both candidates equal L bit for bit.
    delta = 0.25
    half = math.log(1.0 / delta) / 2.0
    c = RdpCurve.from_mapping({2.0: 0.0, 3.0: half})
    g = curve_to_dp(c, delta)
    assert g.epsilon == math.log(4.0)
    assert g.witness_order == 2.0


def test_curve_to_dp_rejects_a_delta_whose_log_overflows():
    # without the check: epsilon inf and no witness order
    c = RdpCurve.from_mapping({2.0: 1.0, 32.0: 1.0})
    with pytest.raises(ValueError, match="too small"):
        curve_to_dp(c, 1e-320)
    g = curve_to_dp(c, 1e-300)
    assert g.epsilon == 1.0 + math.log(1.0 / 1e-300) / 31.0
    assert g.witness_order == 32.0


def test_curve_to_dp_zero_curve():
    c = RdpCurve.zeros(OrderSet([2.0, 4.0]))
    g = curve_to_dp(c, math.exp(-1.0))
    assert g.epsilon == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert g.witness_order == 4.0


@given(
    st.dictionaries(
        st.sampled_from([1.5, 2.0, 3.0, 8.0, 32.0]),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        min_size=1,
    ),
    st.floats(min_value=1e-10, max_value=0.1, allow_nan=False),
)
def test_curve_to_dp_is_min_over_orders(mapping, delta):
    c = RdpCurve.from_mapping(mapping)
    g = curve_to_dp(c, delta)
    candidates = [rdp_to_dp(v, a, delta) for a, v in mapping.items()]
    assert g.epsilon == min(candidates)


# ----------------------------------------------------------- target budgets


def test_dp_target_frozen_values():
    budget = dp_target_to_rdp_budget(2.0, 1e-5, OrderSet([2.0, 16.0, 32.0]))
    assert budget.value(2.0) == 0.0  # 2.0 - ln(1e5)/1 < 0, clamped
    assert budget.value(16.0) == pytest.approx(1.2324716356686514, abs=1e-12)
    assert budget.value(32.0) == pytest.approx(1.6286153075816054, abs=1e-12)


def test_dp_target_warns_when_everything_clamps():
    with pytest.warns(UserWarning):
        budget = dp_target_to_rdp_budget(0.1, 1e-5, OrderSet([2.0, 4.0]))
    assert budget.is_zero()


def test_dp_target_validates_inputs():
    with pytest.raises(ValueError):
        dp_target_to_rdp_budget(0.0, 1e-5, OrderSet([2.0]))
    with pytest.raises(ValueError):
        dp_target_to_rdp_budget(1.0, 0.0, OrderSet([2.0]))


@pytest.mark.parametrize("eps_dp", [math.nan, math.inf, -math.inf, -1.0])
def test_dp_target_must_be_a_finite_number_above_zero(eps_dp):
    # NaN compared false against every bound, so its cap was all zeros
    with pytest.raises(ValueError, match="eps_dp must be a finite number > 0"):
        dp_target_to_rdp_budget(eps_dp, 1e-5, OrderSet([2.0, 4.0]))


def test_dp_target_rejects_a_delta_whose_log_overflows():
    # 1/1e-320 is not finite; the budget would silently clamp to zero
    with pytest.raises(ValueError, match="too small"):
        dp_target_to_rdp_budget(5.0, 1e-320, OrderSet([2.0, 32.0]))
    budget = dp_target_to_rdp_budget(700.0, 1e-300, OrderSet([2.0]))
    assert budget.value(2.0) == 700.0 - math.log(1.0 / 1e-300)


@given(
    st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
    st.floats(min_value=1e-12, max_value=0.5, allow_nan=False),
    st.sets(
        st.floats(min_value=1.0 + 1e-3, max_value=512.0, allow_nan=False),
        min_size=1,
        max_size=10,
    ),
)
def test_dp_target_round_trip_never_exceeds_target(eps_dp, delta, orders):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        budget = dp_target_to_rdp_budget(eps_dp, delta, OrderSet(orders))
    # Spending exactly the budget at any single order must stay within the
    # target under the same arithmetic used for conversion.
    for alpha, value in zip(budget.orders, budget.values):
        if value > 0.0:
            assert rdp_to_dp(value, alpha, delta) <= eps_dp
