import decimal
import itertools
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdpmeter.core import (
    OrderSet,
    RdpCurve,
    default_order_set,
    granularity_order_set,
)
from rdpmeter.mechanisms import (
    DiscreteMechanism,
    GaussianMechanism,
    RawCurve,
    discrete_rdp_curve,
    gaussian_rdp_curve,
    mechanism_from_json,
    mechanism_rdp_curve,
    mechanism_to_json,
    sample,
)

SMALL_ORDERS = OrderSet([1.5, 2.0, 4.0, 8.0, 32.0])


def make_rr(p: float) -> DiscreteMechanism:
    return DiscreteMechanism(("yes", "no"), (p, 1.0 - p), (1.0 - p, p))


# ------------------------------------------------------------- construction


def test_gaussian_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GaussianMechanism(sigma=0.0)
    with pytest.raises(ValueError):
        GaussianMechanism(sigma=1.0, sensitivity=0.0)
    with pytest.raises(ValueError):
        GaussianMechanism(sigma=-1.0)
    with pytest.raises(ValueError):
        GaussianMechanism(sigma=math.inf)


@pytest.mark.parametrize(
    "sigma, sensitivity", [(1e-300, 1.0), (1e-160, 1.0), (1.0, 1e200)]
)
def test_gaussian_whose_curve_leaves_the_float_range_is_refused(sigma, sensitivity):
    # 2*sigma^2 underflows to 0 at 1e-300; sensitivity^2/(2*sigma^2) passes
    # the float range at 1e-160 and at a sensitivity of 1e200
    with pytest.raises(ValueError, match=f"^sigma {sigma} is too small"):
        GaussianMechanism(sigma, sensitivity=sensitivity)
    with pytest.raises(ValueError, match=f"^sigma {sigma} is too small"):
        mechanism_from_json(
            {"kind": "gaussian", "sigma": sigma, "sensitivity": sensitivity}
        )
    # a sigma so large that the scale underflows to 0 still builds
    assert gaussian_rdp_curve(GaussianMechanism(1e200), SMALL_ORDERS).is_zero()


@pytest.mark.parametrize("sigma, sensitivity", [(1e-154, 1.0), (1.0, 1e154)])
def test_gaussian_curve_past_the_float_range_at_an_order_is_refused(sigma, sensitivity):
    # the scale, 5e307, is finite, but alpha * scale is not from alpha 3.75
    # on, the first such order of the default set
    mech = GaussianMechanism(sigma, sensitivity=sensitivity)
    message = (
        f"sigma {sigma} is too small for sensitivity {float(sensitivity)}: "
        "the curve leaves the float range at order 3.75"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gaussian_rdp_curve(mech, default_order_set())
    with pytest.raises(ValueError, match="at order 32.0$"):
        gaussian_rdp_curve(GaussianMechanism(2.5e-154), default_order_set())
    # up to the last order below the edge, the curve builds
    assert gaussian_rdp_curve(mech, OrderSet([1.5, 2.0, 3.5])).values[-1] < math.inf


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"sigma": True}, "sigma must be a number, got True"),
        ({"sigma": "2"}, "sigma must be a number, got '2'"),
        ({"sigma": 2.0, "sensitivity": True}, "sensitivity must be a number, got True"),
    ],
)
def test_gaussian_parameters_must_be_real_numbers(kwargs, message):
    # the rule mechanism JSON is read with
    with pytest.raises(ValueError, match=f"^{message}$"):
        GaussianMechanism(**kwargs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        mechanism_from_json({"kind": "gaussian", **kwargs})
    # other real types than int and float are numbers too
    assert GaussianMechanism(np.float64(2.0), sensitivity=np.int64(1)).sigma == 2.0


def test_discrete_rejects_support_mismatch():
    with pytest.raises(ValueError):
        DiscreteMechanism(("a", "b"), (1.0, 0.0), (0.5, 0.5))


def test_discrete_rejects_bad_probability_sum():
    with pytest.raises(ValueError):
        DiscreteMechanism(("a", "b"), (0.6, 0.6), (0.5, 0.5))


@pytest.mark.parametrize(
    "p0, bad", [((True, False), "True"), (("0.5", "0.5"), "'0.5'"), ((0.5, None), "None")]
)
def test_discrete_entries_must_be_real_numbers(p0, bad):
    with pytest.raises(ValueError, match=f"^each p0 entry must be a number, got {bad}$"):
        DiscreteMechanism(("a", "b"), p0, (0.5, 0.5))
    # other real types than int and float are numbers too
    m = DiscreteMechanism(("a", "b"), (np.float32(0.5), np.float64(0.5)), (0.5, 0.5))
    assert m.p0 == (0.5, 0.5)


def test_discrete_renormalizes_tiny_drift():
    drift = 2e-13
    m = DiscreteMechanism(("a", "b"), (0.5 + drift, 0.5), (0.5, 0.5 + drift))
    assert math.fsum(m.p0) == 1.0
    assert math.fsum(m.p1) == 1.0


def test_discrete_construction_is_a_fixed_point():
    # feeding a mechanism's own probabilities back in must not move them
    weights = (0.31, 0.17, 0.52000000001)
    total = math.fsum(weights)
    m = DiscreteMechanism(("a", "b", "c"), tuple(w / total for w in weights),
                          (0.2, 0.3, 0.5))
    again = DiscreteMechanism(m.outcomes, m.p0, m.p1)
    assert again.p0 == m.p0 and again.p1 == m.p1


def test_discrete_rejects_duplicate_labels_and_length_mismatch():
    with pytest.raises(ValueError):
        DiscreteMechanism(("a", "a"), (0.5, 0.5), (0.5, 0.5))
    with pytest.raises(ValueError):
        DiscreteMechanism(("a", "b"), (0.5, 0.5), (1.0,))


# ---------------------------------------------------------- gaussian curves


def test_gaussian_curve_frozen_points():
    c = gaussian_rdp_curve(GaussianMechanism(sigma=1.0), OrderSet([2.0]))
    assert c.value(2.0) == 1.0
    c = gaussian_rdp_curve(GaussianMechanism(sigma=2.0), OrderSet([4.0]))
    assert c.value(4.0) == 0.5


def test_gaussian_curve_doubling_sigma_quarters_epsilon():
    orders = default_order_set()
    base = gaussian_rdp_curve(GaussianMechanism(sigma=1.0), orders)
    wide = gaussian_rdp_curve(GaussianMechanism(sigma=2.0), orders)
    for b, w in zip(base.values, wide.values):
        assert w == pytest.approx(b / 4.0, rel=1e-15)


@given(
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_gaussian_curve_linear_in_alpha(sigma, sens):
    m = GaussianMechanism(sigma=sigma, sensitivity=sens)
    c = gaussian_rdp_curve(m, OrderSet([2.0, 4.0, 8.0]))
    assert c.value(4.0) == pytest.approx(2.0 * c.value(2.0), rel=1e-12)
    assert c.value(8.0) == pytest.approx(4.0 * c.value(2.0), rel=1e-12)


# ---------------------------------------------------------- discrete curves


def test_randomized_response_frozen_value():
    # sum is 0.25*9 + 0.75/9 = 7/3 exactly in rationals
    c = discrete_rdp_curve(make_rr(0.75), OrderSet([2.0]))
    assert c.value(2.0) == pytest.approx(math.log(7.0 / 3.0), abs=1e-14)
    assert c.value(2.0) == pytest.approx(0.8472978603872037, abs=1e-12)


def test_identical_distributions_give_zero_curve():
    m = DiscreteMechanism(("a", "b"), (0.25, 0.75), (0.25, 0.75))
    c = discrete_rdp_curve(m, SMALL_ORDERS)
    assert c.is_zero()


def test_swapping_worlds_leaves_curve_unchanged():
    m = DiscreteMechanism(("a", "b", "c"), (0.5, 0.3, 0.2), (0.2, 0.3, 0.5))
    swapped = DiscreteMechanism(("a", "b", "c"), (0.2, 0.3, 0.5), (0.5, 0.3, 0.2))
    assert discrete_rdp_curve(m, SMALL_ORDERS) == discrete_rdp_curve(
        swapped, SMALL_ORDERS
    )


@st.composite
def discrete_mechanisms(draw, max_outcomes=4):
    n = draw(st.integers(min_value=2, max_value=max_outcomes))
    weights0 = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    weights1 = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    t0, t1 = math.fsum(weights0), math.fsum(weights1)
    labels = tuple(f"o{i}" for i in range(n))
    return DiscreteMechanism(
        labels,
        tuple(w / t0 for w in weights0),
        tuple(w / t1 for w in weights1),
    )


@given(discrete_mechanisms())
def test_discrete_curve_nonnegative_and_nondecreasing(m):
    c = discrete_rdp_curve(m, SMALL_ORDERS)
    for v in c.values:
        assert v >= 0.0
    for lo, hi in zip(c.values, c.values[1:]):
        assert hi >= lo - 1e-12


def _merges(n):
    # All ways to partition n outcome slots into nonempty groups.
    if n == 1:
        yield [[0]]
        return
    for smaller in _merges(n - 1):
        for i, group in enumerate(smaller):
            yield smaller[:i] + [group + [n - 1]] + smaller[i + 1 :]
        yield smaller + [[n - 1]]


def _merge_mechanism(m, partition):
    labels = tuple(f"g{i}" for i in range(len(partition)))
    p0 = tuple(math.fsum(m.p0[j] for j in group) for group in partition)
    p1 = tuple(math.fsum(m.p1[j] for j in group) for group in partition)
    return DiscreteMechanism(labels, p0, p1)


@settings(max_examples=40)
@given(discrete_mechanisms(max_outcomes=4))
def test_merging_outcomes_never_increases_curve(m):
    base = discrete_rdp_curve(m, SMALL_ORDERS)
    for partition in _merges(len(m.outcomes)):
        merged = _merge_mechanism(m, partition)
        c = discrete_rdp_curve(merged, SMALL_ORDERS)
        for v_merged, v_base in zip(c.values, base.values):
            assert v_merged <= v_base + 1e-9


def _renyi_reference(p, q, alpha):
    # the per-order form discrete_rdp_curve had before it divided the
    # ratios once per mechanism; the two must agree bit for bit
    terms = []
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        terms.append(qi * (pi / qi) ** alpha)
    return math.log(math.fsum(terms)) / (alpha - 1.0)


def _reference_curve(m, orders):
    """The reference's value at each order, as hex; None where it raises
    OverflowError, as the whole curve used to."""
    values = []
    for alpha in orders:
        try:
            d01 = _renyi_reference(m.p0, m.p1, alpha)
            d10 = _renyi_reference(m.p1, m.p0, alpha)
        except OverflowError:
            values.append(None)
        else:
            values.append(max(d01, d10, 0.0).hex())
    return values


_EXACT = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _exact_divergence(m, alpha):
    """The symmetrized divergence at alpha in 40-digit decimal arithmetic,
    rounded once to a float."""

    def direction(p, q):
        total = sum(
            Decimal(qi) * (Decimal(pi) / Decimal(qi)) ** Decimal(alpha)
            for pi, qi in zip(p, q)
            if pi != 0.0
        )
        return total.ln() / (Decimal(alpha) - 1)

    with decimal.localcontext(_EXACT):
        return max(float(direction(m.p0, m.p1)), float(direction(m.p1, m.p0)), 0.0)


def _assert_matches_reference(m, orders):
    """Bit for bit the reference wherever it is finite; within 1e-12 of the
    exact divergence where it overflows."""
    values = discrete_rdp_curve(m, orders).values
    for alpha, ref, value in zip(orders, _reference_curve(m, orders), values):
        if ref is None:
            assert value == pytest.approx(_exact_divergence(m, alpha), rel=1e-12)
        else:
            assert value.hex() == ref


@st.composite
def mechanisms_with_shared_zeros(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    # weights from 1e-18 up, so ratios past the overflow point occur
    weight = st.floats(min_value=1e-18, max_value=1.0)
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    zero[draw(st.integers(min_value=0, max_value=n - 1))] = False
    w0 = [0.0 if z else draw(weight) for z in zero]
    w1 = [0.0 if z else draw(weight) for z in zero]
    t0, t1 = math.fsum(w0), math.fsum(w1)
    return DiscreteMechanism(
        tuple(f"o{i}" for i in range(n)),
        tuple(w / t0 for w in w0),
        tuple(w / t1 for w in w1),
    )


@settings(max_examples=300)
@given(
    mechanisms_with_shared_zeros(),
    st.sampled_from([default_order_set(), granularity_order_set(1000)]),
)
def test_discrete_curve_matches_per_order_reference(m, orders):
    _assert_matches_reference(m, orders)


@pytest.mark.parametrize(
    "m, orders",
    [
        # a ratio of 1e10: the terms overflow from order 32 of the default set
        (
            DiscreteMechanism(("a", "b"), (0.999, 0.001), (1.0 - 1e-13, 1e-13)),
            default_order_set(),
        ),
        # a ratio of 1.5: the terms overflow from order 2^11 up to 2^40
        (make_rr(0.6), granularity_order_set(10**6)),
    ],
    ids=["ratio-1e10-default-orders", "ratio-1.5-orders-to-2^40"],
)
def test_orders_past_the_float_range_are_computed_in_log_space(m, orders):
    assert None in _reference_curve(m, orders)
    _assert_matches_reference(m, orders)


# ---------------------------------------------------------------- sampling


def test_point_mass_sampling_is_constant():
    m = DiscreteMechanism(("a", "b"), (0.0, 1.0), (0.0, 1.0))
    rng = np.random.default_rng(0)
    assert all(sample(m, 1, rng) == "b" for _ in range(50))


def test_gaussian_sampling_mean():
    m = GaussianMechanism(sigma=1.0)
    rng = np.random.default_rng(7)
    draws = [sample(m, 0, rng) for _ in range(100_000)]
    assert abs(np.mean(draws)) < 0.02
    rng = np.random.default_rng(7)
    shifted = [sample(m, 1, rng) for _ in range(100_000)]
    assert abs(np.mean(shifted) - 1.0) < 0.02


def test_same_seed_same_outcome():
    m = GaussianMechanism(sigma=3.0, sensitivity=2.0)
    a = sample(m, 1, np.random.default_rng(123))
    b = sample(m, 1, np.random.default_rng(123))
    assert a == b
    d = make_rr(0.75)
    assert sample(d, 0, np.random.default_rng(5)) == sample(
        d, 0, np.random.default_rng(5)
    )


def _sample_with_array(mech, world, rng):
    # the form sample used while it built the float64 array itself
    probs = mech.p0 if world == 0 else mech.p1
    return mech.outcomes[int(rng.choice(len(mech.outcomes), p=np.asarray(probs)))]


@settings(max_examples=200)
@given(
    mechanisms_with_shared_zeros(),
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_discrete_draws_match_an_explicit_float64_array(m, world, seed):
    # choice converts the probability tuple itself, to the same array
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [sample(m, world, rng) for _ in range(5)] == [
        _sample_with_array(m, world, reference) for _ in range(5)
    ]


def test_sampling_raw_curve_is_an_error():
    raw = RawCurve(RdpCurve.from_mapping({2.0: 0.5}))
    with pytest.raises(TypeError):
        sample(raw, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample(GaussianMechanism(sigma=1.0), 2, np.random.default_rng(0))


# ------------------------------------------------------------ serialization


def test_mechanism_json_round_trip():
    for mech in (
        GaussianMechanism(sigma=1.5, sensitivity=2.0),
        make_rr(0.6),
        RawCurve(RdpCurve.from_mapping({2.0: 0.25, 16.0: 1.0})),
    ):
        data = mechanism_to_json(mech)
        back = mechanism_from_json(data)
        assert back == mech
        assert mechanism_to_json(back) == data


def test_mechanism_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        mechanism_from_json({"kind": "laplace"})


@pytest.mark.parametrize(
    "key, value",
    [("outcomes", "ab"), ("p0", "1"), ("p1", {"1": 0}), ("outcomes", {"a": 1})],
)
def test_discrete_json_lists_must_be_lists(key, value):
    # tuple("ab") would read as the outcomes ("a", "b")
    data = {"kind": "discrete", "outcomes": ["a"], "p0": [1.0], "p1": [1.0]}
    data[key] = value
    with pytest.raises(ValueError, match=f"^{key} must be a list, got "):
        mechanism_from_json(data)


def test_raw_curve_dispatch_requires_matching_orders():
    raw = RawCurve(RdpCurve.from_mapping({2.0: 0.5}))
    assert mechanism_rdp_curve(raw, OrderSet([2.0])).value(2.0) == 0.5
    with pytest.raises(ValueError):
        mechanism_rdp_curve(raw, OrderSet([4.0]))
