"""An accountant's settings are fixed when it is built: a filter's cap and
sealed flag, an odometer's schedule and the children of a validated
script. Assigning one raises, and the accountant then decides, bounds and
verifies as a twin that no one tried to change."""

import copy
import pickle
import random

import pytest
from windows import hexes

from rdpmeter.core import OrderSet, RdpCurve
from rdpmeter.filters import Decision, new_filter, try_spend
from rdpmeter.mechanisms import DiscreteMechanism, discrete_rdp_curve
from rdpmeter.odometers import FilterSchedule, new_odometer, running_bound, spend
from rdpmeter.oracle import (
    AdversaryScript,
    FilterPolicy,
    ScriptNode,
    enumerate_views,
    random_script,
    verify_filter_bound,
)

GRANT, PASS = Decision.GRANT, Decision.PASS
ORDERS = OrderSet([2.0, 4.0])
RR = DiscreteMechanism(outcomes=("a", "b"), p0=(0.7, 0.3), p1=(0.3, 0.7))
RR_CURVE = discrete_rdp_curve(RR, ORDERS)


def _filter(assign):
    # G7's sequence: PASS a large request, then GRANT a small one twice,
    # which opens a window on it; the assignment comes next
    f = new_filter(RdpCurve(ORDERS, (1.0, 1.0)))
    small, large = RdpCurve(ORDERS, (0.25, 0.125)), RdpCurve(ORDERS, (2.0, 2.0))
    decisions = [try_spend(f, large), try_spend(f, small), try_spend(f, small)]
    assign(f)
    decisions += [try_spend(f, small) for _ in range(4)] + [try_spend(f, large)]
    assert decisions == [PASS] + [GRANT] * 6 + [PASS]
    return decisions, hexes(f.spent.values), f


def _odometer(assign):
    state = new_odometer(1e-5, ORDERS)
    request = RdpCurve(ORDERS, (0.5, 0.25))
    for _ in range(3):
        spend(state, request)
    assign(state)
    for _ in range(40):  # both orders climb: order 2 to rung 2, order 4 to 3
        spend(state, request)
    bound = running_bound(state)
    assert state._f == [2, 3] and bound.delta == 1e-5
    return bound, hexes(state.spent.values), state._f, state.step


def _chain(depth):
    node = None
    for _ in range(depth):
        node = ScriptNode(RR, RR_CURVE, {} if node is None else {"a": node})
    return node


def _child(label, node):
    def assign(root):
        root.children[label] = node

    return assign


def _script(assign):
    leaf = ScriptNode(RR, RR_CURVE)
    script = AdversaryScript(ScriptNode(RR, RR_CURVE, {"a": leaf}))
    assign(script.root)
    cap = RdpCurve(ORDERS, tuple(2.0 * v for v in RR_CURVE.values))
    views = enumerate_views(script, FilterPolicy(cap))
    assert [len(v) for v in views] == [3, 3]  # a-a, a-b and b
    return verify_filter_bound(script, cap), views


@pytest.mark.parametrize(
    "run, assign, error",
    [
        (_filter, lambda f: setattr(f, "cap", RdpCurve(ORDERS, (100.0, 100.0))),
         AttributeError),
        (_filter, lambda f: setattr(f, "sealed", True), AttributeError),
        (_odometer, lambda o: setattr(o, "schedule", FilterSchedule(0.5, ORDERS)),
         AttributeError),
        # an under-declared request, an outcome the mechanism never
        # produces, and a chain past MAX_DEPTH
        (_script, _child("b", ScriptNode(RR, RdpCurve.zeros(ORDERS))), TypeError),
        (_script, _child("z", _chain(1)), TypeError),
        (_script, _child("b", _chain(30)), TypeError),
    ],
    ids=["cap", "sealed", "schedule", "child-under-declared",
         "child-unknown-outcome", "child-too-deep"],
)
def test_a_setting_cannot_be_changed_once_built(run, assign, error):
    def refused(target):
        with pytest.raises(error):
            assign(target)

    assert run(refused) == run(lambda target: None)


@pytest.mark.parametrize(
    "copy_script",
    [copy.deepcopy, lambda script: pickle.loads(pickle.dumps(script))],
    ids=["deepcopy", "pickle"],
)
def test_a_copied_script_is_equal_and_keeps_its_children_read_only(copy_script):
    script = random_script(random.Random(3), ORDERS)
    copied = copy_script(script)
    assert copied == script and copied.root is not script.root
    with pytest.raises(TypeError):
        copied.root.children["z"] = None
    policy = FilterPolicy(RdpCurve(ORDERS, (1.0, 1.0)))
    assert enumerate_views(copied, policy) == enumerate_views(script, policy)
