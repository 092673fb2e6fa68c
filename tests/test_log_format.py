"""Session log formats: format 1 logs still replay, and the replay knows
which format it reads.

The logs in tests/data were written in format 1, by rdpmeter before
format 2, from the configs below: every record carries its request and
the header has no "format". Format 2 (the header's first key is
"format": 2) leaves out a request equal to the previous record's.
"""

import pathlib

import pytest
from log_formats import to_v1

from rdpmeter.core import OrderSet, RdpCurve
from rdpmeter.harness import (
    FILTER,
    ODOMETER,
    ScheduleReplay,
    ScheduleStep,
    SessionConfig,
    SessionLog,
    format_log,
    reconstruct,
    run_session,
)
from rdpmeter.mechanisms import DiscreteMechanism, GaussianMechanism
from rdpmeter.oracle import BOTTOM, AdversaryScript, ScriptNode

DATA = pathlib.Path(__file__).resolve().parent / "data"
ORDERS2 = OrderSet([2.0])
ORDERS24 = OrderSet([2.0, 4.0])
COIN = DiscreteMechanism(outcomes=("h", "t"), p0=(0.5, 0.5), p1=(0.5, 0.5))


def _schedule(sigmas, count):
    return ScheduleReplay(
        steps=tuple(ScheduleStep(GaussianMechanism(s), count) for s in sigmas)
    )


def _node(eps, **children):
    return ScriptNode(mech=COIN, request=RdpCurve(ORDERS2, (eps,)), children=children)


def _script() -> AdversaryScript:
    # after two grants of 0.4 the third 0.4 is denied under a cap of 1;
    # the coin picks a branch at each grant
    last = {BOTTOM: _node(0.1), "h": _node(0.1), "t": _node(0.05)}
    return AdversaryScript(root=_node(0.4, h=_node(0.4, h=_node(0.4, **last)),
                                      t=_node(0.4, h=_node(0.3), t=_node(0.4, **last))))


CONFIGS = {
    # GRANT, then PASS once the cap binds, then GRANT again
    "filter": SessionConfig(
        mode=FILTER, orders=ORDERS24, delta=1e-5, seed=0,
        source=_schedule((1.0, 0.5, 3.0), 4), cap=RdpCurve(ORDERS24, (5.0, 10.0)),
    ),
    # rungs climb inside both steps
    "odometer": SessionConfig(
        mode=ODOMETER, orders=ORDERS24, delta=1e-5, seed=0,
        source=_schedule((1.0, 0.7), 6),
    ),
    "script": SessionConfig(
        mode=FILTER, orders=ORDERS2, delta=1e-5, seed=7, source=_script(),
        cap=RdpCurve(ORDERS2, (1.0,)),
    ),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_format_1_log_replays_as_its_format_2_log(name):
    v1 = SessionLog.from_jsonl((DATA / f"v1_{name}.jsonl").read_text(encoding="utf-8"))
    live = run_session(CONFIGS[name])
    assert "format" not in v1.header
    assert all("request" in r for r in v1.events)
    assert any("request" not in r for r in live.events)
    assert to_v1(live.to_jsonl()) == v1.to_jsonl()
    state = reconstruct(v1)
    assert [v.hex() for v in state._spent] == [v.hex() for v in live.final_state._spent]
    assert format_log(v1, "csv") == format_log(live, "csv")


@pytest.mark.parametrize("value", [3, 1, "2", 2.0, True, None], ids=repr)
def test_a_format_other_than_2_is_rejected(value):
    log = run_session(CONFIGS["filter"])
    log.header["format"] = value
    with pytest.raises(ValueError) as info:
        reconstruct(log)
    assert str(info.value) == f"unknown log format {value!r}"


@pytest.mark.parametrize("name", list(CONFIGS))
def test_format_2_record_1_must_carry_a_request(name):
    log = run_session(CONFIGS[name])
    del log.events[0]["request"]
    with pytest.raises(ValueError, match="^record 1 has no 'request'$"):
        reconstruct(log)


def test_a_flipped_decision_on_an_elided_record_is_rejected():
    log = run_session(CONFIGS["filter"])
    # record 6 repeats record 5's request and the cap refuses it
    assert "request" not in log.events[5] and log.events[5]["decision"] == "PASS"
    log.events[5]["decision"] = "GRANT"
    with pytest.raises(ValueError, match="^event 6: log says GRANT, replay decides PASS$"):
        reconstruct(log)
