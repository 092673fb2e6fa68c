"""The benchmark's tracer (bench/spans.py) wraps rdpmeter functions and
methods found by name at run time; a refactor that renamed or moved one
would silently drop its span. These tests read the tracer's name lists
and check that each still resolves."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_function_resolves(spans):
    for module_name, attr in spans.FUNCTIONS:
        module = importlib.import_module(f"rdpmeter.{module_name}")
        assert inspect.isfunction(getattr(module, attr, None)), (
            f"rdpmeter.{module_name}.{attr}"
        )


def test_every_traced_method_is_defined_on_its_class(spans):
    for module_name, cls_name, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(f"rdpmeter.{module_name}"), cls_name)
        # the tracer rebinds the class's own attribute, not an inherited one
        assert attr in cls.__dict__, f"rdpmeter.{module_name}.{cls_name}.{attr}"


def test_session_log_keeps_its_method_kinds():
    from rdpmeter.harness import SessionLog

    assert inspect.isfunction(SessionLog.__dict__["to_jsonl"])
    assert isinstance(SessionLog.__dict__["from_jsonl"], classmethod)


def test_every_filter_decision_goes_through_try_spend(monkeypatch):
    # filters.try_spend.calls counts what the tracer sees through these two
    # names. A session decides a schedule step in one try_spend_run, which
    # counts a window's sends at once and calls try_spend for every send no
    # window covers: so its calls are exactly the full decisions of the
    # same sends made one call each, and a session loop that decided
    # admission inline would read 0
    from rdpmeter import filters, harness
    from rdpmeter.core import default_order_set
    from rdpmeter.mechanisms import GaussianMechanism, mechanism_rdp_curve

    windowed = []  # per call: whether a window covered the send
    original = filters.try_spend

    def counted(state, request):
        windowed.append(
            request is state._last and state.cap is state._last_cap and state._safe != 0
        )
        return original(state, request)

    monkeypatch.setattr(filters, "try_spend", counted)
    monkeypatch.setattr(harness, "try_spend", counted)
    # the cap binds in the first step, the second is PASSed whole, and the
    # third's smaller request is GRANTed again until the cap binds again
    steps = ((GaussianMechanism(5.0), 250), (GaussianMechanism(2.0), 250),
             (GaussianMechanism(50.0), 250))
    config = harness.SessionConfig(
        mode=harness.FILTER,
        orders=default_order_set(),
        delta=1e-5,
        seed=0,
        source=harness.ScheduleReplay(
            steps=tuple(harness.ScheduleStep(m, c) for m, c in steps)
        ),
        dp_target=8.0,
    )
    log = harness.run_session(config)
    session = list(windowed)
    assert session and not any(session)
    decisions = [r["decision"] for r in log.events]
    assert "PASS" in decisions[:250] and "GRANT" in decisions[500:]

    windowed.clear()
    state = filters.new_filter_from_dp_target(8.0, 1e-5, config.orders)
    for mech, count in steps:
        request = mechanism_rdp_curve(mech, config.orders)
        for _ in range(count):
            filters.try_spend(state, request)
    assert len(windowed) == 750 and windowed.count(False) == len(session)
    assert state == log.final_state

    windowed.clear()
    replayed = harness.reconstruct(harness.SessionLog.from_jsonl(log.to_jsonl()))
    assert windowed == session
    assert replayed == log.final_state


def test_every_odometer_step_goes_through_spend(monkeypatch):
    # odometers.spend.calls likewise: the replay reads each distinct
    # request once, but still spends once per record, and a spend that a
    # window only counts is a call too
    from rdpmeter import harness, odometers
    from rdpmeter.core import default_order_set
    from rdpmeter.mechanisms import GaussianMechanism

    calls = []
    original = odometers.spend

    def counted(state, request):
        # 1 for a spend a window counted without per-order work, else 0
        pending = state._pending
        original(state, request)
        calls.append(int(state._pending > pending))
        return state

    monkeypatch.setattr(odometers, "spend", counted)
    monkeypatch.setattr(harness, "spend", counted)
    config = harness.SessionConfig(
        mode=harness.ODOMETER,
        orders=default_order_set(),
        delta=1e-5,
        seed=0,
        source=harness.ScheduleReplay(
            steps=(
                harness.ScheduleStep(GaussianMechanism(2.0), 150),
                harness.ScheduleStep(GaussianMechanism(3.0), 100),
            )
        ),
    )
    log = harness.run_session(config)
    assert len(calls) == 250 and sum(calls) > 0
    harness.reconstruct(harness.SessionLog.from_jsonl(log.to_jsonl()))
    assert len(calls) == 500 and sum(calls[250:]) == sum(calls[:250])
