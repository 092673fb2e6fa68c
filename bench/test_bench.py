"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(run.BENCH_DIR)
TINY = workloads.Sizes(epochs=16, per_epoch=32, script_node_orders=15_000)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _result(out: io.StringIO) -> dict:
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_checks_outputs_and_prints_every_metric(workload, trace):
    out = io.StringIO()
    code = run.run(workload, 3, 0, trace, ROOT, TINY, out)
    result = _result(out)
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


@pytest.fixture(params=["filter", "odometer"])
def train(request, tmp_path):
    inputs, _ = workloads.setup(f"{request.param}-train", 3, ROOT, str(tmp_path), TINY)
    path = str(tmp_path / "session.jsonl")
    code, _, err = workloads._cli(workloads._session_argv(inputs, inputs.schedule_path, path))
    assert code == 0, err
    with open(path, encoding="utf-8") as handle:
        return inputs, handle.read()


def test_untouched_log_passes_every_check(train):
    inputs, text = train
    _, failures, log = workloads.check_train_log(inputs, text, inputs.queries)
    assert failures == []
    _, outcomes = workloads.library_loop(inputs)
    assert workloads.compare_with_library(inputs.mode, log, outcomes) == []
    counts = workloads.log_counts(log)
    if inputs.mode == "filter":
        assert counts["grants"] and counts["passes"] and counts["regrants"]
    else:
        assert counts["rung_climbs"] > 0


def _tamper_last_record(text: str, mode: str) -> str:
    lines = text.splitlines()
    record = json.loads(lines[-1])
    if mode == "filter":
        record["decision"] = "GRANT" if record["decision"] == "PASS" else "PASS"
    else:
        record["bound"]["eps"] = record["bound"]["eps"] * 0.5
    return "\n".join(lines[:-1] + [json.dumps(record)]) + "\n"


def test_tampered_log_is_rejected(train):
    inputs, text = train
    _, failures, log = workloads.check_train_log(
        inputs, _tamper_last_record(text, inputs.mode), inputs.queries
    )
    assert log is None and failures and "replay rejected" in failures[0]


def test_truncated_log_fails_the_record_for_record_comparison(train):
    inputs, text = train
    truncated = "".join(text.splitlines(keepends=True)[:-1])
    _, failures, log = workloads.check_train_log(inputs, truncated, inputs.queries)
    assert failures and log is not None  # replay alone accepts a shorter log
    _, outcomes = workloads.library_loop(inputs)
    assert workloads.compare_with_library(inputs.mode, log, outcomes)


def test_tampered_log_fails_the_run(monkeypatch):
    read = workloads._read

    def tampering_read(path):
        text = read(path)
        return _tamper_last_record(text, "filter") if path.endswith("session.jsonl") else text

    monkeypatch.setattr(workloads, "_read", tampering_read)
    out = io.StringIO()
    assert run.run("filter-train", 3, 0, True, ROOT, TINY, out) == 1
    result = _result(out)
    assert result["correct"] is False and result["failed"] >= 1


def test_reload_rejections_are_counted_as_failed_operations(tmp_path):
    # the tiny corpus holds one script the library refuses to reload,
    # whatever the seed: the scripts come from workloads.CORPUS_SEED
    refusals = []
    for seed in (3, 4):
        inputs, _ = workloads.setup("oracle-audit", seed, ROOT, str(tmp_path), TINY)
        refusals.append([k for k, item in enumerate(inputs.scripts) if item.script is None])
    assert refusals[0] == refusals[1] and len(refusals[0]) == 1
    refused = len(refusals[0])
    p = workloads.run_pass("oracle-audit", inputs, str(tmp_path))
    assert p.failures == []
    assert p.rejected == len(p.failed_at) == refused
    assert p.audited == len(inputs.scripts) - refused


def test_operations_are_counted_once_whatever_the_number_of_passes():
    def one_pass():
        p = workloads.Pass()
        p.check(True, "")
        p.refused()
        p.check(True, "")
        return p

    assert run.operations([one_pass()]) == (3, 1)
    assert run.operations([one_pass() for _ in range(7)]) == (3, 1)


def test_tracing_leaves_behaviour_unchanged(tmp_path):
    inputs, _ = workloads.setup("odometer-train", 3, ROOT, str(tmp_path), TINY)
    import rdpmeter.harness as harness

    originals = dict(vars(harness))
    logs = []
    tracer = spans.Tracer()
    for traced in (False, True):
        path = str(tmp_path / f"log-{traced}.jsonl")
        if traced:
            tracer.install()
        try:
            code, _, err = workloads._cli(
                workloads._session_argv(inputs, inputs.schedule_path, path)
            )
        finally:
            tracer.uninstall()
        assert code == 0, err
        with open(path, encoding="utf-8") as handle:
            logs.append(handle.read())
    assert logs[0] == logs[1]
    assert dict(vars(harness)) == originals
    stats = tracer.stats(0, tracer.mark())
    assert stats["odometers.spend"].calls == inputs.queries
    assert stats["cli.main"].self_ns > 0


def test_exits_nonzero_without_a_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "filter-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_a_pass_keeps_summaries_not_per_query_samples(tmp_path):
    inputs, _ = workloads.setup("odometer-train", 3, ROOT, str(tmp_path), TINY)
    p = workloads.run_pass("odometer-train", inputs, str(tmp_path))
    assert p.failures == []
    assert p.step["samples"] == inputs.queries
    assert len(p.call_s) == TINY.epochs
    assert not any(isinstance(v, list) and v for v in vars(p).values())


def test_floors_take_each_units_fastest_repeat_and_cancel_host_speed():
    fast = workloads.Pass(call_s={0: (2e-6, 180e-6), 1: (4e-6, 180e-6)},
                          session_s_by_key={0: (0.1, 180e-6), 1: (0.3, 180e-6)})
    slow = workloads.Pass(call_s={0: (3.2e-6, 288e-6), 1: (6.4e-6, 288e-6)},
                          session_s_by_key={0: (0.16, 288e-6), 1: (0.48, 288e-6)})
    both = run.floors([slow, fast])
    assert both["call_floor_raw_us"] == pytest.approx(3.0)
    assert both["call_floor_us"] == pytest.approx(3.0 * workloads.REFERENCE_US / 180.0)
    assert both["session_floor_raw_us"] == pytest.approx(200_000.0)
    # a run that only saw the slow regime reads the same once scaled
    alone = run.floors([slow])
    assert alone["call_floor_us"] == pytest.approx(both["call_floor_us"])
    assert alone["session_floor_us"] == pytest.approx(both["session_floor_us"])
