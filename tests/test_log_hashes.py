"""Golden hashes of the benchmark's 32,000-query training-schedule logs.

The schedule comes from the benchmark's own input generator
(bench/workloads.py, loaded read-only, seed 7) and each log is written
through the CLI with its default seed. Any change to decisions, bounds
or the log format changes these bytes; a deliberate format change
updates the pinned values. The logs are format 2; written out as format
1 (each elided request given again, the header's "format" dropped) they
are byte for byte the format 1 logs pinned before format 2, so format 2
changed no decision or bound.
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest
from log_formats import to_v1

from rdpmeter import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS_PATH = ROOT / "bench" / "workloads.py"
LOG_SHA256 = {
    "filter": "d9e48d152a3e3d5f9d4b187061e42d2648a408fd677a944ac1a20837619a0792",
    "odometer": "e605a54a88b83b8ed381155a418afbf98100f546055cba388635ee6166f59a27",
}
V1_LOG_SHA256 = {
    "filter": "2f6e4566bc68d0c9ee6ab1dea74e59f1b2dedb706b142c696b336cafa82aafe5",
    "odometer": "848b23cf9c71f42c301082d5f71e1f2334b04162fa008fbbe1f1078adecf4c5c",
}


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        work = tmp_path_factory.mktemp("train")
        inputs, _ = module.setup("filter-train", 7, str(ROOT), str(work))
        yield module.DELTA, inputs, work
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("mode", ["filter", "odometer"])
def test_training_schedule_log_bytes_are_pinned(train_inputs, mode):
    delta, inputs, work = train_inputs
    out = work / f"{mode}.jsonl"
    argv = [mode, "--schedule", inputs.schedule_path, "--delta", repr(delta),
            "--out", str(out)]
    if mode == "filter":
        argv += ["--dp-target", repr(inputs.dp_target)]
    assert inputs.queries == 32_000
    assert cli.main(argv) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == LOG_SHA256[mode]
    assert hashlib.sha256(to_v1(data.decode()).encode()).hexdigest() == V1_LOG_SHA256[mode]
