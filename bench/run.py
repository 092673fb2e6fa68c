"""rdpmeter benchmark: long training-run sessions, log replay and oracle audits.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports rdpmeter from the src/ directory beside bench/. One
process, one thread: each pass waits for the previous call to return
(a closed loop with one client). Passes repeat until the next one would
end after --seconds; with --trace 0 the passes the floors are taken
over (FLOOR_PASSES) always run, so a run can last a little longer.
Every pass checks its outputs; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`, and the
exit code is 1 when a check failed.

--trace 0 reports the end-to-end metrics, with tracing off. setup_s is
the time to import rdpmeter in a fresh interpreter, scaled by that of
its third-party imports, plus the median of SETUP_REPEATS input generations, each scaled by
reference units timed around it. The
timings that are gated are floors: each repeated unit of work (an
oracle CLI call, a short session, one epoch of the library loop) keeps
its fastest time over the run's first passes, scaled by a reference
unit that is timed after it (see README.md). --trace 1 runs one
untraced pass, then traced passes, and reports the per-layer metrics of
BENCHMARK.json; spans are written to .bench-out/spans-WORKLOAD.csv.
Lines before the JSON are a readable table that also carries numbers
that are not gated (session_us_per_query, replay_us_per_query, pass_s,
step_us_p50, step_us_p99, step_us_mean, cost_growth,
audit_scripts_per_s, failed_ratio, the raw floors, the src/ line count
and sample counts).
"""

import argparse
import gc
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
IMPORT_CHILDREN = 3
# rdpmeter's third-party imports, without rdpmeter, and their import time
# in a fresh interpreter on the build host
IMPORT_REFERENCE = ("numpy", "scipy.integrate")
REFERENCE_IMPORT_S = 0.55
CHILD_TIMEOUT_S = 60
SETUP_REFERENCES = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "session_floor_us": "us",
    "call_floor_us": "us",
    "log_bytes_per_query": "B",
    "peak_rss_mb": "MB",
}
# Span names whose call count, self time or per-call median is reported.
CALLS = (
    "cli.main", "harness.run_session", "filters.try_spend", "odometers.spend",
    "odometers.running_bound", "odometers.FilterSchedule",
    "mechanisms.mechanism_rdp_curve", "mechanisms.discrete_rdp_curve",
    "mechanisms.sample", "core.OrderSet", "core.RdpCurve.from_json",
    "core.curve_to_dp", "oracle.script_from_json", "oracle.enumerate_views",
    "oracle.renyi_divergence_views", "oracle.numeric_renyi_gaussian",
)
SELF_S = (
    "cli.main", "harness.run_session", "harness.to_jsonl", "harness.from_jsonl",
    "harness.reconstruct", "filters.try_spend", "odometers.spend",
    "odometers.running_bound", "mechanisms.mechanism_rdp_curve",
    "mechanisms.discrete_rdp_curve", "core.OrderSet", "core.RdpCurve.from_json",
    "oracle.script_from_json", "oracle.enumerate_views",
    "oracle.renyi_divergence_views", "oracle.numeric_renyi_gaussian",
    "oracle.verify_filter_bound", "oracle.verify_truncated_odometer",
)
US_P50 = ("filters.try_spend", "odometers.spend", "odometers.running_bound")
PER_LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in CALLS},
    **{f"{n}.self_s": "s" for n in SELF_S},
    **{f"{n}.us_p50": "us" for n in US_P50},
    "harness.records": "count",
    "harness.log_bytes": "B",
    "filters.grant_ratio": "ratio",
    "odometers.rung_climbs": "count",
    spans.VIEW_LEAVES: "count",
    "trace.overhead_us_per_query": "us",
    "session_us_per_query": "us",
    "replay_us_per_query": "us",
    "pass_s": "s",
    "step_us_mean": "us",
    "step_us_p99": "us",
    "cost_growth": "ratio",
    "audit_scripts_per_s": "1/s",
    "failed_ratio": "ratio",
}

# Units of the numbers the table prints but no gate reads.
INFORMATIONAL_UNITS = {
    "session_us_per_query": "us",
    "replay_us_per_query": "us",
    "pass_s": "s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "step_us_mean": "us",
    "step_samples": "count",
    "cost_growth": "ratio",
    "audit_scripts_per_s": "1/s",
    "failed_ratio": "ratio",
    "session_floor_raw_us": "us",
    "call_floor_raw_us": "us",
    "session_reference_floor_us": "us",
    "call_reference_floor_us": "us",
}


def src_line_count(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "rdpmeter", "*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def _reference_floor() -> float:
    return min(workloads.reference_s() for _ in range(SETUP_REFERENCES))


def child_import_s(root, modules) -> float:
    """Seconds a fresh interpreter takes to import `modules`, from root's
    src/ or the installed packages; the child is waited for."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "[__import__(m) for m in sys.argv[2:]]; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"), *modules],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.splitlines()[-1])


def _scaled(before, seconds, after) -> float:
    """Seconds scaled to the reference unit: multiplied by REFERENCE_US and
    divided by the mean of the reference floors just before and after."""
    return seconds * workloads.REFERENCE_US * 1e-6 * 2 / (before + after)


def timed_setup(workload, seed, root, work, sizes):
    """Import rdpmeter, then generate the inputs SETUP_REPEATS times.

    A process imports rdpmeter once, so its import is timed in
    IMPORT_CHILDREN fresh interpreters, each followed by one that imports
    only the third-party modules rdpmeter imports (IMPORT_REFERENCE). The
    import time is the median ratio of the two, times REFERENCE_IMPORT_S.
    Import time follows the host's file and memory speed, which the
    pure-Python reference unit does not track: between two sets of ten
    runs the median raw import moved by 31%, while the reference import
    moves with it. Each generation is scaled to the reference unit
    timed just before and just after it, so that it reads as time on the
    build host whatever speed regime the host was in meanwhile. setup_s
    is the scaled import time plus the median scaled generation time.

    Returns the inputs, setup_s, the (rdpmeter, reference) import times and
    the raw generation samples, each as (reference floor before,
    seconds, reference floor after).
    """
    workloads.import_rdpmeter(root)
    imports = [(child_import_s(root, ["rdpmeter.cli"]), child_import_s(root, IMPORT_REFERENCE))
               for _ in range(IMPORT_CHILDREN)]
    generations = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = _reference_floor()
        inputs, seconds = workloads.setup(workload, seed, root, work, sizes)
        generations.append([before, seconds, _reference_floor()])
    setup_s = (statistics.median(own / ref for own, ref in imports) * REFERENCE_IMPORT_S
               + statistics.median(_scaled(*g) for g in generations))
    return inputs, setup_s, imports, generations


def measure(workload, inputs, work, seconds, tracer=None):
    """Untraced passes until the time is spent, and at least the
    FLOOR_PASSES that the floors are taken over; with a tracer, one
    untraced pass and then traced ones. Returns the untraced passes and a
    list of (pass, span stats, counters) for the traced ones."""
    untraced, traced = [], []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()
        if tracer is None or not untraced:
            p = workloads.run_pass(workload, inputs, work)
            untraced.append(p)
        else:
            tracer.counters.clear()
            begin = tracer.mark()
            tracer.install()
            try:
                p = workloads.run_pass(workload, inputs, work)
            finally:
                tracer.uninstall()
            stats = tracer.stats(begin, tracer.mark())
            traced.append((p, stats, dict(tracer.counters)))
        longest = max(longest, p.wall_s)
        if tracer is not None and not traced:
            continue
        if tracer is None and len(untraced) < workloads.FLOOR_PASSES[workload]:
            continue
        if time.perf_counter() - t0 + longest > seconds:
            return untraced, traced


def operations(passes):
    """Attempted and failed operations of a run, each operation counted once.

    Every pass repeats the same operations, so how many passes fit into
    the run must not change the counts: an operation is attempted once and
    failed when it failed in any pass. For a given seed both counts are
    then the same on every run.
    """
    attempted = max((p.ops for p in passes), default=0)
    failed = len({place for p in passes for place in p.failed_at})
    return attempted, failed


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _floors(samples_by_pass) -> dict:
    """Each unit's fastest time over the passes, field by field: a dict
    {key: tuple of numbers} per pass in, {key: tuple of minima} out.
    Host interference only adds time, so the fastest of a unit's repeats
    is the steadiest reading of its cost."""
    best = {}
    for samples in samples_by_pass:
        for key, values in samples.items():
            best[key] = tuple(map(min, zip(best[key], values))) if key in best else values
    return best


def floors(passes) -> dict:
    """Session and call floors of the given passes, raw and scaled to the
    reference unit: the mean floor of a session (or call) is divided by the
    mean floor of the reference timed after the same sessions (or calls),
    and multiplied by REFERENCE_US."""
    result = {}
    for name, samples in (("session", [p.session_s_by_key for p in passes]),
                          ("call", [p.call_s for p in passes])):
        units = _floors(samples).values()
        us = sum(s for s, _ in units) / len(units) * 1e6 if units else 0.0
        reference_us = sum(r for _, r in units) / len(units) * 1e6 if units else 0.0
        result[f"{name}_floor_us"] = (
            us * workloads.REFERENCE_US / reference_us if reference_us else 0.0
        )
        result[f"{name}_floor_raw_us"] = us
        result[f"{name}_reference_floor_us"] = reference_us
    return result


def _session_us(passes) -> float:
    """Median over passes of full-session seconds per query, in us."""
    return _median(p.session_s / p.queries * 1e6 for p in passes if p.queries)


def end_to_end(workload, passes, setup_s) -> dict:
    return {
        "setup_s": setup_s,
        **floors(passes[:workloads.FLOOR_PASSES[workload]]),
        "log_bytes_per_query": _median(p.full_log_bytes / p.queries for p in passes if p.queries),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def informational(workload, passes) -> dict:
    """Numbers that are printed but not gated (see README.md for why).
    Each is the median of its per-pass values."""
    attempted, failed = operations(passes)
    stepped = [p.step for p in passes if p.step.get("samples")]
    growth = [
        (p.session_s / p.queries) / (p.short_session_s / p.short_queries)
        for p in passes if p.short_queries and p.short_session_s > 0 and p.queries
    ]
    return {
        "session_us_per_query": _session_us(passes),
        "replay_us_per_query": _median(p.replay_s / p.queries * 1e6 for p in passes if p.queries),
        "pass_s": _median(p.wall_s for p in passes),
        "step_us_p50": _median(s["p50_ns"] / 1e3 for s in stepped),
        "step_us_p99": _median(s["p99_ns"] / 1e3 for s in stepped),
        "step_us_mean": _median(s["mean_ns"] / 1e3 for s in stepped),
        "step_samples": sum(s["samples"] for s in stepped),
        "cost_growth": _median(growth),
        "audit_scripts_per_s": (
            _median(p.audited / p.wall_s for p in passes) if workload == "oracle-audit" else 0.0
        ),
        "failed_ratio": failed / attempted if attempted else 0.0,
    }


def per_layer(workload, untraced, traced) -> dict:
    metrics = {}
    per_pass = []
    for p, stats, counters in traced:
        row = {}
        for name in CALLS:
            row[f"{name}.calls"] = stats[name].calls if name in stats else 0
        for name in SELF_S:
            row[f"{name}.self_s"] = stats[name].self_ns / 1e9 if name in stats else 0.0
        for name in US_P50:
            row[f"{name}.us_p50"] = stats[name].us_p50() if name in stats else 0.0
        row["harness.records"] = p.records
        row["harness.log_bytes"] = p.log_bytes
        decided = p.counts.get("grants", 0) + p.counts.get("passes", 0)
        row["filters.grant_ratio"] = p.counts.get("grants", 0) / decided if decided else 0.0
        row["odometers.rung_climbs"] = p.counts.get("rung_climbs", 0)
        row[spans.VIEW_LEAVES] = counters.get(spans.VIEW_LEAVES, 0)
        per_pass.append(row)
    for key in per_pass[0]:
        metrics[key] = _median(row[key] for row in per_pass)
    metrics["trace.overhead_us_per_query"] = (
        _session_us([p for p, _, _ in traced]) - _session_us(untraced)
    )
    info = informational(workload, untraced)
    metrics.update((name, info[name]) for name in PER_LAYER_UNITS if name in info)
    return metrics


def run(workload, seed, seconds, trace, root, sizes=workloads.FULL, out=sys.stdout) -> int:
    """Set up, measure for `seconds`, print the table and the JSON line.

    Returns the exit code: 0 when every check passed, 1 otherwise.
    """
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=root) as work:
        inputs, setup_s, setup_imports, setup_generations = timed_setup(
            workload, seed, root, work, sizes)
        tracer = spans.Tracer() if trace else None
        untraced, traced = measure(workload, inputs, work, seconds, tracer)
    passes = untraced + [p for p, _, _ in traced]
    failures = [f for p in passes for f in p.failures]
    attempted, failed = operations(passes)
    result = {"correct": not failures, "attempted": attempted, "failed": failed}
    table = [
        f"workload {workload}  seed {seed}  passes {len(untraced)} untraced, {len(traced)} traced",
        f"src/rdpmeter lines {src_line_count(root)}  (informational)",
        f"queries per pass {passes[0].queries}",
    ]
    if workload == "filter-train":
        table.append("decisions per pass " + json.dumps(passes[0].counts))
    if workload == "oracle-audit":
        table.append(f"scripts refused on reload (known defect) {passes[0].rejected}"
                     f" of {attempted} operations")
    table.append("session us/query per pass " + " ".join(f"{_session_us([p]):.2f}" for p in passes))
    table.append("replay us/query per pass " + " ".join(
        f"{p.replay_s / p.queries * 1e6:.2f}" for p in passes if p.queries))
    table += [f"failure: {f}" for f in failures[:20]]
    if trace:
        metrics = per_layer(workload, untraced, traced)
        units = PER_LAYER_UNITS
        out_dir = os.path.join(root, ".bench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{workload}.csv"))
    else:
        metrics = end_to_end(workload, passes, setup_s)
        units = END_TO_END_UNITS
        info = informational(workload, passes)
        table += ["setup import samples, rdpmeter/reference "
                  + "  ".join(f"{own:.4f}/{ref:.4f}" for own, ref in setup_imports) + " s",
                  "setup generation samples, unscaled (reference floor before, s, after) "
                  + "  ".join(f"{b * 1e6:.1f} us {t:.4f} s {a * 1e6:.1f} us"
                              for b, t, a in setup_generations)]
        info.update((name, metrics[name]) for name in metrics if name not in units)
        table += [f"{name:<34} {value:.6g} {INFORMATIONAL_UNITS[name]}  (informational)"
                  for name, value in info.items()]
    table += [f"{name:<34} {metrics[name]:.6g} {units[name]}" for name in units]
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print("\n".join(table), file=out)
    print(json.dumps(result), file=out, flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(BENCH_DIR)
    if not os.path.isfile(os.path.join(root, "src", "rdpmeter", "__init__.py")):
        print(f"error: no rdpmeter sources under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
