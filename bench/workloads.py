"""Seeded inputs, timed passes and output checks for the three workloads.

rdpmeter is not imported when this module loads: the caller imports it
with `import_rdpmeter` and times the import as part of set-up, because
it is part of the set-up cost a user pays. Every call into rdpmeter goes through a module
attribute looked up at the start of a pass, so names the tracer wraps
are picked up.
"""

import contextlib
import gc
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field

WORKLOADS = ("filter-train", "odometer-train", "oracle-audit")

DELTA = 1e-5
TRUNCATION_DELTA = 0.05
TRUNCATION_LEVELS = (1, 2, 3)
# Noise-scale bands, in schedule order: a big request, a small one, then
# two in between. The cap is placed half a big request past the halfway
# spend, and the epoch after the halfway mark is a big-request epoch, so
# a correct filter grants the first half, denies that whole epoch, then
# grants some small requests again (small/big ratio <= (50/140)^2 < 1/2).
SIGMA_BANDS = ((40.0, 50.0), (140.0, 170.0), (60.0, 75.0), (95.0, 120.0))
CAP_SCALE = (0.3, 1.2)  # script caps: this share of the worst-path declared spend
MAX_SCRIPT_DEPTH = 5
SHORT_ORDERS = (2.0, 4.0)
REJECTION_MARK = "under-declares"  # message of a script refused on reload
# The oracle-audit scripts are drawn from this fixed seed, not from --seed;
# --seed draws their caps, session seeds and the gaussian-check sigmas.
# Which scripts fail to reload (the known defect) depends on the scripts
# alone, so every run fails the same operations whatever its seed, and the
# audit's cost does not swing with each seed's corpus. Seed 0's corpus holds
# no such script and would hide the defect; seed 1's holds two.
CORPUS_SEED = 1
# Floors are taken over the first this many passes of a run (all of them
# when it has fewer), so that a floor does not drop just because a faster
# host or program fits more passes into the run. A train pass takes
# 10-18 s, an oracle-audit pass 4-6 s.
FLOOR_PASSES = {"filter-train": 2, "odometer-train": 2, "oracle-audit": 6}
EPOCH_SESSIONS = 32  # one-epoch train sessions per pass, each a unit of the session floor
EPOCH_REPEATS = 3  # runs of each one-epoch session per pass
# The reference unit's floor on the host the benchmark was built on (2 vCPU
# x86 VM at 2.1 GHz, CPython 3.11); floors are scaled by it, see reference_s.
REFERENCE_US = 180.0
_REFERENCE_XS = tuple(1.0 + i * 0.37 for i in range(38))


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the benchmark always runs FULL, tests use smaller ones."""

    epochs: int = 128  # multiple of 16: halfway is a big-request epoch, 1/16 is whole
    per_epoch: int = 250
    # oracle-audit adds scripts until their nodes times orders reach this
    # (59 scripts from CORPUS_SEED)
    script_node_orders: int = 80_000


FULL = Sizes()


@dataclass
class TrainInputs:
    mode: str  # "filter" or "odometer"
    schedule_path: str
    short_path: str
    epoch_paths: list  # one-epoch schedules of the first EPOCH_SESSIONS epochs
    queries: int
    short_queries: int
    dp_target: float
    orders: object
    requests: list  # (RdpCurve, count) per epoch, for the library loop


@dataclass
class AuditScript:
    script_path: str
    cap_path: str
    session_seed: int
    script: object  # the AdversaryScript reloaded from its file, or None
    cap: object


@dataclass
class AuditInputs:
    scripts: list
    sigmas: tuple


@dataclass
class Pass:
    """What one pass over a workload measured and found.

    `call_s` and `session_s_by_key` hold one time per repeated unit of work,
    under a key that names the same unit in every pass, so that a run can
    take each unit's fastest time; beside each is the time of the reference
    unit run right after it. Per-query samples are reduced to their summary
    before the pass ends, so a pass holds no per-query lists.
    """

    wall_s: float = 0.0
    queries: int = 0
    session_s: float = 0.0
    replay_s: float = 0.0
    short_queries: int = 0
    short_session_s: float = 0.0
    step: dict = field(default_factory=dict)  # per-query library call: p50/p99/mean ns, samples
    call_s: dict = field(default_factory=dict)  # unit -> (seconds per call, reference s)
    # session -> (seconds, reference unit seconds after it); a train pass
    # keeps the fastest of its EPOCH_REPEATS runs of each session, field by field
    session_s_by_key: dict = field(default_factory=dict)
    log_bytes: int = 0
    full_log_bytes: int = 0
    records: int = 0
    ops: int = 0
    # Place in the pass of each failed operation. Every pass runs the same
    # operations in the same order, so a place names one operation.
    failed_at: list = field(default_factory=list)
    rejected: int = 0  # scripts the CLI refused to reload (known defect)
    audited: int = 0  # scripts fully audited
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation; a failed one is recorded with its reason."""
        if not ok:
            self.failed_at.append(self.ops)
            self.failures.append(message)
        self.ops += 1
        return ok

    def refused(self) -> None:
        """Count one operation that failed by the known script-reload
        defect: a failed operation, but not a wrong output."""
        self.failed_at.append(self.ops)
        self.rejected += 1
        self.ops += 1


# ------------------------------------------------------------------ set-up


def import_rdpmeter(root: str) -> None:
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import rdpmeter
    import rdpmeter.cli  # noqa: F401  (not pulled in by the package)

    package = os.path.join(src, "rdpmeter")
    if os.path.dirname(os.path.abspath(rdpmeter.__file__)) != package:
        raise ImportError(f"rdpmeter imported from {rdpmeter.__file__}, not {package}")


def schedule_sigmas(rng: random.Random) -> tuple:
    return tuple(rng.uniform(lo, hi) for lo, hi in SIGMA_BANDS)


def setup(workload: str, seed: int, root: str, work: str, sizes: Sizes = FULL):
    """Write the workload's inputs under work, importing rdpmeter first
    if it is not loaded yet.

    Returns the inputs and the seconds this took.
    """
    t0 = time.perf_counter()
    import_rdpmeter(root)
    rng = random.Random(seed)
    sigmas = schedule_sigmas(rng)
    if workload in ("filter-train", "odometer-train"):
        inputs = _train_inputs(workload.split("-")[0], sigmas, work, sizes)
    elif workload == "oracle-audit":
        inputs = _audit_inputs(rng, sigmas, work, sizes)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs, time.perf_counter() - t0


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _train_inputs(mode, sigmas, work, sizes) -> TrainInputs:
    from rdpmeter.core import RdpCurve, curve_to_dp, default_order_set
    from rdpmeter.mechanisms import GaussianMechanism, gaussian_rdp_curve

    orders = default_order_set()
    epoch_sigmas = [sigmas[e % len(sigmas)] for e in range(sizes.epochs)]
    steps = [
        {"mech": {"kind": "gaussian", "sigma": s, "sensitivity": 1.0}, "count": sizes.per_epoch}
        for s in epoch_sigmas
    ]
    schedule_path = os.path.join(work, "schedule.json")
    short_path = os.path.join(work, "schedule-short.json")
    _write_json(schedule_path, {"steps": steps})
    _write_json(short_path, {"steps": steps[: sizes.epochs // 16]})
    epoch_paths = []
    for e, step in enumerate(steps[:EPOCH_SESSIONS]):
        epoch_paths.append(os.path.join(work, f"schedule-epoch-{e}.json"))
        _write_json(epoch_paths[-1], {"steps": [step]})

    curves = {s: gaussian_rdp_curve(GaussianMechanism(s), orders) for s in sigmas}
    requests = [(curves[s], sizes.per_epoch) for s in epoch_sigmas]
    half = sizes.epochs // 2
    spent = [0.0] * len(orders)
    for curve, count in requests[:half]:
        spent = [x + count * r for x, r in zip(spent, curve.values)]
    big = requests[half][0].values
    dp_target = curve_to_dp(
        RdpCurve(orders, tuple(x + 0.5 * r for x, r in zip(spent, big))), DELTA
    ).epsilon
    return TrainInputs(
        mode=mode,
        schedule_path=schedule_path,
        short_path=short_path,
        epoch_paths=epoch_paths,
        queries=sizes.epochs * sizes.per_epoch,
        short_queries=(sizes.epochs // 16) * sizes.per_epoch,
        dp_target=dp_target,
        orders=orders,
        requests=requests,
    )


def _node_count(node) -> int:
    return 0 if node is None else 1 + sum(_node_count(c) for c in node.children.values())


def _worst_path_total(node, m: int) -> list:
    if node is None:
        return [0.0] * m
    below = [_worst_path_total(child, m) for child in node.children.values()]
    return [
        r + max((b[i] for b in below), default=0.0)
        for i, r in enumerate(node.request.values)
    ]


def _audit_inputs(rng, sigmas, work, sizes) -> AuditInputs:
    from rdpmeter.core import OrderSet, RdpCurve, default_order_set
    from rdpmeter.oracle import random_script, script_from_json, script_to_json

    order_sets = (default_order_set(), OrderSet(SHORT_ORDERS))
    corpus_rng = random.Random(CORPUS_SEED)
    scripts = []
    node_orders = 0
    while node_orders < sizes.script_node_orders:
        k = len(scripts)
        orders = order_sets[k % 2]
        script = random_script(corpus_rng, orders, max_depth=MAX_SCRIPT_DEPTH)
        node_orders += _node_count(script.root) * len(orders)
        totals = _worst_path_total(script.root, len(orders))
        cap = RdpCurve(orders, tuple(rng.uniform(*CAP_SCALE) * t for t in totals))
        script_path = os.path.join(work, f"script-{k}.json")
        cap_path = os.path.join(work, f"cap-{k}.json")
        _write_json(script_path, script_to_json(script))
        _write_json(cap_path, cap.to_json())
        # The CLI reloads the script from this file; some reloads are refused
        # (renormalisation is not a fixed point). Those stay in the corpus.
        try:
            reloaded = script_from_json(json.loads(_read(script_path)))
        except ValueError:
            reloaded = None
        scripts.append(
            AuditScript(script_path, cap_path, rng.randrange(2**32), reloaded, cap)
        )
    return AuditInputs(scripts=scripts, sigmas=sigmas)


# ------------------------------------------------------------------ passes


def _cli(argv):
    """Run the CLI in-process; returns exit code, seconds and stderr."""
    from rdpmeter import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue().strip()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def run_pass(workload: str, inputs, work: str) -> Pass:
    p = Pass()
    t0 = time.perf_counter()
    if workload == "oracle-audit":
        _audit_pass(p, inputs, work)
    else:
        _train_pass(p, inputs, work)
    p.wall_s = time.perf_counter() - t0
    return p


def _session_argv(inputs: TrainInputs, schedule_path: str, out: str) -> list:
    argv = [inputs.mode, "--schedule", schedule_path, "--delta", repr(DELTA), "--out", out]
    if inputs.mode == "filter":
        argv += ["--dp-target", repr(inputs.dp_target)]
    return argv


def _train_pass(p: Pass, inputs: TrainInputs, work: str) -> None:
    """The library loop, the one-epoch CLI sessions, the short one (the
    first 1/16 of the schedule), the full one and its replay."""
    log_path = os.path.join(work, "session.jsonl")

    reference = []
    step_ns, expected = library_loop(inputs, reference)
    start = 0
    for e, (_, count) in enumerate(inputs.requests):
        p.call_s[e] = (sum(step_ns[start:start + count]) / count / 1e9, reference[e])
        start += count
    ordered = sorted(step_ns)
    p.step = {
        "p50_ns": percentile(ordered, 50),
        "p99_ns": percentile(ordered, 99),
        "mean_ns": sum(ordered) / len(ordered) if ordered else 0.0,
        "samples": len(ordered),
    }
    del step_ns, ordered

    for e, path in enumerate(inputs.epoch_paths):
        for _ in range(EPOCH_REPEATS):
            code, elapsed, err = _cli(_session_argv(inputs, path, log_path))
            reference = reference_s()
            if p.check(code == 0, f"epoch {e} session exited {code}: {err}"):
                count = inputs.requests[e][1]
                _, failures, _ = check_train_log(inputs, _read(log_path), count)
                if p.check(not failures, f"epoch {e} session: " + "; ".join(failures)):
                    best = p.session_s_by_key.get(e, (elapsed, reference))
                    p.session_s_by_key[e] = (min(best[0], elapsed), min(best[1], reference))

    code, elapsed, err = _cli(_session_argv(inputs, inputs.short_path, log_path))
    if p.check(code == 0, f"short session exited {code}: {err}"):
        p.short_session_s = elapsed
        p.short_queries = inputs.short_queries
        text = _read(log_path)
        p.log_bytes += len(text)
        _, failures, log = check_train_log(inputs, text, inputs.short_queries)
        p.records += len(log.records) if log else 0
        p.check(not failures, "; ".join(failures))

    code, elapsed, err = _cli(_session_argv(inputs, inputs.schedule_path, log_path))
    if not p.check(code == 0, f"session exited {code}: {err}"):
        return
    p.session_s = elapsed
    p.queries = inputs.queries
    text = _read(log_path)
    p.log_bytes += len(text)
    p.full_log_bytes = len(text)

    p.replay_s, failures, log = check_train_log(inputs, text, inputs.queries)
    p.check(not failures, "; ".join(failures))
    if log is not None:
        p.records += len(log.records)
        p.counts.update(log_counts(log))
        failures = compare_with_library(inputs.mode, log, expected)
        p.check(not failures, "; ".join(failures))


def reference_s() -> float:
    """Seconds of one run of a fixed pure-Python unit that does not touch
    rdpmeter (float maths over 38 orders, an argmin, dict updates), with
    the garbage collector off so the program's heap does not reach it.

    The host's CPU speed switches between regimes about 1.6x apart, for
    stretches of a second to minutes. A reference unit run right after
    each timed unit slows with it, so a floor divided by the reference's
    floor and multiplied by REFERENCE_US reads as time on the build host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for k in range(30):
            ys = tuple(x * 1.0001 + math.log1p(x) for x in _REFERENCE_XS)
            best = min(range(len(ys)), key=ys.__getitem__)
            acc[k % 7] = acc.get(k % 7, 0.0) + ys[best]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of a sorted list; 0 when it is empty."""
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)] if ordered else 0.0


def check_train_log(inputs: TrainInputs, text: str, queries: int):
    """Replay a session log (timed) and check what the workload guarantees.

    Returns replay seconds, a list of failures and the parsed log (None
    when it cannot be parsed).
    """
    from rdpmeter import core, harness

    failures = []
    t0 = time.perf_counter()
    try:
        log = harness.SessionLog.from_jsonl(text)
        state = harness.reconstruct(log)
    except (ValueError, KeyError, TypeError) as exc:
        return time.perf_counter() - t0, [f"replay rejected the log: {exc!r}"], None
    elapsed = time.perf_counter() - t0
    events = log.events
    if len(events) != queries:
        failures.append(f"log has {len(events)} queries, schedule has {queries}")
    if inputs.mode == "filter":
        eps = core.curve_to_dp(state.spent, DELTA).epsilon
        if not eps <= inputs.dp_target:
            failures.append(f"spent converts to {eps} > dp_target {inputs.dp_target}")
    else:
        bounds = [r["bound"]["eps"] for r in events]
        drops = [i for i in range(1, len(bounds)) if bounds[i] < bounds[i - 1]]
        if drops:
            failures.append(f"odometer bound decreases at record {drops[0]}")
    return elapsed, failures, log


def log_counts(log) -> dict:
    """Decision mix of a filter log, or rung climbs of an odometer log."""
    events = log.events
    if log.header.get("kind") == "filter":
        decisions = [r["decision"] for r in events]
        first_pass = decisions.index("PASS") if "PASS" in decisions else len(decisions)
        return {
            "grants": decisions.count("GRANT"),
            "passes": decisions.count("PASS"),
            "regrants": decisions[first_pass:].count("GRANT"),
        }
    climbs = 0
    previous = None
    for record in events:
        f = record["f_per_alpha"]
        if previous is not None:
            climbs += sum(1 for k, v in f.items() if v != previous[k])
        previous = f
    return {"rung_climbs": climbs}


def library_loop(inputs: TrainInputs, reference=None):
    """The calls an inline training loop makes, each timed on its own.

    Returns per-query nanoseconds and the decisions (filter) or running
    bounds (odometer) in query order. Given a list as `reference`, appends
    one reference_s() to it after each epoch.
    """
    from rdpmeter import filters, odometers

    clock = time.perf_counter_ns
    step_ns = []
    outcomes = []
    if inputs.mode == "filter":
        state = filters.new_filter_from_dp_target(inputs.dp_target, DELTA, inputs.orders)
        try_spend = filters.try_spend
        for curve, count in inputs.requests:
            for _ in range(count):
                t0 = clock()
                decision = try_spend(state, curve)
                step_ns.append(clock() - t0)
                outcomes.append(decision.value)
            if reference is not None:
                reference.append(reference_s())
    else:
        state = odometers.new_odometer(DELTA, inputs.orders)
        spend, running_bound = odometers.spend, odometers.running_bound
        for curve, count in inputs.requests:
            for _ in range(count):
                t0 = clock()
                spend(state, curve)
                bound = running_bound(state)
                step_ns.append(clock() - t0)
                outcomes.append(
                    {"eps": bound.eps_dp, "alpha": bound.witness_order, "f": bound.witness_level}
                )
            if reference is not None:
                reference.append(reference_s())
    return step_ns, outcomes


def compare_with_library(mode: str, log, outcomes: list) -> list:
    """Record-for-record comparison of a CLI log with the library loop."""
    events = log.events
    if len(events) != len(outcomes):
        return [f"log has {len(events)} records, library loop made {len(outcomes)} calls"]
    for i, (record, expected) in enumerate(zip(events, outcomes), start=1):
        if mode == "filter":
            got = record.get("decision")
        else:
            bound = record.get("bound", {})
            got = {k: bound.get(k) for k in ("eps", "alpha", "f")}
        if got != expected:
            return [f"record {i}: log has {got}, library loop gives {expected}"]
    return []


def _audit_pass(p: Pass, inputs: AuditInputs, work: str) -> None:
    from rdpmeter import harness

    out_path = os.path.join(work, "report.json")
    log_path = os.path.join(work, "session.jsonl")
    for k, item in enumerate(inputs.scripts):
        checks = [
            ("verify-filter", ["oracle", "verify-filter", "--script", item.script_path,
                               "--cap", item.cap_path, "--out", out_path]),
        ] + [
            (f"verify-truncated f={f}", ["oracle", "verify-truncated", "--script", item.script_path,
                                         "--delta", repr(TRUNCATION_DELTA), "--f", str(f),
                                         "--out", out_path])
            for f in TRUNCATION_LEVELS
        ] + [
            ("session", ["filter", "--script", item.script_path, "--cap", item.cap_path,
                         "--delta", repr(DELTA), "--seed", str(item.session_seed),
                         "--out", log_path]),
        ]
        failures = []
        refused = 0
        session_s = session_ref = 0.0
        for what, argv in checks:
            code, elapsed, err = _cli(argv)
            if what == "session":
                session_s, session_ref = elapsed, reference_s()
            else:
                p.call_s[(k, what)] = (elapsed, reference_s())
            if item.script is None:
                if code == 1 and REJECTION_MARK in err:
                    refused += 1
                else:
                    failures.append(f"{what} exited {code} on a script the library refuses")
                continue
            if code != 0:
                failures.append(f"{what} exited {code}: {err}")
            elif what == "session":
                p.session_s += elapsed
            elif not json.loads(_read(out_path))["ok"]:
                failures.append(f"{what} is not ok")
        if item.script is None:
            if refused == len(checks):
                p.refused()
            else:
                p.check(False, f"script {k}: " + "; ".join(failures))
            continue
        if not failures:
            text = _read(log_path)
            p.log_bytes += len(text)
            t0 = time.perf_counter()
            try:
                log = harness.SessionLog.from_jsonl(text)
                harness.reconstruct(log)
            except (ValueError, KeyError, TypeError) as exc:
                failures.append(f"replay rejected the log: {exc!r}")
            p.replay_s += time.perf_counter() - t0
        if p.check(not failures, f"script {k}: " + "; ".join(failures)):
            p.audited += 1
            p.queries += len(log.events)
            p.records += len(log.records)
            p.session_s_by_key[k] = (session_s, session_ref)
            decisions = [r["decision"] for r in log.events]
            for key, decision in (("grants", "GRANT"), ("passes", "PASS")):
                p.counts[key] = p.counts.get(key, 0) + decisions.count(decision)
            got = script_walk(item)
            p.check(got == decisions, f"script {k}: library walk {got}, session log {decisions}")
    p.full_log_bytes = p.log_bytes

    for i, sigma in enumerate(inputs.sigmas):
        code, elapsed, err = _cli(
            ["oracle", "gaussian-check", "--sigma", repr(sigma), "--out", out_path]
        )
        p.call_s[("gaussian-check", i)] = (elapsed, reference_s())
        ok = code == 0 and json.loads(_read(out_path))["ok"]
        p.check(ok, f"gaussian-check sigma={sigma} exited {code}: {err}")


def script_walk(item: AuditScript) -> list:
    """Drive a filter through a script as run_session does; returns the
    decisions in order."""
    import numpy as np
    from rdpmeter import filters, mechanisms
    from rdpmeter.oracle import BOTTOM

    state = filters.new_filter(item.cap)
    rng = np.random.default_rng(item.session_seed)
    node = item.script.root
    decisions = []
    while node is not None:
        decision = filters.try_spend(state, node.request)
        decisions.append(decision.value)
        outcome = BOTTOM if decision.value == "PASS" else mechanisms.sample(node.mech, 0, rng)
        node = node.children.get(outcome)
    return decisions
