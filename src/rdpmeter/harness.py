"""Session runner: drives filters and odometers against scripted
adversaries or replayed budget schedules, logs every event, and exports
plot-ready traces.

A session log is JSONL text: the first line is a header carrying the
configuration; each following line is one query record, numbered "i" by
its position from 1. In format 2 (the header's "format") a record leaves
out a request equal to the previous record's; a header without "format"
is format 1, where every record carries its request. Accountants keep
only their running state, so the log is the one per-query record and
this module the one place that knows its format. `reconstruct`, the one
replay, re-executes every recorded request and cross-checks header,
numbering, decisions and bounds, so a log that replays cleanly is
internally consistent.
"""

import contextlib
import csv
import io
import json
import math
import os
import stat
from dataclasses import dataclass, fields
from numbers import Real
from typing import Callable, Iterator, Optional, Sequence, Union

from rdpmeter.core import (
    OrderSet,
    RdpCurve,
    _as_list,
    _as_number,
    _check_delta,
    _object,
    _read_curve,
    _read_order_list,
    curve_add,
    default_order_set,
)
from rdpmeter.filters import (
    Decision,
    FilterState,
    new_filter,
    new_filter_from_dp_target,
    remaining,
    try_spend,
    try_spend_run,
)
from rdpmeter.mechanisms import (
    GaussianMechanism,
    Mechanism,
    gaussian_rdp_curve,
    mechanism_from_json,
    mechanism_rdp_curve,
    mechanism_to_json,
    sample,
)
from rdpmeter.odometers import (
    OdometerState,
    RunningBound,
    new_odometer,
    running_bound,
    spend_run,
)
from rdpmeter.oracle import BOTTOM, AdversaryScript

FILTER = "filter"
ODOMETER = "odometer"
# the log format run_session writes
FORMAT = 2


@dataclass(frozen=True)
class ScheduleStep:
    """One epoch of a budget trace: a mechanism applied count times."""

    mech: Mechanism
    count: int = 1

    def __post_init__(self):
        count = self.count
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"count must be an integer >= 1, got {count!r}")


@dataclass(frozen=True)
class ScheduleReplay:
    """A training-run budget trace as a sequence of epochs."""

    steps: tuple[ScheduleStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def to_json(self) -> dict:
        return {
            "steps": [
                {"mech": mechanism_to_json(s.mech), "count": s.count}
                for s in self.steps
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScheduleReplay":
        listed = _object(data, "schedule", {"steps"}, ("steps",))["steps"]
        steps = []
        for k, step in enumerate(_as_list(listed, "steps")):
            _object(step, f"steps[{k}]", {"mech", "count"}, ("mech",))
            mech = mechanism_from_json(step["mech"], f"steps[{k}].mech")
            steps.append(ScheduleStep(mech=mech, count=step.get("count", 1)))
        return cls(steps=tuple(steps))


@dataclass(frozen=True)
class PolicySpec:
    """Parameters of the budget-adaptation rule.

    Every period_epochs epochs, a noisy count query (Gaussian, eval_sigma)
    measures progress. An improvement of at least threshold_sigmas
    standard deviations lowers the per-step budget by raising the noise
    scale one increment, but only while at least min_remaining_epochs more
    epochs fit under the cap at the current rate. Anything less walks the
    noise scale back down, never below the baseline (or sigma_floor).
    """

    period_epochs: int = 10
    threshold_sigmas: float = 3.0
    sigma_increment: float = 0.1
    eval_sigma: float = 100.0
    sigma_floor: Optional[float] = None
    sigma_ceiling: Optional[float] = None
    min_remaining_epochs: int = 50

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if f.type is int:
                kind, what = int, "an integer"
            else:
                kind, what = Real, "a finite real number"
            try:
                ok = isinstance(value, kind) and not isinstance(value, bool) and (
                    kind is int or math.isfinite(value)
                )
            except OverflowError:  # an int past the float range
                ok = False
            if not ok:
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if self.period_epochs < 1:
            raise ValueError("period_epochs must be >= 1")
        if self.sigma_increment <= 0.0:
            raise ValueError("sigma_increment must be positive")
        if self.threshold_sigmas < 0.0:
            raise ValueError("threshold_sigmas must be >= 0")
        if self.eval_sigma <= 0.0:
            raise ValueError("eval_sigma must be > 0")
        if self.min_remaining_epochs < 0:
            raise ValueError("min_remaining_epochs must be >= 0")

    @classmethod
    def from_json(cls, data: dict) -> "PolicySpec":
        return cls(**_object(data, "policy", frozenset(f.name for f in fields(cls))))


@dataclass(frozen=True)
class SessionConfig:
    mode: str
    orders: OrderSet
    delta: float
    seed: int
    source: Union[AdversaryScript, ScheduleReplay]
    cap: Optional[RdpCurve] = None
    dp_target: Optional[float] = None
    sealed: bool = False

    def __post_init__(self):
        if self.mode not in (FILTER, ODOMETER):
            raise ValueError(f"mode must be {FILTER!r} or {ODOMETER!r}")
        if self.mode == FILTER:
            if (self.cap is None) == (self.dp_target is None):
                raise ValueError(
                    "filter mode takes exactly one of cap or dp_target"
                )
            if self.cap is not None and self.cap.orders.orders != self.orders.orders:
                raise ValueError("cap curve and config use different order sets")
        else:
            if self.cap is not None or self.dp_target is not None:
                raise ValueError("odometer mode carries delta and orders only")
        _check_delta(self.delta)
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        if (
            isinstance(self.source, AdversaryScript)
            and self.source.orders is not None
            and self.source.orders.orders != self.orders.orders
        ):
            raise ValueError("script and config use different order sets")


class SessionLog:
    """A session's JSONL text and, for a live run, its final accountant.

    The text is the log, in format 1 or 2 (see run_session). `records`
    (and `header`, `events`) is a view parsed from it on first access and
    then kept: editing the view changes what `reconstruct` checks, never
    `to_jsonl()`. The view equals `[json.loads(line) for line in
    text.splitlines() if line.strip()]`, each record with its own
    containers, but each distinct record line is parsed once
    (`_parse_records`): a session repeats one tail, and in format 1 one
    request, thousands of times in a row.
    """

    def __init__(
        self,
        text: str,
        final_state: Union[FilterState, OdometerState, None] = None,
    ):
        self._text = text
        self._records: Optional[list[dict]] = None
        self.final_state = final_state

    @property
    def records(self) -> list[dict]:
        if self._records is None:
            records = _parse_records(self._text)
            if not records:
                raise ValueError("session log is empty")
            self._records = records
        return self._records

    @property
    def header(self) -> dict:
        return self.records[0]

    @property
    def events(self) -> list[dict]:
        return self.records[1:]

    def to_jsonl(self) -> str:
        return self._text

    @classmethod
    def from_jsonl(cls, text: str) -> "SessionLog":
        log = cls(text)
        log.records  # parse now, so malformed JSON fails at load
        return log


def _lines(text: str) -> Iterator[str]:
    """The nonblank lines of text.splitlines(), one at a time. A "\\n"
    always ends a line; the piece before it is split by splitlines, which
    knows the other boundaries ("\\r", "\\x0b", "\\x1c", "\\u2028", ...)."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start)
        if stop < 0:
            stop = len(text)
        for line in text[start:stop].splitlines():
            if line.strip():
                yield line
        start = stop + 1


def _copier(value) -> Callable[[], object]:
    """A function returning the JSON object or list value with fresh
    containers and the same (immutable) leaves. Each container is copied
    in one call and linked to its copied parent; no recursion, so any
    depth json.loads reaches is copied."""
    containers = [value]
    links = []  # (parent, key, child), as positions in containers
    for parent, container in enumerate(containers):  # breadth first
        items = container.items() if isinstance(container, dict) else enumerate(container)
        for key, item in items:
            if isinstance(item, (dict, list)):
                links.append((parent, key, len(containers)))
                containers.append(item)

    def copy():
        fresh = [c.copy() for c in containers]
        for parent, key, child in links:
            fresh[parent][key] = fresh[child]
        return fresh[0]

    return copy


def _parse_records(text: str) -> list:
    """json.loads of each nonblank line, each distinct line parsed once.

    A line that is byte for byte '{"i": n' plus the text after the "i"
    value of the last line json.loads read, n being its position, is a
    copy of that line's record with "i" set to n, once json.dumps is seen
    to reproduce that line: JSON text parses the same wherever it stands,
    and a reproduced line has no duplicate key. Every other line goes
    through json.loads, so the same lines raise the same errors, and a
    line that no later line repeats costs only its json.loads."""
    records: list = []
    # the last line json.loads read, its record, the line's text after its
    # "i" value, and the record's copier, made when a line first repeats it
    last = parsed = suffix = copy = None
    for line in _lines(text):
        head = f'{{"i": {len(records)}'
        if (
            suffix is not None
            and len(line) == len(head) + len(suffix)
            and line.startswith(head)
            and line.endswith(suffix)
        ):
            if copy is None and json.dumps(parsed) == last:
                copy = _copier(parsed)
            if copy is not None:
                record = copy()
                record["i"] = len(records)
                records.append(record)
                continue
        last = line
        try:
            parsed = json.loads(line)
        except RecursionError:
            raise ValueError(f"log line {len(records) + 1} is nested too deeply") from None
        records.append(parsed)
        copy = suffix = None
        if (
            isinstance(parsed, dict)
            and next(iter(parsed), None) == "i"
            and type(parsed["i"]) is int
        ):
            suffix = line[len('{"i": ') + len(str(parsed["i"])):]
    return records


def _bound_to_json(b: RunningBound) -> dict:
    return {"eps": b.eps_dp, "alpha": b.witness_order, "f": b.witness_level}


def _stepper(state: Union[FilterState, OdometerState]) -> Callable[[RdpCurve, int], list]:
    """The one run step, for the writer and the replay alike: send a request
    k times and return the records' tails (every key after "request") as
    runs [(count, tail), ...]. An unchanged tail is the same object: one
    dict per filter decision; an odometer's is rebuilt when a rung moved."""
    if isinstance(state, FilterState):
        grant, passed = ({"decision": d.value} for d in (Decision.GRANT, Decision.PASS))

        def filter_step(request: RdpCurve, k: int) -> list[tuple[int, dict]]:
            g = try_spend_run(state, request, k)
            if 0 < g < k:
                return [(g, grant), (k - g, passed)]
            return [(k, grant if g else passed)]

        return filter_step

    keys = [repr(a) for a in state.orders]

    def build(rungs: list[int], bound: RunningBound) -> dict:
        return {"f_per_alpha": dict(zip(keys, rungs)), "bound": _bound_to_json(bound)}

    def odometer_step(request: RdpCurve, k: int) -> list[tuple[int, dict]]:
        nonlocal tail
        runs, start = [], 0
        for position, rungs, bound in spend_run(state, request, k):
            if position > start:
                runs.append((position - start, tail))
            tail, start = build(rungs, bound), position
        runs.append((k - start, tail))
        return runs

    tail = build(state._f, running_bound(state))
    return odometer_step


def run_session(config: SessionConfig) -> SessionLog:
    """Execute the interaction loop; deterministic given the seed.

    The log is format 2: the header's first key is "format": 2, and a
    record carries "request" only when its request's JSON text differs
    from the previous record's, so no record after a schedule step's
    first repeats its request; every other record is "i" and the tail.
    Each record line is written as json.dumps would write the record,
    from fragments that are each encoded by json.dumps only when they
    change: the request once per schedule step or script node, the tail
    only when `_stepper` returns a new one. A schedule step is one step
    call, and each run of equal tails it returns one join.
    """
    header: dict = {
        "format": FORMAT,
        "kind": config.mode,
        "delta": config.delta,
        "orders": list(config.orders),
        "seed": config.seed,
    }
    if config.mode == FILTER:
        if config.cap is not None:
            state: Union[FilterState, OdometerState] = new_filter(
                config.cap, sealed=config.sealed
            )
        else:
            state = new_filter_from_dp_target(
                config.dp_target, config.delta, config.orders, sealed=config.sealed
            )
            header["dp_target"] = config.dp_target
        header["cap"] = state.cap.to_json()
        if config.sealed:
            header["sealed"] = True
    else:
        state = new_odometer(config.delta, config.orders)
        header["bound"] = _bound_to_json(running_bound(state))
    lines = [json.dumps(header) + "\n"]
    advance = _stepper(state)
    n = 1  # the next record's "i"
    tail: Optional[dict] = None
    tail_json = last_request_json = ""

    def write(request: RdpCurve, request_json: str, k: int) -> dict:  # the last tail
        nonlocal n, tail, tail_json, last_request_json
        for count, got in advance(request, k):
            if got is not tail:
                tail = got
                tail_json = json.dumps(got)[1:-1]
            first = str(n)
            if request_json != last_request_json:
                last_request_json = request_json
                first += f', "request": {request_json}'
            # the run's records in one join: '{"i": ' + n + end each
            end = f", {tail_json}}}\n"
            numbers = [first, *map(str, range(n + 1, n + count))]
            lines.append("".join(('{"i": ', (end + '{"i": ').join(numbers), end)))
            n += count
        return tail

    if isinstance(config.source, AdversaryScript):
        # imported here, its only use: numpy is most of a CLI start-up's
        # import time, and only a script session draws
        import numpy as np

        rng = np.random.default_rng(config.seed)
        node = config.source.root
        while node is not None:
            got = write(node.request, json.dumps(node.request.to_json()), 1)
            passed = got.get("decision") == Decision.PASS
            node = node.children.get(BOTTOM if passed else sample(node.mech, 0, rng))
    else:
        for step in config.source.steps:
            request = mechanism_rdp_curve(step.mech, config.orders)
            write(request, json.dumps(request.to_json()), step.count)
    return SessionLog("".join(lines), final_state=state)


def _read(where: str, record: dict, key: str, parse=None):
    """record[key], parsed; a missing key or a value parse cannot take
    raises a one-line ValueError naming where it is."""
    if key not in record:
        raise ValueError(f"{where} has no {key!r}")
    if parse is None:
        return record[key]
    try:
        return parse(record[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where} has a malformed {key!r}: {exc!r}") from None


def _same(logged, expected) -> bool:
    """logged == expected, each leaf of the same type too: a log that says
    true or 1.0 where the writer wrote 1 is not the writer's."""
    if type(logged) is not type(expected) or logged != expected:
        return False
    if isinstance(expected, dict):
        # equal objects hold the same keys: pair the values by key
        logged, expected = list(map(logged.__getitem__, expected)), list(expected.values())
    elif not isinstance(expected, list):
        return True
    types = list(map(type, expected))
    if list(map(type, logged)) != types:
        return False
    return (dict not in types and list not in types) or all(map(_same, logged, expected))


# the keys a writer puts in each kind's header
_HEADER_KEYS = {
    FILTER: {"format", "kind", "delta", "orders", "seed", "cap", "dp_target", "sealed"},
    ODOMETER: {"format", "kind", "delta", "orders", "seed", "bound"},
}

# how the replay names a diverging key whose value is too long to print
_DIVERGES = {"f_per_alpha": "filter indices diverge", "bound": "running bound diverges"}


def _replay(
    log: SessionLog,
) -> Iterator[tuple[dict, Union[FilterState, OdometerState]]]:
    """Open the accountant from the header and yield (header, accountant),
    then re-execute each record through `_stepper`, as a run of one, and
    yield it with the accountant after it, once every key of the tail the
    step gives equals the record's (see reconstruct). The accountant is
    one object, updated in place."""
    header = log.header
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    v2 = "format" in header  # format 1 has no "format"
    if v2 and (type(header["format"]) is not int or header["format"] != FORMAT):
        raise ValueError(f"unknown log format {header['format']!r}")
    kind = header.get("kind")
    # every curve of the log is read through one dict, seeded by the
    # header's, so requests on the header's orders share its OrderSet
    order_sets: dict = {}

    def read_curve(data) -> RdpCurve:
        return _read_curve(data, order_sets)

    def read_orders(listed) -> OrderSet:
        return _read_order_list(listed, order_sets)[0]

    if kind not in (FILTER, ODOMETER):
        raise ValueError(f"unknown session kind {kind!r}")
    extra = header.keys() - _HEADER_KEYS[kind]
    if extra:
        raise ValueError(
            f"{kind} header has keys the writer never writes: {sorted(extra)}"
        )
    seed = _read("header", header, "seed")
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"header seed must be an integer in [0, 2**64), got {seed!r}")
    delta = _as_number(_read("header", header, "delta"), "header delta")
    try:
        _check_delta(delta)
    except ValueError as exc:
        raise ValueError(f"header {exc}") from None
    orders = _read("header", header, "orders", read_orders)
    if kind == FILTER:
        cap = _read("header", header, "cap", read_curve)
        if cap.orders is not orders and cap.orders.orders != orders.orders:
            raise ValueError("header orders are not the cap's orders")
        if "dp_target" in header and cap != new_filter_from_dp_target(
            _as_number(_read("header", header, "dp_target"), "header dp_target"),
            delta,
            orders,
        ).cap:
            raise ValueError("header cap is not the cap its dp_target yields")
        sealed = header.get("sealed", False)
        if type(sealed) is not bool:
            raise ValueError(f"header sealed must be true or false, got {sealed!r}")
        state = new_filter(cap, sealed=sealed)
    else:
        state = new_odometer(delta, orders)
        if not _same(header.get("bound"), _bound_to_json(running_bound(state))):
            raise ValueError("header bound is not a fresh odometer's bound")
    yield header, state
    advance = _stepper(state)
    request = None
    for i, record in enumerate(log.events, start=1):
        where = f"record {i}"
        if not isinstance(record, dict):
            raise ValueError(f"{where} is not a JSON object")
        n = record.get("i")
        if isinstance(n, bool) or not isinstance(n, int) or n != i:
            raise ValueError(f"{where} is numbered {n!r}")
        elided = v2 and "request" not in record
        if request is None or not elided:
            request = _read(where, record, "request", read_curve)
            if (request.orders is not state.orders
                    and request.orders.orders != state.orders.orders):
                raise ValueError(f"{where}: request is on orders other than the header's")
        tail = advance(request, 1)[0][1]
        for key, expected in tail.items():
            logged = _read(where, record, key)
            if not _same(logged, expected):
                raise ValueError(f"event {i}: " + _DIVERGES.get(
                    key, f"log says {logged}, replay decides {expected}"
                ))
        # i and the tail were read, so any other length means a key more
        if len(record) != len(tail) + 2 - elided:
            extra = sorted(record.keys() - {"i", "request", *tail})
            raise ValueError(f"{where} has keys the writer never writes: {extra}")
        yield record, state


def reconstruct(log: SessionLog) -> Union[FilterState, OdometerState]:
    """Rebuild the final accountant state by re-executing the log.

    The header must agree with a fresh accountant (a filter's cap with its
    orders and dp_target, an odometer's bound with its orders and delta)
    and be typed as the writer writes it (delta and dp_target JSON
    numbers, delta in (0, 1), seed an int in [0, 2**64), sealed, if
    there, true or false), each record must carry its position as "i",
    and recorded decisions, filter indices, and bounds are cross-checked
    against the re-execution; any disagreement, and any line that is not
    an object with exactly the keys its kind's writer writes, raises
    ValueError. A format 2 record without a request repeats the previous
    record's; a header "format" other than 2 is rejected. A log cut after
    a whole record still replays.
    """
    for _, state in _replay(log):
        pass
    return state


# ---------------------------------------------------------------- replays


def _running_totals(schedule: ScheduleReplay, orders: OrderSet) -> Iterator[RdpCurve]:
    # the one accumulation loop, so the trace and the total agree bit for bit
    total = RdpCurve.zeros(orders)
    for step in schedule.steps:
        request = mechanism_rdp_curve(step.mech, orders)
        for _ in range(step.count):
            total = curve_add(total, request)
            yield total


def replay_schedule(schedule: ScheduleReplay, orders: OrderSet) -> list[RdpCurve]:
    """Cumulative spent curve after each query of the expanded schedule."""
    return list(_running_totals(schedule, orders))


def schedule_total(schedule: ScheduleReplay, orders: OrderSet) -> RdpCurve:
    """Last entry of replay_schedule, without keeping the trace."""
    total = RdpCurve.zeros(orders)
    for total in _running_totals(schedule, orders):
        pass
    return total


def simulate_policy(
    policy: PolicySpec,
    signal: Sequence[float],
    base: ScheduleReplay,
    orders: Optional[OrderSet] = None,
) -> ScheduleReplay:
    """Apply the adaptation rule to a baseline schedule, accounting only.

    A sealed filter whose cap is the baseline's total spend admits every
    query, in run order: the run lives inside the same total loss as its
    non-adaptive counterpart and stops at the filter's first PASS, so the
    emitted schedule holds only granted queries. The progress signal is
    an external input, one measurement per period; each period also pays
    for its own evaluation query, which is emitted after its epoch.
    """
    if orders is None:
        orders = default_order_set()
    for step in base.steps:
        if not isinstance(step.mech, GaussianMechanism):
            raise ValueError("the noise-adaptation rule needs Gaussian steps")
    n_periods = len(base.steps) // policy.period_epochs
    if len(signal) != n_periods:
        raise ValueError(
            f"signal has {len(signal)} entries for {n_periods} periods "
            f"({len(base.steps)} epochs / {policy.period_epochs} per period)"
        )
    state = new_filter(schedule_total(base, orders), sealed=True)
    eval_mech = GaussianMechanism(sigma=policy.eval_sigma, sensitivity=1.0)
    eval_curve = gaussian_rdp_curve(eval_mech, orders)
    threshold = policy.threshold_sigmas * policy.eval_sigma

    offset = 0.0
    out: list[ScheduleStep] = []
    for e, step in enumerate(base.steps):
        mech = step.mech
        sigma = mech.sigma + offset
        if policy.sigma_floor is not None:
            sigma = max(sigma, policy.sigma_floor)
        if policy.sigma_ceiling is not None:
            sigma = min(sigma, policy.sigma_ceiling)
        adapted = GaussianMechanism(sigma=sigma, sensitivity=mech.sensitivity)
        rate = gaussian_rdp_curve(adapted, orders)
        granted = try_spend_run(state, rate, step.count)
        if granted:
            out.append(ScheduleStep(mech=adapted, count=granted))
        if granted < step.count:
            break
        if (e + 1) % policy.period_epochs == 0:
            if try_spend(state, eval_curve) is Decision.PASS:
                break
            out.append(ScheduleStep(mech=eval_mech, count=1))
            if signal[(e + 1) // policy.period_epochs - 1] >= threshold:
                # budget decrease (more noise), gated on plenty of
                # training still fitting under the cap at today's rate:
                # the epochs that fit at the order with the most room
                fit = [
                    int(h / (step.count * r))
                    for h, r in zip(remaining(state).values, rate.values)
                    if r > 0.0  # a rate can underflow to 0
                ]
                if max(fit, default=0) >= policy.min_remaining_epochs:
                    offset += policy.sigma_increment
            else:
                offset = max(0.0, offset - policy.sigma_increment)
    return ScheduleReplay(steps=tuple(out))


# ----------------------------------------------------------------- export


def format_log(log: SessionLog, fmt: str) -> str:
    """The log as JSONL ("json" or "jsonl") or as a flat table ("csv")."""
    fmt = fmt.lower()
    if fmt in ("json", "jsonl"):
        return log.to_jsonl()
    if fmt == "csv":
        return log_to_csv(log)
    raise ValueError(f"unknown export format {fmt!r}")


def export(log: SessionLog, fmt: str, path: str) -> str:
    """Write the log as JSONL ("json") or a flat table ("csv")."""
    payload = format_log(log, fmt)
    try:
        _write_file(path, payload)
    except OSError as exc:
        raise OSError(f"cannot write session log to {path}: {exc}") from exc
    return path


def _write_file(path: str, text: str) -> None:
    """Leave path as open(path, "w") and a write of text leave it: the
    same bytes, inode and mode, links followed. An old regular file is
    written over in place and shrunk only if it was longer (a truncate
    costs more than the write). A failed write leaves the file empty
    (best effort). No fsync."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(old.st_mode) and old.st_size > written:
            os.ftruncate(fd, written)
    except OSError:
        with contextlib.suppress(OSError):
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def log_to_csv(log: SessionLog) -> str:
    """Flatten a session log through the replay: one row per event,
    cumulative spent columns; a log reconstruct rejects raises here too."""
    replay = _replay(log)
    _, state = next(replay)
    orders = state.orders.orders
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    spent_columns = [f"spent_{a}" for a in orders]
    if isinstance(state, FilterState):
        writer.writerow(["step", "decision"] + spent_columns)
        for record, state in replay:
            writer.writerow(
                [record["i"], record["decision"]] + [repr(v) for v in state._spent]
            )
    else:
        writer.writerow(
            ["step"] + spent_columns + [f"f_{a}" for a in orders] + ["eps_dp"]
        )
        for record, state in replay:
            writer.writerow(
                [record["i"]]
                + [repr(v) for v in state._spent]
                + state._f
                + [repr(record["bound"]["eps"])]
            )
    return buf.getvalue()
