"""The log view parses each distinct record line once, and the replay
reads each request a record carries. These tests keep the one-line parser
and the line-by-line walk as references (the walk with its numbering,
tail and header checks made type-exact, and format 2's elided requests), and
require the same records, verdicts and messages on mutated logs."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from log_formats import to_v1

from rdpmeter.core import (
    OrderSet,
    RdpCurve,
    _as_number,
    _check_delta,
    _read_curve,
    _read_order_list,
    default_order_set,
)
from rdpmeter.filters import new_filter, new_filter_from_dp_target
from rdpmeter.harness import (
    _DIVERGES,
    FILTER,
    ODOMETER,
    ScheduleReplay,
    ScheduleStep,
    SessionConfig,
    SessionLog,
    _bound_to_json,
    _read,
    _stepper,
    reconstruct,
    run_session,
)
from rdpmeter.mechanisms import GaussianMechanism
from rdpmeter.odometers import new_odometer, running_bound

ORDERS24 = OrderSet([2.0, 4.0])


def _schedule(sigmas, count):
    return ScheduleReplay(
        steps=tuple(ScheduleStep(GaussianMechanism(s), count) for s in sigmas)
    )


BASE_CONFIGS = {
    # the cap binds in the second step: GRANT, PASS and re-GRANT
    "filter": SessionConfig(
        mode=FILTER, orders=ORDERS24, delta=1e-5, seed=0,
        source=_schedule((1.0, 0.5, 3.0), 4), cap=RdpCurve(ORDERS24, (5.0, 10.0)),
    ),
    "sealed filter": SessionConfig(
        mode=FILTER, orders=ORDERS24, delta=1e-5, seed=0,
        source=_schedule((1.0, 3.0), 4), dp_target=9.0, sealed=True,
    ),
    # rungs climb inside a step, so tails change between equal requests
    "odometer": SessionConfig(
        mode=ODOMETER, orders=ORDERS24, delta=1e-5, seed=0,
        source=_schedule((1.0, 0.7), 6),
    ),
}
BASE_TEXTS = {name: run_session(c).to_jsonl() for name, c in BASE_CONFIGS.items()}
# the same sessions in format 1, where every record carries its request
BASE_TEXTS.update({f"{name} v1": to_v1(text) for name, text in list(BASE_TEXTS.items())})


def exact(a, b) -> bool:
    """a == b, with every leaf of the same type as well."""
    if type(a) is not type(b):
        return False
    if isinstance(b, dict):
        return a.keys() == b.keys() and all(exact(a[k], b[k]) for k in b)
    if isinstance(b, list):
        return len(a) == len(b) and all(map(exact, a, b))
    return a == b


def reference_records(text: str) -> list:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not records:
        raise ValueError("session log is empty")
    return records


def reference_reconstruct(records: list):
    """One curve read per record that carries a request; "i" must be an
    int, and every tail value must equal the step's type-exactly. A
    format 2 record without a request repeats the last one read. Header
    and records may carry only the keys their kind's writer writes."""
    header = records[0]
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    version = header.get("format", 1)
    if "format" in header and (type(version) is not int or version != 2):
        raise ValueError(f"unknown log format {version!r}")
    kind = header.get("kind")
    order_sets: dict = {}

    def read_curve(data) -> RdpCurve:
        return _read_curve(data, order_sets)

    def read_orders(listed) -> OrderSet:
        return _read_order_list(listed, order_sets)[0]

    if kind not in (FILTER, ODOMETER):
        raise ValueError(f"unknown session kind {kind!r}")
    writer_keys = {"format", "kind", "delta", "orders", "seed"} | (
        {"cap", "dp_target", "sealed"} if kind == FILTER else {"bound"}
    )
    extra = sorted(set(header) - writer_keys)
    if extra:
        raise ValueError(f"{kind} header has keys the writer never writes: {extra}")
    seed = _read("header", header, "seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValueError(f"header seed must be an integer in [0, 2**64), got {seed!r}")
    delta = _as_number(_read("header", header, "delta"), "header delta")
    try:
        _check_delta(delta)
    except ValueError as exc:
        raise ValueError(f"header {exc}") from None
    orders = _read("header", header, "orders", read_orders)
    if kind == FILTER:
        cap = _read("header", header, "cap", read_curve)
        if cap.orders.orders != orders.orders:
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
        if not exact(header.get("bound"), _bound_to_json(running_bound(state))):
            raise ValueError("header bound is not a fresh odometer's bound")
    advance = _stepper(state)
    request = None
    for i, record in enumerate(records[1:], start=1):
        where = f"record {i}"
        if not isinstance(record, dict):
            raise ValueError(f"{where} is not a JSON object")
        n = record.get("i")
        if type(n) is not int or n != i:
            raise ValueError(f"{where} is numbered {n!r}")
        if version == 1 or "request" in record or request is None:
            request = _read(where, record, "request", read_curve)
            if (request.orders is not state.orders
                    and request.orders.orders != state.orders.orders):
                raise ValueError(f"{where}: request is on orders other than the header's")
        tail = advance(request)
        for key, expected in tail.items():
            logged = _read(where, record, key)
            if not exact(logged, expected):
                raise ValueError(f"event {i}: " + _DIVERGES.get(
                    key, f"log says {logged}, replay decides {expected}"
                ))
        extra = sorted(set(record) - {"i", "request", *tail})
        if extra:
            raise ValueError(f"{where} has keys the writer never writes: {extra}")
    return state


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)


def state_bits(state) -> tuple:
    return (
        type(state).__name__,
        [v.hex() for v in state._spent],
        getattr(state, "_f", None),
        getattr(state, "_passed_once", None),
    )


# ------------------------------------------------------------- mutations

LEAF_VALUES = [0, 1, 2, 1.0, 2.0, True, False, -0.0, 0.5, None, "GRANT", "PASS",
               "x", [1], {}]
INSERTS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", "\u2028",
           "\u2029", "\n", "  \n", "\t", "\u00e9", "\u3000", "\u00a0"]


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _leaf_paths(v, path + (k,))
    else:
        yield path


def _mutate_line(line: str, kind: str, draw) -> str:
    try:
        obj = json.loads(line)
    except ValueError:
        return line
    if kind == "respace":
        return json.dumps(obj, separators=(",", ":"))
    if kind == "reorder" and isinstance(obj, dict):
        return json.dumps(dict(reversed(list(obj.items()))))
    if kind == "drop" and isinstance(obj, dict) and obj:
        del obj[draw(st.sampled_from(sorted(obj)))]
        return json.dumps(obj)
    if kind == "renumber" and isinstance(obj, dict):
        obj["i"] = draw(st.sampled_from([0, 1, 2, 3, 7, True, 1.0, 2.0, "1", None]))
        return json.dumps(obj)
    if kind in ("edit", "retype"):
        paths = [p for p in _leaf_paths(obj) if p]
        if paths:
            path = draw(st.sampled_from(paths))
            target = obj
            for k in path[:-1]:
                target = target[k]
            leaf = target[path[-1]]
            if kind == "edit":
                target[path[-1]] = draw(st.sampled_from(LEAF_VALUES))
            elif isinstance(leaf, (bool, int)):
                # an equal value of another type: 1 -> 1.0 or true
                target[path[-1]] = draw(st.sampled_from([float(leaf), leaf == 1]))
            elif isinstance(leaf, float) and leaf.is_integer():
                target[path[-1]] = int(leaf)
            return json.dumps(obj)
    return line


@st.composite
def mutated_logs(draw):
    text = BASE_TEXTS[draw(st.sampled_from(sorted(BASE_TEXTS)))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["respace", "reorder", "renumber", "drop", "edit", "retype", "insert",
             "blank", "crlf", "truncate", "duplicate", "swap", "duplicate i"]
        ))
        lines = text.split("\n")
        j = draw(st.integers(0, max(0, len(lines) - 2)))
        if kind in ("respace", "reorder", "renumber", "drop", "edit", "retype"):
            lines[j] = _mutate_line(lines[j], kind, draw)
        elif kind == "duplicate i":
            # a second "i" on every line from j on: json.loads keeps the last
            lines[j:] = [line[:-1] + ', "i": 3}' if line.endswith("}") else line
                         for line in lines[j:]]
        elif kind == "blank":
            lines.insert(j, draw(st.sampled_from(["", "   ", "\t", "\u3000"])))
        elif kind == "duplicate":
            lines.insert(j, lines[j])
        elif kind == "swap" and j + 1 < len(lines):
            lines[j], lines[j + 1] = lines[j + 1], lines[j]
        text = "\n".join(lines)
        if kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(INSERTS)) + text[at:]
        elif kind == "crlf":
            text = text.replace("\n", "\r\n")
        elif kind == "truncate":
            text = text[: len(text) - draw(st.integers(1, 40))]
    return text


@settings(max_examples=300, deadline=None)
@given(text=mutated_logs())
def test_records_and_verdicts_match_the_line_by_line_reference(text):
    got = outcome(lambda: SessionLog(text).records)
    want = outcome(reference_records, text)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    assert exact(got[1], want[1])
    verdict = outcome(lambda: state_bits(reconstruct(SessionLog.from_jsonl(text))))
    assert verdict == outcome(lambda: state_bits(reference_reconstruct(want[1])))


def test_a_line_that_only_looks_like_a_repeat_is_parsed():
    # record 1 is numbered with the string "1", three characters of text
    # where an int 1 is one. The next line is '{"i": 2' plus record 1's
    # text after its first character of "i" value: not JSON, so it must
    # be parsed (and rejected), not copied
    line = '{"i": "1", "request": {"orders": [2.0], "eps": [0.5]}, "decision": "GRANT"}'
    text = '{"kind": "filter"}\n' + line + '\n{"i": 2' + line[len('{"i": "'):] + "\n"
    got = outcome(lambda: SessionLog(text).records)
    assert got[0] is json.JSONDecodeError
    assert got == outcome(reference_records, text)


# ------------------------------------------------------ independent records


def _repeating_log() -> str:
    # sigma 100 climbs no rung: every record repeats one request and tail;
    # format 2 writes the request on record 1 only
    config = SessionConfig(
        mode=ODOMETER, orders=ORDERS24, delta=1e-5, seed=0,
        source=_schedule((100.0,), 10),
    )
    return run_session(config).to_jsonl()


def test_records_have_fresh_containers_and_shared_leaves():
    v2 = _repeating_log()
    tail = [("f_per_alpha",), ("bound",)]
    request = [("request",), ("request", "eps")]
    for text, paths in ((v2, tail), (to_v1(v2), tail + request)):
        log = SessionLog.from_jsonl(text)
        a, b = log.events[3], log.events[4]
        for path in paths:
            x, y = a, b
            for key in path:
                x, y = x[key], y[key]
            assert x == y and x is not y
        assert a["bound"]["eps"] is b["bound"]["eps"]
    assert a["request"]["eps"][0] is b["request"]["eps"][0]


def test_editing_a_nested_container_leaves_every_other_record_as_parsed():
    # format 1, where every record holds a request container of its own
    text = to_v1(_repeating_log())
    log = SessionLog.from_jsonl(text)
    log.events[6]["bound"]["eps"] = 0.0
    log.events[2]["request"]["eps"].append(1.0)
    edited = {7, 3}
    for n, (line, record) in enumerate(zip(text.splitlines(), log.records)):
        if n not in edited:
            assert exact(record, json.loads(line))
    with pytest.raises(ValueError, match="^record 3 has a malformed 'request'"):
        reconstruct(log)
    del log.events[2]["request"]["eps"][-1]
    with pytest.raises(ValueError, match="^event 7: running bound diverges$"):
        reconstruct(log)


# ------------------------------------------------------------------ memory


def _parse_peak(text: str) -> int:
    tracemalloc.start()
    try:
        log = SessionLog.from_jsonl(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log.events) == 4000
    return peak


@pytest.mark.parametrize("mode", [FILTER, ODOMETER])
def test_parse_peak_memory_is_at_most_twice_the_text(mode):
    # a 4,000-query schedule on the default orders; the filter's cap
    # binds early, so its log holds GRANT and PASS records. A format 2
    # line is a few dozen bytes, against a record of a few hundred, so the
    # ratio to the text holds for the format 1 text, which is still
    # parsed, and format 2 must parse in less memory than format 1
    config = SessionConfig(
        mode=mode, orders=default_order_set(), delta=1e-6, seed=0,
        source=_schedule([1.0 + 0.25 * k for k in range(40)], 100),
        dp_target=200.0 if mode == FILTER else None,
    )
    text = run_session(config).to_jsonl()
    v1_text = to_v1(text)
    peak, v1_peak = _parse_peak(text), _parse_peak(v1_text)
    assert v1_peak <= 2 * len(v1_text)
    assert peak <= 0.75 * v1_peak


def test_a_deeply_nested_template_is_copied_like_any_other():
    # the copier walks containers without recursion, so a template nested
    # as deep as json.loads reaches still yields its copies
    nested = "[" * 600 + "]" * 600
    text = '{"kind": "filter"}\n' + "".join(
        f'{{"i": {n}, "request": {nested}, "decision": "GRANT"}}\n' for n in (1, 2)
    )
    records = SessionLog(text).records
    assert records == reference_records(text)
    assert records[1]["request"] is not records[2]["request"]


def test_a_line_nested_past_the_parser_depth_is_a_value_error():
    # json.loads raises RecursionError for it
    deep = "[" * 100_000 + "]" * 100_000
    text = '{"kind": "filter"}\n' + f'{{"i": 1, "request": {deep}, "decision": "GRANT"}}\n'
    message = "^log line 2 is nested too deeply$"
    with pytest.raises(ValueError, match=message):
        SessionLog.from_jsonl(text)
    with pytest.raises(ValueError, match=message):
        reconstruct(SessionLog(text))
