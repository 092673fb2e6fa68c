"""Test helper: write a format 2 session log out as format 1."""

import json


def to_v1(text: str) -> str:
    """The format 1 log of a format 2 log: the header without "format",
    and each record that leaves out its request given the previous
    record's request again, right after "i". Every line is re-encoded by
    json.dumps, as the writer encodes it."""
    lines = []
    request = None
    for n, line in enumerate(text.splitlines()):
        record = json.loads(line)
        if n == 0:
            assert record.pop("format") == 2
        elif "request" in record:
            request = record["request"]
        else:
            assert request is not None, f"record {n} has no request to repeat"
            record = {"i": record["i"], "request": request} | record
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)
