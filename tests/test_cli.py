import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import stat
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from out_files import fail_midway, through_fifo

import rdpmeter
from rdpmeter.cli import _COMMANDS, _FlagTable, _Parser, main
from rdpmeter.core import OrderSet, RdpCurve, curve_to_dp, default_order_set
from rdpmeter.harness import SessionLog, export, reconstruct
from rdpmeter.mechanisms import (
    DiscreteMechanism,
    GaussianMechanism,
    discrete_rdp_curve,
    mechanism_to_json,
)
from rdpmeter.oracle import AdversaryScript, ScriptNode, script_to_json

ORDERS = OrderSet([2.0, 4.0])


@pytest.fixture
def files(tmp_path):
    rr = DiscreteMechanism(outcomes=("a", "b"), p0=(0.7, 0.3), p1=(0.3, 0.7))
    req = discrete_rdp_curve(rr, ORDERS)
    leaf = ScriptNode(mech=rr, request=req)
    root = ScriptNode(mech=rr, request=req, children={"a": leaf, "b": leaf})
    script = AdversaryScript(root=root)

    paths = {}

    def put(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
        return paths[name]

    put("script.json", script_to_json(script))
    put("curve.json", req.to_json())
    put(
        "cap.json",
        RdpCurve(ORDERS, tuple(2.0 * v for v in req.values)).to_json(),
    )
    put("orders.json", {"orders": [2.0, 4.0]})
    put(
        "sched.json",
        {
            "steps": [
                {"mech": mechanism_to_json(GaussianMechanism(1.0)), "count": 3}
            ]
        },
    )
    put(
        "base.json",
        {
            "steps": [
                {"mech": mechanism_to_json(GaussianMechanism(1.0)), "count": 512}
                for _ in range(20)
            ]
        },
    )
    put("signal.json", [0.0, 500.0])
    paths["tmp"] = str(tmp_path)
    return paths


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_matches_library_conversion(self, files, capsys):
        code, out, _ = run(
            ["convert", "--curve", files["curve.json"], "--delta", "1e-5"],
            capsys,
        )
        assert code == 0
        got = json.loads(out)
        want = curve_to_dp(RdpCurve.from_json(json.load(open(files["curve.json"]))), 1e-5)
        assert got == {
            "eps": want.epsilon,
            "alpha": want.witness_order,
            "delta": 1e-5,
        }

    def test_each_eps_pairs_with_its_listed_order(self, tmp_path, capsys):
        # eps(32) = 100 and eps(2) = 0, listed largest order first
        path = tmp_path / "curve.json"
        path.write_text('{"orders": [32, 2], "eps": [100, 0]}')
        code, out, _ = run(["convert", "--curve", str(path), "--delta", "1e-5"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "eps": math.log(1.0 / 1e-5), "alpha": 2.0, "delta": 1e-5
        }

    @pytest.mark.parametrize(
        "text",
        [
            '{"orders": "24", "eps": "12"}',
            '{"orders": [2, 4], "eps": "12"}',
            '{"orders": {"2": 1}, "eps": [1]}',
        ],
        ids=["both-strings", "eps-string", "orders-object"],
    )
    def test_curve_lists_that_are_not_lists_are_errors(self, tmp_path, capsys, text):
        path = tmp_path / "curve.json"
        path.write_text(text)
        code, out, err = run(["convert", "--curve", str(path), "--delta", "1e-5"], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "must be a list, got" in err

    @pytest.mark.parametrize(
        "text, bad",
        [
            ('{"orders": ["2", 4.0], "eps": ["1.0", true]}', "orders entry must be a number, got '2'"),
            ('{"orders": [2, 4.0], "eps": ["1.0", 1]}', "eps entry must be a number, got '1.0'"),
            ('{"orders": [2, 4.0], "eps": [1, true]}', "eps entry must be a number, got True"),
            ('{"orders": [2, null], "eps": [1, 1]}', "orders entry must be a number, got None"),
        ],
        ids=["string-order", "string-eps", "bool-eps", "null-order"],
    )
    def test_curve_entry_that_is_not_a_json_number_is_an_error(
        self, tmp_path, capsys, text, bad
    ):
        # float() would read "2" and true as 2.0 and 1.0
        path = tmp_path / "curve.json"
        path.write_text(text)
        code, out, err = run(["convert", "--curve", str(path), "--delta", "1e-5"], capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and str(path) in err and bad in err

    def test_missing_file_is_a_validation_error(self, files, capsys):
        code, _, err = run(
            ["convert", "--curve", files["tmp"] + "/nope.json", "--delta", "1e-5"],
            capsys,
        )
        assert code == 1
        assert "nope.json" in err

    def test_delta_whose_log_overflows_is_a_validation_error(self, files, capsys):
        code, out, err = run(
            ["convert", "--curve", files["curve.json"], "--delta", "1e-320"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "too small" in err

    def test_integer_past_the_digit_limit_is_a_validation_error(
        self, capsys, tmp_path
    ):
        # json.load raises a plain ValueError past the interpreter's
        # int-string limit (4,300 digits), not a JSONDecodeError
        path = tmp_path / "curve.json"
        path.write_text('{"orders": [2.0], "eps": [1' + "0" * 5000 + "]}")
        code, out, err = run(
            ["convert", "--curve", str(path), "--delta", "1e-5"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and str(path) in err

    def test_json_nested_past_the_parser_depth_is_a_validation_error(
        self, capsys, tmp_path
    ):
        # json.load raises RecursionError here
        path = tmp_path / "curve.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(
            ["convert", "--curve", str(path), "--delta", "1e-5"], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"error: {path} is nested too deeply to read\n"


class TestOrders:
    def test_default_set_has_38_orders(self, capsys):
        code, out, _ = run(["orders"], capsys)
        assert code == 0
        orders = json.loads(out)["orders"]
        assert len(orders) == 38
        assert orders[0] == 1.25 and orders[-1] == 32.0

    def test_granularity_set(self, capsys):
        code, out, _ = run(["orders", "--granularity", "4"], capsys)
        assert code == 0
        assert json.loads(out)["orders"] == [2.0, 4.0, 8.0, 16.0]

    def test_bad_granularity(self, capsys):
        code, _, err = run(["orders", "--granularity", "1"], capsys)
        assert code == 1
        assert err


class TestFilterCommand:
    def test_script_session_emits_header_and_events(self, files, capsys):
        code, out, _ = run(
            [
                "filter",
                "--cap", files["cap.json"],
                "--delta", "1e-5",
                "--script", files["script.json"],
                "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["kind"] == "filter"
        assert all("decision" in r for r in records[1:])

    def test_same_seed_writes_byte_identical_files(self, files, capsys, tmp_path):
        argv = [
            "filter",
            "--cap", files["cap.json"],
            "--delta", "1e-5",
            "--script", files["script.json"],
            "--seed", "11",
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cap_listing_its_orders_in_any_order_writes_the_same_log(
        self, files, tmp_path
    ):
        cap = json.load(open(files["cap.json"]))
        reversed_cap = tmp_path / "reversed-cap.json"
        reversed_cap.write_text(json.dumps(
            {"orders": cap["orders"][::-1], "eps": cap["eps"][::-1]}
        ))
        outs = []
        for cap_path in (files["cap.json"], str(reversed_cap)):
            outs.append(tmp_path / f"log-{len(outs)}.jsonl")
            argv = ["filter", "--cap", cap_path, "--delta", "1e-5",
                    "--schedule", files["sched.json"], "--out", str(outs[-1])]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_dp_target_schedule_session(self, files, capsys):
        code, out, _ = run(
            [
                "filter",
                "--dp-target", "8.0",
                "--delta", "1e-5",
                "--orders-file", files["orders.json"],
                "--schedule", files["sched.json"],
            ],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["dp_target"] == 8.0
        assert len(records) == 4

    def test_a_library_warning_prints_as_one_line(self, files, capsys):
        code, out, err = run(
            [
                "filter",
                "--dp-target", "1e-9",
                "--delta", "1e-5",
                "--schedule", files["sched.json"],
            ],
            capsys,
        )
        assert code == 0
        assert err == (
            "warning: DP target 1e-09 is below the conversion floor at every "
            "tracked order; the resulting budget is identically zero\n"
        )
        assert len(out.splitlines()) == 4  # the header and three PASSes

    def test_csv_format(self, files, capsys):
        code, out, _ = run(
            [
                "filter",
                "--cap", files["cap.json"],
                "--delta", "1e-5",
                "--schedule", files["sched.json"],
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "step,decision,spent_2.0,spent_4.0"

    @pytest.mark.parametrize("mode", ["filter", "odometer"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_out_file_is_what_export_writes(self, files, capsys, mode, fmt):
        # one writer: the CLI and export format a log through one switch;
        # the second round writes over the files the first one wrote
        argv = [mode, "--delta", "1e-5", "--schedule", files["sched.json"]]
        if mode == "filter":
            argv += ["--cap", files["cap.json"]]
        for _ in range(2):
            out = os.path.join(files["tmp"], f"cli.{fmt}")
            assert run(argv + ["--format", fmt, "--out", out], capsys)[0] == 0
            jsonl = os.path.join(files["tmp"], "log.jsonl")
            assert run(argv + ["--out", jsonl], capsys)[0] == 0
            with open(jsonl, encoding="utf-8") as handle:
                log = SessionLog.from_jsonl(handle.read())
            again = os.path.join(files["tmp"], f"export.{fmt}")
            export(log, fmt, again)
            with open(out, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()

    def test_delta_whose_log_overflows_is_a_validation_error(self, files, capsys):
        code, out, err = run(
            [
                "filter",
                "--cap", files["cap.json"],
                "--delta", "1e-320",
                "--schedule", files["sched.json"],
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "too small" in err

    @pytest.mark.parametrize("target", ["nan", "inf", "0"])
    def test_dp_target_that_is_not_a_finite_number_above_zero_is_an_error(
        self, files, capsys, target
    ):
        # NaN once gave an all-zero cap and a header that is not valid JSON
        code, out, err = run(
            [
                "filter",
                "--schedule", files["sched.json"],
                "--dp-target", target,
                "--delta", "1e-5",
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: eps_dp must be a finite number > 0, got {float(target)}\n"
        )

    @pytest.mark.parametrize("sigma", [1e-300, 1e-160])
    def test_gaussian_whose_curve_leaves_the_float_range_is_an_error(
        self, files, capsys, sigma
    ):
        path = os.path.join(files["tmp"], "tiny-sigma.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"steps": [{"mech": {"kind": "gaussian", "sigma": sigma}, "count": 1}]},
                handle,
            )
        code, out, err = run(
            ["filter", "--schedule", path, "--dp-target", "2", "--delta", "1e-5"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: sigma {sigma} is too small") and (
            err.count("\n") == 1
        )

    def test_gaussian_whose_curve_leaves_the_float_range_at_an_order_is_an_error(
        self, files, capsys
    ):
        # the scale is finite; order 3.75 of the default set passes the range
        path = os.path.join(files["tmp"], "small-sigma.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"steps": [{"mech": {"kind": "gaussian", "sigma": 1e-154}, "count": 1}]},
                handle,
            )
        code, out, err = run(
            ["filter", "--schedule", path, "--dp-target", "2", "--delta", "1e-5"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: sigma 1e-154 is too small for sensitivity 1.0: "
            "the curve leaves the float range at order 3.75\n"
        )

    def test_needs_exactly_one_budget_flag(self, files, capsys):
        code, _, err = run(
            [
                "filter",
                "--delta", "1e-5",
                "--script", files["script.json"],
            ],
            capsys,
        )
        assert code == 1
        assert "--cap / --dp-target" in err

    def test_needs_exactly_one_source(self, files, capsys):
        code, _, err = run(
            [
                "filter",
                "--cap", files["cap.json"],
                "--delta", "1e-5",
                "--script", files["script.json"],
                "--schedule", files["sched.json"],
            ],
            capsys,
        )
        assert code == 1
        assert "--script / --schedule" in err


class TestOdometerCommand:
    def test_emitted_log_reconstructs(self, files, capsys):
        code, out, _ = run(
            [
                "odometer",
                "--delta", "1e-5",
                "--orders-file", files["orders.json"],
                "--schedule", files["sched.json"],
            ],
            capsys,
        )
        assert code == 0
        state = reconstruct(SessionLog.from_jsonl(out))
        assert state.step == 3

    def test_misspelled_mechanism_key_is_refused(self, capsys, tmp_path):
        # "sensitivty" was once read as the default sensitivity 1.0: the
        # run printed epsilon 3.261 for 18.107 and exited 0
        mech = {"kind": "gaussian", "sigma": 2, "sensitivity": 5}
        path = tmp_path / "sched.json"
        argv = ["odometer", "--delta", "1e-5", "--schedule", str(path)]
        path.write_text(json.dumps({"steps": [{"mech": mech, "count": 1}]}))
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert json.loads(out.splitlines()[-1])["bound"]["eps"] == 18.107038634578924
        mech["sensitivty"] = mech.pop("sensitivity")
        path.write_text(json.dumps({"steps": [{"mech": mech, "count": 1}]}))
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: unknown steps[0].mech keys: sensitivty\n"

    def test_csv_format_columns(self, files, capsys):
        code, out, _ = run(
            [
                "odometer",
                "--delta", "1e-5",
                "--orders-file", files["orders.json"],
                "--schedule", files["sched.json"],
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "step,spent_2.0,spent_4.0,f_2.0,f_4.0,eps_dp"


class TestReplayCommand:
    def test_jsonl_trace(self, files, capsys):
        code, out, _ = run(
            [
                "replay",
                "--schedule", files["sched.json"],
                "--orders-file", files["orders.json"],
            ],
            capsys,
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [l["step"] for l in lines] == [1, 2, 3]
        assert lines[-1]["spent"]["eps"] == [3.0, 6.0]

    def test_csv_trace(self, files, capsys):
        code, out, _ = run(
            [
                "replay",
                "--schedule", files["sched.json"],
                "--orders-file", files["orders.json"],
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "step,spent_2.0,spent_4.0"
        assert len(rows) == 4


class TestPolicyCommand:
    def test_adapted_schedule_is_emitted(self, files, capsys):
        code, out, _ = run(
            [
                "policy",
                "--base", files["base.json"],
                "--signal", files["signal.json"],
                "--orders-file", files["orders.json"],
            ],
            capsys,
        )
        assert code == 0
        steps = json.loads(out)["steps"]
        # 10 training epochs, 1 eval query, then 10 more epochs, the last
        # cut at 511 queries where the sealed filter first refuses
        assert len(steps) == 21

    def test_signal_must_be_a_list(self, files, capsys, tmp_path):
        bad = tmp_path / "bad_signal.json"
        bad.write_text(json.dumps({"improvement": 3.0}))
        code, _, err = run(
            [
                "policy",
                "--base", files["base.json"],
                "--signal", str(bad),
                "--orders-file", files["orders.json"],
            ],
            capsys,
        )
        assert code == 1
        assert "list" in err

    @pytest.mark.parametrize(
        "text",
        ["[[1.0], 0.0]", "[true, 0.0]", "[NaN, 0.0]", "[0.0, Infinity]",
         '[0.0, "1"]', "[1" + "0" * 400 + ", 0.0]"],
        ids=["nested-list", "bool", "nan", "infinity", "string", "huge-int"],
    )
    def test_signal_must_hold_finite_numbers(self, files, capsys, tmp_path, text):
        bad = tmp_path / "bad_signal.json"
        bad.write_text(text)
        code, out, err = run(
            [
                "policy",
                "--base", files["base.json"],
                "--signal", str(bad),
                "--orders-file", files["orders.json"],
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(bad) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"bogus": 3}, "unknown policy keys: bogus"),
            ([1, 2], "JSON object"),
            ({"period_epochs": "10"}, "period_epochs must be an integer"),
            (
                {"min_remaining_epochs": 0, "sigma_increment": 10**400},
                "sigma_increment must be a finite real number",
            ),
            (
                {"threshold_sigmas": float("nan")},
                "threshold_sigmas must be a finite real number",
            ),
        ],
    )
    def test_malformed_policy_is_a_validation_error(
        self, files, capsys, tmp_path, payload, message
    ):
        bad = tmp_path / "bad_policy.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(
            [
                "policy",
                "--base", files["base.json"],
                "--signal", files["signal.json"],
                "--policy", str(bad),
                "--orders-file", files["orders.json"],
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1


class TestOracleCommands:
    def test_verify_filter_passes(self, files, capsys):
        code, out, _ = run(
            [
                "oracle", "verify-filter",
                "--script", files["script.json"],
                "--cap", files["cap.json"],
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["requirement"] == "any"

    def test_script_whose_root_request_lists_no_orders_is_an_error(self, files, capsys):
        path = files["tmp"] + "/no-orders.json"
        with open(files["script.json"]) as handle:
            data = json.load(handle)
        del data["request"]["orders"]
        with open(path, "w") as handle:
            json.dump(data, handle)
        code, out, err = run(
            ["oracle", "verify-filter", "--script", path, "--cap", files["cap.json"]],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: script.request has no 'orders'\n"

    def test_verify_truncated_passes(self, files, capsys):
        code, out, _ = run(
            [
                "oracle", "verify-truncated",
                "--script", files["script.json"],
                "--delta", "0.05",
                "--f", "2",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["requirement"] == "all"

    def test_gaussian_check_passes_at_default_tolerance(self, files, capsys):
        code, out, _ = run(
            [
                "oracle", "gaussian-check",
                "--sigma", "0.5",
                "--orders-file", files["orders.json"],
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_gaussian_check_fails_at_impossible_tolerance(self, files, capsys):
        code, out, _ = run(
            [
                "oracle", "gaussian-check",
                "--sigma", "2.0",
                "--tol", "1e-20",
                "--orders-file", files["orders.json"],
            ],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_gaussian_check_tolerance_must_be_finite_and_nonnegative(
        self, capsys, tol
    ):
        # NaN is not valid JSON in the report and fails every comparison;
        # Infinity would report "ok" whatever the error
        code, out, err = run(
            ["oracle", "gaussian-check", "--sigma", "2.0", "--tol", tol], capsys
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--tol" in err

    @pytest.mark.parametrize("sigma", ["1e200", "1e-5", "1e-200"])
    def test_sigma_whose_arithmetic_leaves_the_float_range_is_an_error(
        self, capsys, sigma
    ):
        # OverflowError in the quadrature's integrand, the quadrature's
        # ArithmeticError, and ZeroDivisionError from 2 * sigma**2 == 0
        code, out, err = run(["oracle", "gaussian-check", "--sigma", sigma], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sigma_whose_curve_leaves_the_float_range_names_the_order(self, capsys):
        code, out, err = run(["oracle", "gaussian-check", "--sigma", "1e-154"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: sigma 1e-154 is too small for sensitivity 1.0: "
            "the curve leaves the float range at order 3.75\n"
        )

    def test_selftest_passes(self, capsys):
        code, out, _ = run(
            ["oracle", "selftest", "--count", "5", "--seed", "7"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == 0
        assert report["checks"] == 20

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_selftest_of_no_script_is_an_error(self, capsys, count):
        # a count below 1 checks nothing, so it cannot report a pass
        code, out, err = run(["oracle", "selftest", "--count", count], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: --count must be an integer >= 1, got {count}\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(["audit"], capsys)
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(["convert"], capsys)
        assert code == 1
        assert "--curve" in err

    def test_unwritable_out_path(self, files, capsys):
        code, _, err = run(
            [
                "orders",
                "--out", "/no/such/dir/orders.json",
            ],
            capsys,
        )
        assert code == 1
        assert "/no/such/dir" in err


OUT_COMMANDS = {
    "filter": lambda f: ["filter", "--cap", f["cap.json"], "--delta", "1e-5",
                         "--schedule", f["sched.json"]],
    "odometer": lambda f: ["odometer", "--delta", "1e-5", "--schedule", f["sched.json"]],
    "convert": lambda f: ["convert", "--curve", f["curve.json"], "--delta", "1e-5"],
    "verify-filter": lambda f: ["oracle", "verify-filter", "--script", f["script.json"],
                                "--cap", f["cap.json"]],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
class TestOutFile:
    """--out leaves what open(path, "w") leaves, written over in place."""

    def _write(self, files, capsys, command, path):
        code, out, err = run(OUT_COMMANDS[command](files) + ["--out", path], capsys)
        assert (code, out, err) == (0, "", "")

    def _expected(self, files, capsys, command):
        path = os.path.join(files["tmp"], "fresh.out")
        self._write(files, capsys, command, path)
        with open(path, "rb") as handle:
            return handle.read()

    @pytest.mark.parametrize("size", ["longer", "same", "shorter"])
    def test_rewrite_leaves_the_new_bytes_on_the_same_inode(
        self, files, capsys, command, size
    ):
        want = self._expected(files, capsys, command)
        old = {"longer": b"x" * (len(want) + 4096), "same": b"y" * len(want),
               "shorter": b"z"}[size]
        path = os.path.join(files["tmp"], "old.out")
        with open(path, "wb") as handle:
            handle.write(old)
        inode = os.stat(path).st_ino
        self._write(files, capsys, command, path)
        with open(path, "rb") as handle:
            assert handle.read() == want
        assert os.stat(path).st_ino == inode

    def test_a_new_file_gets_the_umask_mode(self, files, capsys, command):
        path = os.path.join(files["tmp"], "new.out")
        mask = os.umask(0o027)
        try:
            self._write(files, capsys, command, path)
        finally:
            os.umask(mask)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_links_are_followed(self, files, capsys, command):
        want = self._expected(files, capsys, command)
        target = os.path.join(files["tmp"], "target.out")
        with open(target, "wb") as handle:
            handle.write(b"x" * (len(want) + 4096))
        symlink = os.path.join(files["tmp"], "symlink.out")
        hardlink = os.path.join(files["tmp"], "hardlink.out")
        os.symlink(target, symlink)
        os.link(target, hardlink)
        self._write(files, capsys, command, symlink)
        assert os.path.islink(symlink)
        for path in (target, hardlink):
            with open(path, "rb") as handle:
                assert handle.read() == want

    def test_a_fifo_and_dev_null_work(self, files, capsys, command):
        want = self._expected(files, capsys, command)
        path = os.path.join(files["tmp"], "fifo.out")
        got = through_fifo(path, lambda: self._write(files, capsys, command, path))
        assert got == want
        self._write(files, capsys, command, os.devnull)

    def test_a_directory_is_one_line(self, files, capsys, command):
        code, out, err = run(OUT_COMMANDS[command](files) + ["--out", files["tmp"]], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {files['tmp']}: ")
        assert err.count("\n") == 1

    def test_a_failed_write_is_one_line_and_leaves_an_empty_file(
        self, files, capsys, monkeypatch, command
    ):
        path = os.path.join(files["tmp"], "old.out")
        with open(path, "wb") as handle:
            handle.write(b"an older and much longer output\n" * 100)
        fail_midway(monkeypatch)
        code, out, err = run(OUT_COMMANDS[command](files) + ["--out", path], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1
        with open(path, "rb") as handle:
            assert handle.read() == b""


COMMAND_PATHS = [
    ("convert",),
    ("orders",),
    ("filter",),
    ("odometer",),
    ("replay",),
    ("policy",),
    ("oracle", "verify-filter"),
    ("oracle", "verify-truncated"),
    ("oracle", "gaussian-check"),
    ("oracle", "selftest"),
]


def _count_parsers(monkeypatch) -> list:
    """The prog of every argparse parser built from here on."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return progs


class TestDispatch:
    @pytest.mark.parametrize("tail", [["--bogus"], ["-h"]], ids=" ".join)
    @pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
    def test_a_usage_error_or_help_builds_only_its_own_parser(
        self, monkeypatch, capsys, path, tail
    ):
        # the flag table cannot decide either, so argparse writes them
        progs = _count_parsers(monkeypatch)
        try:
            code = main(list(path) + tail)
        except SystemExit as exc:
            code = exc.code
        assert code == (0 if tail == ["-h"] else 1)
        assert progs == ["rdpmeter " + " ".join(path)]

    @pytest.mark.parametrize(
        "case", ["orders", "selftest of no script", "one-step filter session"]
    )
    def test_a_well_formed_call_builds_no_parser(
        self, monkeypatch, capsys, files, case
    ):
        out = os.path.join(files["tmp"], "session.jsonl")
        argv, want = {
            "orders": (["orders"], 0),
            # refused by its handler, not by a parser
            "selftest of no script": (["oracle", "selftest", "--count", "0"], 1),
            "one-step filter session": (
                ["filter", "--schedule", files["sched.json"], "--cap",
                 files["cap.json"], "--delta", "1e-5", "--out", out],
                0,
            ),
        }[case]
        progs = _count_parsers(monkeypatch)
        assert main(argv) == want
        assert progs == []

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["oracle"]], ids=repr)
    def test_argv_naming_no_command_is_a_usage_error(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("path", [()] + COMMAND_PATHS, ids=" ".join)
    def test_help_exits_zero_under_the_command_name(self, capsys, path):
        with pytest.raises(SystemExit) as exc:
            main(list(path) + ["-h"])
        assert exc.value.code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith(" ".join(("usage: rdpmeter",) + path) + " [-h]")


GAUSSIAN_NO_SIGMA = {"steps": [{"mech": {"kind": "gaussian"}, "count": 1}]}
MECH_AS_LIST = {"steps": [{"mech": [1, 2], "count": 1}]}
NODE_NO_REQUEST = {"mech": {"kind": "gaussian", "sigma": 1.0}}
# a probability ratio of 1e10: (p/q)**alpha passes the float range at alpha = 32
OVERFLOWING_NODE = {
    "mech": {
        "kind": "discrete",
        "outcomes": ["a", "b"],
        "p0": [0.999, 0.001],
        "p1": [1.0 - 1e-13, 1e-13],
    },
    "request": RdpCurve(default_order_set(), (1e6,) * 38).to_json(),
}


# Every JSON loader a command reads a file through, with one row per
# object it checks: the command (an argv entry that is not a string is
# written to a file of its own, and the file under test goes last), a
# well-formed file, the path to the object inside it, and a key that the
# object must hold (None when every key is optional). Each row gives the
# object an unknown key, puts a string in its place, and drops that key.
CURVE = {"orders": [2.0, 4.0], "eps": [1.0, 2.0]}
GAUSSIAN = {"kind": "gaussian", "sigma": 2.0, "sensitivity": 1.0}
DISCRETE = {"kind": "discrete", "outcomes": ["a", "b"], "p0": [0.6, 0.4], "p1": [0.4, 0.6]}
NODE = {
    "mech": DISCRETE,
    "request": {"orders": [2.0, 4.0], "eps": [5.0, 5.0]},
    "children": {"a": {"mech": DISCRETE, "request": {"eps": [5.0, 5.0]}}},
}


def _schedule(mech):
    return {"steps": [{"mech": mech, "count": 1}]}


CONVERT = ["convert", "--delta", "1e-5", "--curve"]
REPLAY = ["replay", "--schedule"]
REPLAY_ON_CURVE_ORDERS = ["replay", "--orders-file", {"orders": CURVE["orders"]}, "--schedule"]
VERIFY = ["oracle", "verify-truncated", "--delta", "0.05", "--f", "1", "--script"]
POLICY = ["policy", "--base", _schedule(GAUSSIAN), "--signal", [], "--policy"]
ODOMETER_ORDERS = ["odometer", "--delta", "1e-5", "--schedule", _schedule(GAUSSIAN),
                   "--orders-file"]
GAUSSIAN_CHECK_ORDERS = ["oracle", "gaussian-check", "--sigma", "1", "--orders-file"]
LOADERS = {
    "RdpCurve.from_json": [(CONVERT, CURVE, (), "orders")],
    "ScheduleReplay.from_json": [
        (REPLAY, _schedule(GAUSSIAN), (), "steps"),
        (REPLAY, _schedule(GAUSSIAN), ("steps", 0), "mech"),
    ],
    "mechanism_from_json": [
        (REPLAY, _schedule(GAUSSIAN), ("steps", 0, "mech"), "sigma"),
        (REPLAY, _schedule(DISCRETE), ("steps", 0, "mech"), "p1"),
        (REPLAY_ON_CURVE_ORDERS, _schedule({"kind": "raw", "curve": CURVE}),
         ("steps", 0, "mech"), "curve"),
        (REPLAY_ON_CURVE_ORDERS, _schedule({"kind": "raw", "curve": CURVE}),
         ("steps", 0, "mech", "curve"), "eps"),
    ],
    "script_from_json": [(VERIFY, NODE, (), "request")],
    "_node_from_json": [
        (VERIFY, NODE, ("children", "a"), "mech"),
        (VERIFY, NODE, ("children", "a", "request"), "eps"),
    ],
    "PolicySpec.from_json": [(POLICY, {}, (), None)],
    "_orders_from_json": [
        (ODOMETER_ORDERS, {"orders": [2.0, 4.0]}, (), "orders"),
        (GAUSSIAN_CHECK_ORDERS, {"orders": [2.0, 4.0]}, (), "orders"),
    ],
}


def _changed(payload, path, change):
    """A copy of payload with the value at path replaced by change(value)."""
    payload = json.loads(json.dumps(payload))
    if not path:
        return change(payload)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent[path[-1]])
    return payload


def _without(key):
    return lambda value: {k: v for k, v in value.items() if k != key}


def _loader_cases():
    for loader, rows in LOADERS.items():
        for argv, good, path, required in rows:
            name = f"{loader}:{argv[0]}:{'.'.join(map(str, path)) or 'top'}:{required}"
            yield pytest.param(
                _changed(good, path, lambda value: {**value, "bogus": 1}), argv,
                "keys: bogus", id=f"{name}-unknown-key",
            )
            # a string: an orders file may be a list
            yield pytest.param(
                _changed(good, path, lambda value: "x"), argv,
                "got str", id=f"{name}-not-an-object",
            )
            if required is not None:
                yield pytest.param(
                    _changed(good, path, _without(required)), argv,
                    f"has no {required!r}", id=f"{name}-without-{required}",
                )


@pytest.mark.parametrize(
    "payload, argv, problem",
    [
        pytest.param(
            GAUSSIAN_NO_SIGMA, ["odometer", "--delta", "1e-5", "--schedule"],
            "steps[0].mech has no 'sigma'", id="gaussian-without-sigma",
        ),
        pytest.param(
            {"orders": [2.0, 4.0]}, ["convert", "--delta", "1e-5", "--curve"],
            "curve has no 'eps'", id="curve-without-eps",
        ),
        pytest.param(
            [1, 2], ["odometer", "--delta", "1e-5", "--schedule"],
            "schedule must be a JSON object, got list", id="schedule-list",
        ),
        pytest.param(
            MECH_AS_LIST, ["replay", "--schedule"],
            "steps[0].mech must be a JSON object, got list", id="mechanism-list",
        ),
        pytest.param(
            NODE_NO_REQUEST,
            ["oracle", "verify-truncated", "--delta", "0.05", "--f", "1", "--script"],
            "script has no 'request'", id="node-without-request",
        ),
        pytest.param(
            [[2.0]], ["oracle", "gaussian-check", "--sigma", "1", "--orders-file"],
            "each orders entry must be a number, got [2.0]", id="orders-holding-a-list",
        ),
        # an orders file is read as a curve's orders are: not coerced
        pytest.param(
            ["2", "4"], ODOMETER_ORDERS, "each orders entry must be a number, got '2'",
            id="orders-of-strings",
        ),
        pytest.param(
            {"steps": {"a": 1}}, REPLAY, "steps must be a list, got dict",
            id="steps-object",
        ),
        pytest.param(
            _schedule({"kind": "gausian", "sigma": 2.0}), REPLAY,
            "unknown mechanism kind 'gausian' in steps[0].mech", id="mechanism-kind",
        ),
        *_loader_cases(),
    ],
)
def test_malformed_input_file_is_a_validation_error(
    tmp_path, capsys, payload, argv, problem
):
    argv = list(argv)
    for k, arg in enumerate(argv):
        if not isinstance(arg, str):
            argv[k] = str(tmp_path / f"arg{k}.json")
            with open(argv[k], "w", encoding="utf-8") as handle:
                json.dump(arg, handle)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(argv + [str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: ") and problem in err
    for name in ("TypeError", "KeyError", "AttributeError", "RecursionError", "Traceback"):
        assert name not in err


def test_every_json_loader_is_in_the_malformed_input_table():
    # a loader added without a row in LOADERS would have no unknown-key,
    # non-object or missing-key case
    found = set()
    for info in pkgutil.iter_modules(rdpmeter.__path__):
        module = importlib.import_module(f"rdpmeter.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) and name.endswith("from_json"):
                found.add(name)
            elif inspect.isclass(value):
                found.update(
                    f"{name}.{attr}" for attr in vars(value) if attr.endswith("from_json")
                )
    assert found == set(LOADERS)


def test_script_whose_true_curve_passes_the_float_range_loads(tmp_path, capsys):
    # its true curve's orders 32 and up are computed in log space; the
    # request of 1e6 at every order dominates it
    path = tmp_path / "input.json"
    path.write_text(json.dumps(OVERFLOWING_NODE))
    argv = ["oracle", "verify-truncated", "--delta", "0.05", "--f", "1", "--script"]
    code, out, err = run(argv + [str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


def test_oracle_divergence_past_the_float_range_is_computed_in_log_space(
    tmp_path, capsys
):
    # (p0/p1)**128 is about 1e384 for this pair, so the oracle's own sum
    # overflows at order 128; that order is redone in log space
    mech = DiscreteMechanism(("a", "b"), p0=(0.999, 0.001), p1=(0.001, 0.999))
    orders = OrderSet([2.0, 128.0])
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "mech": mechanism_to_json(mech),
        "request": RdpCurve(orders, (1000.0, 1000.0)).to_json(),
    }))
    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps(RdpCurve(orders, (1e7, 1e7)).to_json()))
    code, out, err = run(
        ["oracle", "verify-filter", "--script", str(script), "--cap", str(cap)], capsys
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["ok"] is True
    true = discrete_rdp_curve(mech, orders).value(128.0)
    assert report["divergence"][1] == pytest.approx(true, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "mech, message",
    [
        ({"kind": "gaussian", "sigma": "2"}, "sigma must be a number, got '2'"),
        ({"kind": "gaussian", "sigma": True}, "sigma must be a number, got True"),
        ({"kind": "gaussian", "sigma": 2.0, "sensitivity": "1"},
         "sensitivity must be a number, got '1'"),
        ({"kind": "discrete", "outcomes": ["a", "b"], "p0": ["0.5", "0.5"],
          "p1": [0.5, 0.5]}, "each p0 entry must be a number, got '0.5'"),
        ({"kind": "discrete", "outcomes": ["a", "b"], "p0": [0.5, 0.5],
          "p1": [True, False]}, "each p1 entry must be a number, got True"),
    ],
    ids=["sigma-string", "sigma-bool", "sensitivity-string", "p0-strings", "p1-bools"],
)
def test_mechanism_number_that_is_not_a_json_number_is_a_validation_error(
    tmp_path, capsys, mech, message
):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"steps": [{"mech": mech, "count": 1}]}))
    code, out, err = run(["replay", "--schedule", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("count", [2.7, True, "3"])
def test_schedule_count_that_is_not_an_integer_is_a_validation_error(
    tmp_path, capsys, count
):
    path = tmp_path / "sched.json"
    path.write_text(
        json.dumps(
            {"steps": [{"mech": {"kind": "gaussian", "sigma": 1.0}, "count": count}]}
        )
    )
    code, out, err = run(["replay", "--schedule", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "count must be an integer" in err


def _run_fresh(program, *args):
    """Run program in a fresh interpreter that imports this rdpmeter."""
    src = os.path.dirname(os.path.dirname(rdpmeter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", program, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_leaves_quadrature_unloaded():
    # `oracle gaussian-check` integrates with the oracle's own
    # Gauss-Kronrod rule; neither the import nor the check loads scipy
    _run_fresh(
        "import sys\n"
        "import rdpmeter.cli\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "code = rdpmeter.cli.main(['oracle', 'gaussian-check', '--sigma', '2', "
        "'--out', sys.argv[1]])\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "sys.exit(code)\n",
        os.devnull,
    )


def test_only_a_script_session_loads_numpy(files):
    # numpy serves only the draws of a script session; schedule sessions
    # and the oracle's checks load neither numpy nor scipy
    out = os.path.join(files["tmp"], "session.jsonl")
    calls = [
        (["oracle", "gaussian-check", "--sigma", "2", "--out", out], []),
        (["filter", "--schedule", files["sched.json"], "--cap", files["cap.json"],
          "--delta", "1e-5", "--out", out], []),
        (["odometer", "--schedule", files["sched.json"], "--orders-file",
          files["orders.json"], "--delta", "1e-5", "--out", out], []),
        (["oracle", "verify-filter", "--script", files["script.json"],
          "--cap", files["cap.json"]], []),
        (["filter", "--script", files["script.json"], "--cap", files["cap.json"],
          "--delta", "1e-5", "--out", out], ["numpy"]),
    ]
    _run_fresh(
        "import json, sys\n"
        "import rdpmeter.cli\n"
        "def heavy():\n"
        "    return sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "assert heavy() == [], heavy()\n"
        "for argv, want in json.loads(sys.argv[1]):\n"
        "    assert rdpmeter.cli.main(argv) == 0, argv\n"
        "    assert heavy() == want, (argv[:2], heavy())\n",
        json.dumps(calls),
    )


def test_every_command_runs_with_scipy_blocked(files):
    # the runtime needs numpy only; an import of scipy fails in this child
    calls = [
        ["convert", "--curve", files["curve.json"], "--delta", "1e-5"],
        ["orders"],
        ["filter", "--schedule", files["sched.json"], "--cap", files["cap.json"],
         "--delta", "1e-5"],
        ["filter", "--script", files["script.json"], "--cap", files["cap.json"],
         "--delta", "1e-5"],
        ["odometer", "--schedule", files["sched.json"], "--orders-file",
         files["orders.json"], "--delta", "1e-5"],
        ["replay", "--schedule", files["sched.json"]],
        ["policy", "--base", files["base.json"], "--signal", files["signal.json"]],
        ["oracle", "verify-filter", "--script", files["script.json"],
         "--cap", files["cap.json"]],
        ["oracle", "verify-truncated", "--script", files["script.json"],
         "--delta", "0.05", "--f", "2"],
        ["oracle", "gaussian-check", "--sigma", "2"],
        ["oracle", "selftest", "--count", "2"],
    ]
    _run_fresh(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import rdpmeter.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert rdpmeter.cli.main(argv) == 0, argv\n",
        json.dumps(calls),
    )


FLAG_NAMES = [
    "--base", "--cap", "--count", "--curve", "--delta", "--dp-target", "--f",
    "--format", "--granularity", "--orders-file", "--out", "--policy",
    "--schedule", "--script", "--seed", "--sealed", "--sensitivity",
    "--signal", "--sigma", "--tol", "-h", "--help",
]
# small values only: a large --count would make selftest run for long
NUMBERS = ["0", "1", "2", "-1", "0.5", "1e-5", "1e-320", "1e400", "nan", "-0"]
GARBAGE = ["", "-", "--", "-x", "--bogus", "--delta=", "jsonl", "csv", "é"]
# relative to the working directory each call runs in
BAD_FILES = {
    "not-json": b"{orders",
    "not-utf8": b"\xff\xfe{}",
    "huge-int": b"[1" + b"0" * 5000 + b"]",
    "list": b"[]",
    "object": b"{}",
    "nested": b'{"orders": [[2.0]], "eps": [1.0]}',
}
TOKENS = st.sampled_from(
    sorted({word for path in COMMAND_PATHS for word in path})
    + FLAG_NAMES + NUMBERS + GARBAGE + list(BAD_FILES) + ["missing.json"]
)


@st.composite
def argvs(draw):
    prefix = draw(st.sampled_from([[]] + [list(p) for p in COMMAND_PATHS]))
    # flag-value pairs reach the handlers more often than loose tokens
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(FLAG_NAMES + GARBAGE), TOKENS), max_size=4)
    )
    return prefix + [t for pair in pairs for t in pair] + draw(
        st.lists(TOKENS, max_size=2)
    )


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_with_a_code_or_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    # a fresh directory per call: a drawn --out writes there
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, content in BAD_FILES.items():
                with open(name, "wb") as handle:
                    handle.write(content)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and ("-h" in argv or "--help" in argv), argv
            return
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


def _table(add_flags) -> _FlagTable:
    table = _FlagTable()
    add_flags(table)
    return table


def _argparse_namespace(add_flags, argv) -> argparse.Namespace:
    """What argparse reads argv as; a usage error raises."""
    parser = _Parser(prog="rdpmeter")
    add_flags(parser)
    return parser.parse_args(argv)


def _exact(namespace) -> str:
    # repr tells NaN, and 1 from 1.0 from True, apart
    return repr(sorted(vars(namespace).items()))


# values each type reads, and values that a parse could read unlike
# argparse: a sign, blanks, an underscore, option-like strings, a bad
# choice or number
FITTING = {
    int: ["0", "2", "1_0", " 3 "],
    float: ["0", "1e-5", "nan", "1e999", " 3 "],
    str: ["x.json", "a=b", ""],
}
ODD_VALUES = ["-1", "-0", "", "--", "-h", "--out=x", "xml", "0x1", "1.5"]
ABBREVIATIONS = ["--del", "--sched", "--dp", "--orders", "--se", "--sig", "--c"]
OTHER_FLAGS = ["-h", "--help", "--bogus", "--out=x", "--delta=1", "--"]


@st.composite
def command_argvs(draw):
    path = draw(st.sampled_from(COMMAND_PATHS))
    table = _table(_COMMANDS[path][1])

    def flag(name):
        _, kind, choices, _, _ = table[name]
        if kind is None:
            return [name]
        values = (choices or FITTING[kind]) * 4 + ODD_VALUES
        return [name, draw(st.sampled_from(values))]

    # mostly the command's own flags, each with a value that fits more
    # often than not; some flags missing their value, some of no command
    items = [
        flag(draw(st.sampled_from(sorted(table)))) if i < 8
        else [draw(st.sampled_from(sorted(table)))] if i == 8
        else [draw(st.sampled_from(ABBREVIATIONS + OTHER_FLAGS))]
        for i in draw(st.lists(st.integers(0, 9), max_size=4))
    ]
    # most argvs give every required flag, so the table decides many
    if draw(st.integers(0, 3)):
        items += [flag(name) for name, entry in table.items() if entry[3]]
    return path, [token for item in draw(st.permutations(items)) for token in item]


@settings(max_examples=300, deadline=None)
@given(case=command_argvs())
def test_the_flag_table_reads_an_argv_as_argparse_does(case):
    path, argv = case
    add_flags = _COMMANDS[path][1]
    namespace = _table(add_flags).parse(argv)
    if namespace is not None:
        assert _exact(namespace) == _exact(_argparse_namespace(add_flags, argv))


WELL_FORMED = {
    ("convert",): ["--curve", "c.json", "--delta", "1e-5"],
    ("orders",): ["--granularity", "1_6", "--out", "o.json"],
    ("filter",): ["--schedule", "s.json", "--dp-target", "nan", "--delta",
                  "1e-5", "--sealed", "--format", "csv", "--sealed"],
    ("odometer",): ["--script", "s.json", "--delta", " 1e-5 ", "--seed", "3"],
    ("replay",): ["--schedule", "s.json", "--format", "csv", "--format", "jsonl"],
    ("policy",): ["--base", "b.json", "--signal", "", "--policy", "a=b"],
    ("oracle", "verify-filter"): ["--script", "s.json", "--cap", "c.json"],
    ("oracle", "verify-truncated"): ["--script", "s.json", "--delta", "0.05",
                                     "--f", "2"],
    ("oracle", "gaussian-check"): ["--sigma", "1e999", "--tol", "1e-3"],
    ("oracle", "selftest"): ["--count", "3", "--seed", "1", "--count", "4"],
}


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
def test_the_flag_table_decides_a_well_formed_argv(path):
    add_flags = _COMMANDS[path][1]
    namespace = _table(add_flags).parse(WELL_FORMED[path])
    assert namespace is not None
    # unsorted: the attributes come in argparse's order too
    assert repr(vars(namespace)) == repr(
        vars(_argparse_namespace(add_flags, WELL_FORMED[path]))
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--schedule", "s.json", "--dp-target", "2"],  # no --delta
        WELL_FORMED[("filter",)] + ["-h"],
        WELL_FORMED[("filter",)] + ["--help"],
        WELL_FORMED[("filter",)] + ["--del", "1"],
        WELL_FORMED[("filter",)] + ["--delta=1"],
        WELL_FORMED[("filter",)] + ["--bogus", "1"],
        WELL_FORMED[("filter",)] + ["--delta", "-1"],
        WELL_FORMED[("filter",)] + ["--delta", "--"],
        WELL_FORMED[("filter",)] + ["--delta", "x"],
        WELL_FORMED[("filter",)] + ["--seed", "1.5"],
        WELL_FORMED[("filter",)] + ["--format", "xml"],
        WELL_FORMED[("filter",)] + ["--sealed", "x"],
        WELL_FORMED[("filter",)] + ["--out"],
        WELL_FORMED[("filter",)] + ["--"],
    ],
    ids=lambda argv: " ".join(argv[-2:]),
)
def test_the_flag_table_leaves_what_it_cannot_decide_to_argparse(argv):
    assert _table(_COMMANDS[("filter",)][1]).parse(argv) is None


@pytest.mark.parametrize(
    "name, spec",
    [
        ("--n", {"nargs": 2}),
        ("--n", {"dest": "m"}),
        ("--n", {"const": 1}),
        ("--n", {"metavar": "N"}),
        ("--n", {"action": "store_false"}),
        ("--n", {"action": "append"}),
        ("--n", {"action": "store_true", "type": int}),
        ("--n", {"action": "store_true", "choices": [True]}),
        ("-n", {}),
        ("--seed", {}),
        ("--dp_target", {}),
    ],
    ids=repr,
)
def test_the_flag_table_refuses_what_it_does_not_model(name, spec):
    # a flag argparse would read differently fails where it is defined
    table = _FlagTable()
    table.add_argument("--seed")
    table.add_argument("--dp-target")
    with pytest.raises(TypeError, match="does not model"):
        table.add_argument(name, **spec)


def test_the_flag_table_converts_a_string_default_as_argparse_does():
    def flags(p):
        p.add_argument("--n", type=int, default="1_0")
        p.add_argument("--x", type=float, default="nan")
        p.add_argument("--name", default="jsonl", choices=["csv"])
        p.add_argument("--on", action="store_true", default=None)

    for argv in ([], ["--n", "3", "--on"]):
        assert _exact(_table(flags).parse(argv)) == _exact(
            _argparse_namespace(flags, argv)
        )
