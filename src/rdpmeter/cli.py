"""Command-line surface.

Subcommands: convert, orders, filter, odometer, replay, policy, oracle.
All budgets, bounds, and epsilons are in nats. Exit codes: 0 success,
1 validation error, 2 oracle assertion failure.
"""

import argparse
import json
import math
import random
import sys
import warnings
from typing import Optional

from rdpmeter.core import (
    OrderSet,
    RdpCurve,
    _as_list,
    _check_numbers,
    _object,
    _read_order_list,
    curve_to_dp,
    default_order_set,
    granularity_order_set,
)
from rdpmeter.harness import (
    FILTER,
    ODOMETER,
    PolicySpec,
    ScheduleReplay,
    SessionConfig,
    _write_file,
    format_log,
    replay_schedule,
    run_session,
    simulate_policy,
)
from rdpmeter.mechanisms import GaussianMechanism, gaussian_rdp_curve
from rdpmeter.odometers import FilterSchedule
from rdpmeter.oracle import (
    AdversaryScript,
    numeric_renyi_gaussian,
    random_script,
    script_from_json,
    verify_filter_bound,
    verify_truncated_odometer,
)


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; that code is reserved
    # for oracle failures here, so usage problems become exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def _load(path: str, parse):
    """parse(JSON of path); every failure is a one-line ValueError naming path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, undecodable UTF-8, or an integer literal past
        # the interpreter's digit limit
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to read") from None
    try:
        return parse(data)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _orders_from_json(data) -> OrderSet:
    """An orders file: a JSON list of orders, or {"orders": [...]}."""
    if isinstance(data, dict):
        data = _object(data, "orders file", {"orders"}, ("orders",))["orders"]
    return _read_order_list(data, {})[0]


def _load_orders(path: Optional[str]) -> OrderSet:
    return default_order_set() if path is None else _load(path, _orders_from_json)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            _write_file(out, text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc


# ------------------------------------------------------------- subcommands


def _cmd_convert(args) -> int:
    curve = _load(args.curve, RdpCurve.from_json)
    guarantee = curve_to_dp(curve, args.delta)
    _emit(
        json.dumps(
            {
                "eps": guarantee.epsilon,
                "alpha": guarantee.witness_order,
                "delta": guarantee.delta,
            }
        ),
        args.out,
    )
    return 0


def _cmd_orders(args) -> int:
    if args.granularity is not None:
        orders = granularity_order_set(args.granularity)
    else:
        orders = default_order_set()
    _emit(json.dumps({"orders": list(orders)}), args.out)
    return 0


def _session_source(args):
    if (args.script is None) == (args.schedule is None):
        raise _UsageError("exactly one of --script / --schedule is required")
    if args.script is not None:
        return _load(args.script, script_from_json)
    return _load(args.schedule, ScheduleReplay.from_json)


def _cmd_filter(args) -> int:
    if (args.cap is None) == (args.dp_target is None):
        raise _UsageError("exactly one of --cap / --dp-target is required")
    source = _session_source(args)
    cap = _load(args.cap, RdpCurve.from_json) if args.cap is not None else None
    config = SessionConfig(
        mode=FILTER,
        orders=cap.orders if cap is not None else _load_orders(args.orders_file),
        delta=args.delta,
        seed=args.seed,
        source=source,
        cap=cap,
        dp_target=args.dp_target,
        sealed=args.sealed,
    )
    _emit(format_log(run_session(config), args.format), args.out)
    return 0


def _cmd_odometer(args) -> int:
    source = _session_source(args)
    orders = _load_orders(args.orders_file)
    config = SessionConfig(
        mode=ODOMETER,
        orders=orders,
        delta=args.delta,
        seed=args.seed,
        source=source,
    )
    _emit(format_log(run_session(config), args.format), args.out)
    return 0


def _cmd_replay(args) -> int:
    schedule = _load(args.schedule, ScheduleReplay.from_json)
    orders = _load_orders(args.orders_file)
    trace = replay_schedule(schedule, orders)
    if args.format == "csv":
        lines = ["step," + ",".join(f"spent_{a}" for a in orders)]
        for i, curve in enumerate(trace, start=1):
            lines.append(f"{i}," + ",".join(repr(v) for v in curve.values))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            "".join(
                json.dumps({"step": i, "spent": curve.to_json()}) + "\n"
                for i, curve in enumerate(trace, start=1)
            ),
            args.out,
        )
    return 0


def _signal_from_list(data) -> list[float]:
    """A signal file: a JSON list of finite numbers."""
    signal = _as_list(data, "signal")
    _check_numbers(signal, "signal")
    if not all(map(math.isfinite, signal)):
        raise ValueError("each signal entry must be finite")
    return [float(x) for x in signal]


def _cmd_policy(args) -> int:
    base = _load(args.base, ScheduleReplay.from_json)
    signal = _load(args.signal, _signal_from_list)
    policy = (
        _load(args.policy, PolicySpec.from_json)
        if args.policy is not None
        else PolicySpec()
    )
    orders = _load_orders(args.orders_file)
    adapted = simulate_policy(policy, signal, base, orders)
    _emit(json.dumps(adapted.to_json()), args.out)
    return 0


def _cmd_oracle_verify_filter(args) -> int:
    script = _load(args.script, script_from_json)
    cap = _load(args.cap, RdpCurve.from_json)
    report = verify_filter_bound(script, cap)
    _emit(json.dumps(report.to_json()), args.out)
    return 0 if report.ok else 2


def _cmd_oracle_verify_truncated(args) -> int:
    script = _load(args.script, script_from_json)
    if args.orders_file is not None:
        orders = _load_orders(args.orders_file)
    elif script.orders is not None:
        orders = script.orders
    else:
        raise _UsageError("--orders-file is required for an empty script")
    schedule = FilterSchedule(delta=args.delta, orders=orders)
    report = verify_truncated_odometer(script, schedule, args.f)
    _emit(json.dumps(report.to_json()), args.out)
    return 0 if report.ok else 2


def _cmd_oracle_gaussian_check(args) -> int:
    # NaN would compare false against any error and Infinity true, and
    # neither is valid JSON in the report
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    orders = _load_orders(args.orders_file)
    mech = GaussianMechanism(sigma=args.sigma, sensitivity=args.sensitivity)
    closed = gaussian_rdp_curve(mech, orders)
    errors = [
        abs(
            closed.values[i]
            - numeric_renyi_gaussian(args.sigma, args.sensitivity, alpha)
        )
        for i, alpha in enumerate(orders)
    ]
    worst = max(errors)
    ok = worst <= args.tol
    _emit(
        json.dumps(
            {
                "sigma": args.sigma,
                "sensitivity": args.sensitivity,
                "max_abs_err": worst,
                "tolerance": args.tol,
                "ok": ok,
            }
        ),
        args.out,
    )
    return 0 if ok else 2


def _cmd_oracle_selftest(args) -> int:
    # no script would make a vacuous pass
    if args.count < 1:
        raise ValueError(f"--count must be an integer >= 1, got {args.count}")
    rng = random.Random(args.seed)
    orders = OrderSet([2.0, 4.0])
    schedule = FilterSchedule(delta=args.delta, orders=orders)
    failures = 0
    for _ in range(args.count):
        script = random_script(rng, orders)
        totals = _declared_total(script, orders)
        cap = RdpCurve(
            orders,
            tuple(rng.uniform(0.0, 1.5) * t for t in totals),
        )
        if not verify_filter_bound(script, cap).ok:
            failures += 1
        for f in (1, 2, 3):
            if not verify_truncated_odometer(script, schedule, f).ok:
                failures += 1
    _emit(
        json.dumps(
            {
                "scripts": args.count,
                "checks": args.count * 4,
                "failures": failures,
                "ok": failures == 0,
            }
        ),
        args.out,
    )
    return 0 if failures == 0 else 2


def _declared_total(script: AdversaryScript, orders: OrderSet) -> list[float]:
    """Worst-case declared spend down any root-to-leaf path."""

    def walk(node) -> list[float]:
        if node is None:
            return [0.0] * len(orders)
        best = [0.0] * len(orders)
        for child in node.children.values():
            sub = walk(child)
            best = [max(b, s) for b, s in zip(best, sub)]
        return [r + b for r, b in zip(node.request.values, best)]

    return walk(script.root)


# ------------------------------------------------------------------ parser


# the add_argument keywords a _FlagTable models, for a store_true flag
# and for a flag that takes a value
_FLAG_KEYS = frozenset({"action", "required", "default", "help"})
_VALUE_KEYS = frozenset({"type", "choices", "required", "default", "help"})


class _FlagTable(dict):
    """A command's flags, recorded by its flag function in place of a
    parser: option string -> (dest, type, choices, required, default),
    with type None for a store_true flag and str for a value of no type.

    parse() reads a well-formed argv into the namespace argparse would
    build and returns None for anything else, so that argparse, which
    writes every help text and usage error, decides it. A keyword whose
    argparse meaning the table does not model is a TypeError here, not
    a parse that differs from argparse's."""

    def add_argument(self, name: str, **spec) -> None:
        flag = spec.get("action") == "store_true"
        dest = name.lstrip("-").replace("-", "_")
        if (
            not spec.keys() <= (_FLAG_KEYS if flag else _VALUE_KEYS)
            or not name.startswith("--")
            or dest in [entry[0] for entry in self.values()]
        ):
            raise TypeError(
                f"the flag table does not model add_argument({name!r}, "
                + ", ".join(f"{k}={v!r}" for k, v in spec.items())
                + ")"
            )
        kind = spec.get("type")
        default = spec.get("default", False if flag else None)
        if kind is not None and isinstance(default, str):
            # argparse converts a string default when the flag is not given
            default = kind(default)
        self[name] = (
            dest,
            None if flag else kind or str,
            spec.get("choices"),
            bool(spec.get("required")),
            default,
        )

    def parse(self, argv: list[str]) -> Optional[argparse.Namespace]:
        """argparse's namespace for argv when every token is a full flag
        name, each valued flag is followed by a value that does not start
        with "-" and passes its type and choices, and every required flag
        is given; None otherwise."""
        given = {}
        tokens = iter(argv)
        for token in tokens:
            entry = self.get(token)
            if entry is None:
                return None
            dest, kind, choices, _, _ = entry
            if kind is None:
                given[dest] = True
                continue
            # a missing value reads as "-", which is refused
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                value = kind(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if choices is not None and value not in choices:
                return None
            given[dest] = value
        namespace = argparse.Namespace()
        for dest, _, _, required, default in self.values():
            if dest in given:
                setattr(namespace, dest, given[dest])
            elif required:
                return None
            else:
                setattr(namespace, dest, default)
        return namespace


def _convert_flags(p) -> None:
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out")


def _orders_flags(p) -> None:
    p.add_argument(
        "--granularity",
        type=int,
        help="emit the power-of-two set sized for n-outcome mechanisms",
    )
    p.add_argument("--out")


def _session_flags(p) -> None:
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--orders-file")
    p.add_argument("--script", help="adversary script JSON file")
    p.add_argument("--schedule", help="budget schedule JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--out")


def _filter_flags(p) -> None:
    _session_flags(p)
    p.add_argument("--cap", help="budget cap curve JSON file")
    p.add_argument("--dp-target", type=float, help="target DP epsilon")
    p.add_argument(
        "--sealed",
        action="store_true",
        help="refuse every request after the first denial",
    )


def _replay_flags(p) -> None:
    p.add_argument("--schedule", required=True)
    p.add_argument("--orders-file")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--out")


def _policy_flags(p) -> None:
    p.add_argument("--base", required=True, help="baseline schedule JSON file")
    p.add_argument("--signal", required=True, help="per-period signal JSON list")
    p.add_argument("--policy", help="policy parameters JSON file")
    p.add_argument("--orders-file")
    p.add_argument("--out")


def _verify_filter_flags(p) -> None:
    p.add_argument("--script", required=True)
    p.add_argument("--cap", required=True)
    p.add_argument("--out")


def _verify_truncated_flags(p) -> None:
    p.add_argument("--script", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--orders-file")
    p.add_argument("--out")


def _gaussian_check_flags(p) -> None:
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--orders-file")
    p.add_argument("--out")


def _selftest_flags(p) -> None:
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out")


# Every command: its path of words, help line, flags and handler. A call
# reads its flags from a _FlagTable of its own command and builds that
# command's parser only when the table cannot decide; the overview, built
# from the same table, serves argv that names no command.
_COMMANDS = {
    ("convert",): (
        "convert a budget curve to a DP bound", _convert_flags, _cmd_convert
    ),
    ("orders",): ("emit an order set", _orders_flags, _cmd_orders),
    (FILTER,): (f"run a {FILTER} session", _filter_flags, _cmd_filter),
    (ODOMETER,): (f"run a {ODOMETER} session", _session_flags, _cmd_odometer),
    ("replay",): (
        "expand a schedule to a cumulative trace", _replay_flags, _cmd_replay
    ),
    ("policy",): ("apply the budget-adaptation rule", _policy_flags, _cmd_policy),
    ("oracle", "verify-filter"): (
        "certify a cap against a script",
        _verify_filter_flags,
        _cmd_oracle_verify_filter,
    ),
    ("oracle", "verify-truncated"): (
        "certify a truncation level against a script",
        _verify_truncated_flags,
        _cmd_oracle_verify_truncated,
    ),
    ("oracle", "gaussian-check"): (
        "closed-form Gaussian curve vs quadrature",
        _gaussian_check_flags,
        _cmd_oracle_gaussian_check,
    ),
    ("oracle", "selftest"): (
        "random scripts against filter and truncation bounds",
        _selftest_flags,
        _cmd_oracle_selftest,
    ),
}
# first words that take a second one, with their help lines
_GROUPS = {("oracle",): "exact verification"}


def _overview() -> argparse.ArgumentParser:
    """Every command and its help, without flags: it prints the help of
    `rdpmeter` and of a group, and raises the usage error for argv that
    names no command."""
    parser = _Parser(
        prog="rdpmeter",
        description=(
            "Privacy accounting for adaptively chosen budgets: filters, "
            "odometers, and exact verification oracles. All budgets and "
            "bounds are in nats."
        ),
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (help_text, _, _) in _COMMANDS.items():
        group = path[:-1]
        if group not in subparsers:
            subparsers[group] = (
                subparsers[()]
                .add_parser(group[0], help=_GROUPS[group])
                .add_subparsers(dest=f"{group[0]}_command", required=True)
            )
        subparsers[group].add_parser(path[-1], help=help_text)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Print a library warning as one line, like an error."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    path = tuple(argv[:1])
    if path in _GROUPS:
        path = tuple(argv[:2])
    try:
        if path not in _COMMANDS:
            _overview().parse_args(argv)
            # the overview accepts only argv that starts with a command path
            raise AssertionError(f"no command matched {argv!r}")
        _, add_flags, handler = _COMMANDS[path]
        table = _FlagTable()
        add_flags(table)
        args = table.parse(argv[len(path):])
        if args is None:
            parser = _Parser(prog="rdpmeter " + " ".join(path))
            add_flags(parser)
            args = parser.parse_args(argv[len(path):])
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # a flag value whose arithmetic leaves the float range
        print(f"error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
