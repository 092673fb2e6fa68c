import dataclasses
import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from log_formats import to_v1

from rdpmeter.core import OrderSet, RdpCurve, curve_to_dp, default_order_set
from rdpmeter.filters import Decision, FilterState, new_filter, try_spend
from rdpmeter.harness import (
    FILTER,
    ODOMETER,
    PolicySpec,
    ScheduleReplay,
    ScheduleStep,
    SessionConfig,
    SessionLog,
    export,
    log_to_csv,
    reconstruct,
    replay_schedule,
    run_session,
    schedule_total,
    simulate_policy,
)
from rdpmeter.mechanisms import (
    DiscreteMechanism,
    GaussianMechanism,
    gaussian_rdp_curve,
    mechanism_rdp_curve,
)
from rdpmeter.odometers import running_bound, spend
from rdpmeter.oracle import BOTTOM, AdversaryScript, ScriptNode, random_script

ORDERS2 = OrderSet([2.0])
ORDERS24 = OrderSet([2.0, 4.0])

# a mechanism whose two worlds agree: zero true divergence, so any
# nonnegative declared budget is a valid over-declaration
NULL_MECH = DiscreteMechanism(outcomes=("x",), p0=(1.0,), p1=(1.0,))


def _req(eps: float) -> RdpCurve:
    return RdpCurve(ORDERS2, (eps,))


def chain_script() -> AdversaryScript:
    """Requests 0.4, 0.5, 0.2, 0.1; reacts to the denial of the third."""
    n4 = ScriptNode(mech=NULL_MECH, request=_req(0.1))
    n3 = ScriptNode(mech=NULL_MECH, request=_req(0.2), children={BOTTOM: n4})
    n2 = ScriptNode(mech=NULL_MECH, request=_req(0.5), children={"x": n3})
    n1 = ScriptNode(mech=NULL_MECH, request=_req(0.4), children={"x": n2})
    return AdversaryScript(root=n1)


def gaussian_schedule(n: int, sigma: float = 1.0, count: int = 1) -> ScheduleReplay:
    return ScheduleReplay(
        steps=tuple(ScheduleStep(GaussianMechanism(sigma), count) for _ in range(n))
    )


class TestSessionConfig:
    def test_filter_needs_exactly_one_budget_spec(self):
        src = gaussian_schedule(1)
        with pytest.raises(ValueError):
            SessionConfig(
                mode=FILTER, orders=ORDERS2, delta=1e-5, seed=0, source=src
            )
        with pytest.raises(ValueError):
            SessionConfig(
                mode=FILTER,
                orders=ORDERS2,
                delta=1e-5,
                seed=0,
                source=src,
                cap=_req(1.0),
                dp_target=2.0,
            )

    def test_odometer_rejects_budget_specs(self):
        with pytest.raises(ValueError):
            SessionConfig(
                mode=ODOMETER,
                orders=ORDERS2,
                delta=1e-5,
                seed=0,
                source=gaussian_schedule(1),
                cap=_req(1.0),
            )

    def test_mode_and_seed_validation(self):
        src = gaussian_schedule(1)
        with pytest.raises(ValueError):
            SessionConfig(
                mode="auditor", orders=ORDERS2, delta=1e-5, seed=0, source=src
            )
        with pytest.raises(ValueError):
            SessionConfig(
                mode=ODOMETER, orders=ORDERS2, delta=1e-5, seed=-1, source=src
            )

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    @pytest.mark.parametrize("source", ["schedule", "script"])
    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "7", 2**64])
    def test_seed_must_be_an_integer(self, mode, source, seed):
        # a schedule session never draws, so nothing else would refuse it
        # and the header would carry the value as given
        cap = _req(1.0) if mode == FILTER else None
        src = gaussian_schedule(1) if source == "schedule" else chain_script()
        message = r"^seed must be an integer in \[0, 2\*\*64\), got "
        with pytest.raises(ValueError, match=message) as info:
            SessionConfig(
                mode=mode, orders=ORDERS2, delta=1e-5, seed=seed, source=src, cap=cap
            )
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_delta_whose_log_overflows_is_rejected(self, mode):
        # the rule core uses everywhere: 1/delta must stay finite, so 1e-308
        # still opens a session and 1e-320 is refused at construction
        cap = _req(1.0) if mode == FILTER else None
        SessionConfig(
            mode=mode, orders=ORDERS2, delta=1e-308, seed=0,
            source=gaussian_schedule(1), cap=cap,
        )
        with pytest.raises(ValueError, match="too small"):
            SessionConfig(
                mode=mode, orders=ORDERS2, delta=1e-320, seed=0,
                source=gaussian_schedule(1), cap=cap,
            )

    def test_cap_orders_must_match(self):
        with pytest.raises(ValueError):
            SessionConfig(
                mode=FILTER,
                orders=ORDERS24,
                delta=1e-5,
                seed=0,
                source=gaussian_schedule(1),
                cap=_req(1.0),
            )

    def test_script_orders_must_match(self):
        with pytest.raises(ValueError):
            SessionConfig(
                mode=FILTER,
                orders=ORDERS24,
                delta=1e-5,
                seed=0,
                source=chain_script(),
                cap=RdpCurve(ORDERS24, (1.0, 1.0)),
            )


class TestRunSession:
    def test_scripted_filter_decisions(self):
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS2,
            delta=1e-5,
            seed=0,
            source=chain_script(),
            cap=_req(1.0),
        )
        log = run_session(config)
        decisions = [r["decision"] for r in log.events]
        assert decisions == ["GRANT", "GRANT", "PASS", "GRANT"]
        assert log.final_state.spent.values == (1.0,)

    def test_header_carries_cap_and_config(self):
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS2,
            delta=1e-5,
            seed=9,
            source=chain_script(),
            cap=_req(1.0),
        )
        header = run_session(config).header
        assert header["kind"] == "filter"
        assert header["delta"] == 1e-5
        assert header["orders"] == [2.0]
        assert header["seed"] == 9
        assert RdpCurve.from_json(header["cap"]) == _req(1.0)

    def test_fresh_odometer_header_bound_is_doubled_base(self):
        orders = default_order_set()
        delta = 1e-5
        config = SessionConfig(
            mode=ODOMETER,
            orders=orders,
            delta=delta,
            seed=0,
            source=ScheduleReplay(steps=()),
        )
        log = run_session(config)
        m = len(orders)
        expected = min(
            2.0 * math.log(2.0 * m / delta) / (a - 1.0) for a in orders
        )
        assert log.header["bound"]["eps"] == expected
        assert log.events == []

    def test_odometer_events_record_indices_and_bound(self):
        config = SessionConfig(
            mode=ODOMETER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(3),
        )
        log = run_session(config)
        assert [r["i"] for r in log.events] == [1, 2, 3]
        state = log.final_state
        bound = running_bound(state)
        last = log.events[-1]["bound"]
        assert last["eps"] == bound.eps_dp
        assert last["alpha"] == bound.witness_order
        assert last["f"] == bound.witness_level
        assert log.events[-1]["f_per_alpha"] == {
            "2.0": state._f[0],
            "4.0": state._f[1],
        }

    def test_same_seed_gives_byte_identical_logs(self):
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS2,
            delta=1e-5,
            seed=1234,
            source=chain_script(),
            cap=_req(1.0),
        )
        a = run_session(config).to_jsonl()
        b = run_session(config).to_jsonl()
        assert a.encode() == b.encode()

    def test_dp_target_header_records_target_and_derived_cap(self):
        # the conversion floor for {2, 4} at delta 1e-5 is ln(1e5)/3, about
        # 3.84, so a target of 5 leaves real headroom at alpha 4
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(1, sigma=100.0),
            dp_target=5.0,
        )
        log = run_session(config)
        assert log.header["dp_target"] == 5.0
        assert log.events[0]["decision"] == "GRANT"
        cap = RdpCurve.from_json(log.header["cap"])
        spent = log.final_state.spent
        assert not spent.is_zero()
        assert curve_to_dp(spent, 1e-5).epsilon <= 5.0
        assert cap.orders.orders == (2.0, 4.0)

    def test_scripted_sampling_is_seed_dependent(self):
        coin = DiscreteMechanism(
            outcomes=("h", "t"), p0=(0.5, 0.5), p1=(0.5, 0.5)
        )
        deep = ScriptNode(mech=coin, request=RdpCurve(ORDERS2, (0.1,)))
        root = ScriptNode(
            mech=coin, request=RdpCurve(ORDERS2, (0.1,)), children={"h": deep}
        )
        script = AdversaryScript(root=root)
        lengths = set()
        for seed in range(8):
            config = SessionConfig(
                mode=FILTER,
                orders=ORDERS2,
                delta=1e-5,
                seed=seed,
                source=script,
                cap=_req(5.0),
            )
            lengths.add(len(run_session(config).events))
        assert lengths == {1, 2}

    # sha256 of the logs of 40 random scripts on ORDERS_SCRIPT per mode and
    # session seed. Beyond the log format and the decisions, they pin every
    # draw of numpy's default_rng(seed), so a new generator, seeding or way
    # of drawing shows here; seed 2**63 + 5 needs all 64 bits. The second
    # hash is of the same logs written out as format 1, the hash pinned
    # before format 2: the format changed no decision, bound or draw
    SCRIPT_LOG_SHA256 = {
        (FILTER, 0): (
            "4563dd62c6c95fcef6a59593312b26ebe1a3ff6cd46f414e6b842254b11df114",
            "6aa9690dbdd21aa137eade961258b38b158a60d9d7135e32ecc38d2ebfee0f5a",
        ),
        (FILTER, 7): (
            "3548db88ecf29db37383247ee7bd2fc05922b58bd093efa80c505d932e694974",
            "9afff8ffd3831b55cc91b1535da5d8e7ca045babc112cac86616e5651d583757",
        ),
        (FILTER, 2**63 + 5): (
            "6418cdc1e95fac8930ce6c9406562fed5d21b77e0c1ca57d18a0ecc5b9898f14",
            "353526058bdb2ede4fb0022743324f4134c550263ca91607f7234079ed9c026b",
        ),
        (ODOMETER, 0): (
            "0ef3c2fa1185129a754de0f943a5e4e55b924491477d8b6c14bdbf2a904762eb",
            "4f63fa323dca83eb9667f7cb6661ae1c378a363c20b01145f59c4319a1e35620",
        ),
        (ODOMETER, 7): (
            "13ded430cfb634f290ad35f75ca290897deae478f206ad04958bb0d6a84d803c",
            "3807ec8801e83c0780a770bc4765f3af729cb9bb64b0434fafc1d14096385c17",
        ),
        (ODOMETER, 2**63 + 5): (
            "a173ac67e87b1ea8acdab394031ee1b7cc3293ac1e9f90ba5c6f22bf1b92b9b2",
            "a5c5822badc513afa19d649e53d7078981e0bec910c62ab24371e8c2ee621ea9",
        ),
    }
    ORDERS_SCRIPT = OrderSet([1.5, 2.0, 4.0, 16.0])

    @pytest.mark.parametrize("mode, seed", list(SCRIPT_LOG_SHA256), ids=str)
    def test_script_session_log_bytes_are_pinned(self, mode, seed):
        orders = self.ORDERS_SCRIPT
        rng = random.Random(16)
        digest, v1_digest = hashlib.sha256(), hashlib.sha256()
        decisions = set()
        for _ in range(40):
            script = random_script(rng, orders)
            # twice the first request: the cap binds on some paths only
            cap = None
            if mode == FILTER:
                cap = RdpCurve(orders, tuple(2.0 * v for v in script.root.request.values))
            log = run_session(SessionConfig(
                mode=mode, orders=orders, delta=1e-5, seed=seed, source=script, cap=cap
            ))
            digest.update(log.to_jsonl().encode())
            v1_digest.update(to_v1(log.to_jsonl()).encode())
            decisions.update(r.get("decision") for r in log.events)
        assert decisions == ({"GRANT", "PASS"} if mode == FILTER else {None})
        pinned, v1_pinned = self.SCRIPT_LOG_SHA256[mode, seed]
        assert digest.hexdigest() == pinned
        assert v1_digest.hexdigest() == v1_pinned


class TestReconstruct:
    def test_filter_log_reconstructs_exactly(self):
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS2,
            delta=1e-5,
            seed=0,
            source=chain_script(),
            cap=_req(1.0),
        )
        log = run_session(config)
        assert [r["decision"] for r in log.events] == [
            "GRANT",
            "GRANT",
            "PASS",
            "GRANT",
        ]
        rebuilt = reconstruct(SessionLog.from_jsonl(log.to_jsonl()))
        live = log.final_state
        assert rebuilt.spent.values == live.spent.values
        assert rebuilt.cap == live.cap

    def test_odometer_log_reconstructs_exactly(self):
        config = SessionConfig(
            mode=ODOMETER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(5, sigma=0.7, count=2),
        )
        log = run_session(config)
        rebuilt = reconstruct(SessionLog.from_jsonl(log.to_jsonl()))
        live = log.final_state
        assert rebuilt.spent.values == live.spent.values
        assert rebuilt._f == live._f
        assert running_bound(rebuilt) == running_bound(live)

    def test_tampered_decision_is_rejected(self):
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS2,
            delta=1e-5,
            seed=0,
            source=chain_script(),
            cap=_req(1.0),
        )
        log = run_session(config)
        log.records[3]["decision"] = "GRANT"
        with pytest.raises(ValueError, match="replay decides"):
            reconstruct(log)

    def test_tampered_bound_is_rejected(self):
        config = SessionConfig(
            mode=ODOMETER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(2),
        )
        log = run_session(config)
        log.records[-1]["bound"]["eps"] *= 0.5
        with pytest.raises(ValueError, match="bound diverges"):
            reconstruct(log)

    @pytest.mark.parametrize(
        "key, tamper, message",
        [
            ("bound", lambda r: r["bound"].update(f=2), "bound diverges"),
            ("f_per_alpha", lambda r: r["f_per_alpha"].update({"4.0": 2}),
             "indices diverge"),
        ],
    )
    def test_tampered_record_between_climbs_is_rejected(self, key, tamper, message):
        # sigma 100 climbs no rung in 10 queries, so every record after the
        # first repeats the first one's f_per_alpha and bound: each is still
        # compared, not only those where a rung moved
        config = SessionConfig(
            mode=ODOMETER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(10, sigma=100.0),
        )
        log = run_session(config)
        assert all(r[key] == log.events[0][key] for r in log.events)
        tamper(log.events[6])
        with pytest.raises(ValueError, match=f"event 7: .*{message}"):
            reconstruct(log)

    def test_records_must_be_numbered_by_position(self):
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS2,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(3, sigma=100.0),
            cap=_req(1.0),
        )
        log = run_session(config)
        for record, i in zip(log.events, (1, 7, 1)):
            record["i"] = i
        with pytest.raises(ValueError, match="record 2 is numbered 7"):
            reconstruct(log)

    @staticmethod
    def _odometer_log():
        config = SessionConfig(
            mode=ODOMETER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(3, sigma=100.0),
        )
        return SessionLog.from_jsonl(run_session(config).to_jsonl())

    @pytest.mark.parametrize("number", [True, 2.0])
    def test_a_number_equal_to_the_position_must_be_an_int(self, number):
        log = self._odometer_log()
        reconstruct(log)
        log.records[int(number)]["i"] = number
        with pytest.raises(ValueError, match=f"^record {int(number)} is numbered {number!r}$"):
            reconstruct(log)

    @pytest.mark.parametrize("retyped", [float, bool])
    @pytest.mark.parametrize(
        "where, message",
        [
            (lambda log: log.events[1]["f_per_alpha"], "^event 2: filter indices diverge$"),
            (lambda log: log.events[2]["bound"], "^event 3: running bound diverges$"),
            (lambda log: log.header["bound"], "^header bound is not a fresh odometer's bound$"),
        ],
        ids=["f_per_alpha", "bound", "header bound"],
    )
    def test_a_rung_equal_to_the_writers_must_be_an_int(self, retyped, where, message):
        # sigma 100 stays on rung 1: 1.0 and true equal it but are not ints
        log = self._odometer_log()
        rungs = where(log)
        key = "f" if "f" in rungs else "4.0"
        assert type(rungs[key]) is int and rungs[key] == 1
        rungs[key] = retyped(rungs[key])
        with pytest.raises(ValueError, match=message):
            reconstruct(log)

    def test_tampered_header_bound_is_rejected(self):
        config = SessionConfig(
            mode=ODOMETER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(2),
        )
        log = run_session(config)
        log.header["bound"]["eps"] *= 0.5
        with pytest.raises(ValueError, match="header bound"):
            reconstruct(log)

    def test_cap_that_dp_target_does_not_yield_is_rejected(self):
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(2, sigma=100.0),
            dp_target=5.0,
        )
        log = run_session(config)
        reconstruct(log)
        log.header["dp_target"] = 6.0
        with pytest.raises(ValueError, match="dp_target"):
            reconstruct(log)

    def test_header_whose_dp_target_is_nan_is_rejected(self):
        # a NaN target once yielded an all-zero cap that denies every
        # request, and the log of that session replayed
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(2, sigma=100.0),
            cap=RdpCurve(ORDERS24, (0.0, 0.0)),
        )
        log = run_session(config)
        reconstruct(log)
        log.header["dp_target"] = math.nan
        with pytest.raises(ValueError, match="eps_dp must be a finite number"):
            reconstruct(log)

    def test_log_cut_after_a_record_still_replays(self):
        for mode, cap in ((FILTER, _req(1.0)), (ODOMETER, None)):
            config = SessionConfig(
                mode=mode,
                orders=ORDERS2,
                delta=1e-5,
                seed=0,
                source=chain_script(),
                cap=cap,
            )
            text = run_session(config).to_jsonl()
            lines = text.splitlines(keepends=True)
            for n in range(1, len(lines) + 1):
                reconstruct(SessionLog.from_jsonl("".join(lines[:n])))

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown session kind"):
            reconstruct(SessionLog.from_jsonl('{"kind": "ledger"}\n'))

    @staticmethod
    def _records(mode, cap=None):
        # two sigmas, so both records carry their request; a filter
        # without a cap has a dp_target
        config = SessionConfig(
            mode=mode,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=ScheduleReplay(
                steps=tuple(ScheduleStep(GaussianMechanism(s)) for s in (100.0, 200.0))
            ),
            cap=cap,
            dp_target=5.0 if mode == FILTER and cap is None else None,
        )
        return run_session(config).records

    @staticmethod
    def _rejected(records, message):
        text = "".join(json.dumps(r) + "\n" for r in records)
        with pytest.raises(ValueError, match=message) as info:
            reconstruct(SessionLog.from_jsonl(text))
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize(
        "mode, key",
        [
            (FILTER, "cap"),
            (FILTER, "delta"),
            (FILTER, "orders"),
            (ODOMETER, "delta"),
            (ODOMETER, "orders"),
        ],
    )
    def test_header_missing_a_key_is_rejected(self, mode, key):
        records = self._records(mode)
        del records[0][key]
        self._rejected(records, f"header has no '{key}'")

    @pytest.mark.parametrize(
        "mode, key, value",
        [
            (FILTER, "delta", "1e-05"),
            (FILTER, "delta", True),
            (FILTER, "dp_target", "5.0"),
            (FILTER, "dp_target", [5.0]),
            (ODOMETER, "delta", "1e-05"),
        ],
    )
    def test_header_number_that_is_not_a_json_number_is_rejected(self, mode, key, value):
        records = self._records(mode)
        records[0][key] = value
        self._rejected(records, f"^header {key} must be a number, got ")

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_header_sealed_that_is_not_a_json_bool_is_rejected(self, value):
        records = self._records(FILTER)
        records[0]["sealed"] = value
        self._rejected(records, "^header sealed must be true or false, got ")

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_header_orders_that_are_not_a_list_are_rejected(self, mode):
        # the filter header's orders are read to check its dp_target cap
        records = self._records(mode)
        records[0]["orders"] = "24"
        self._rejected(
            records, "^header has a malformed 'orders': ValueError\\('orders must be a list"
        )

    @pytest.mark.parametrize(
        "mode, key, value",
        [
            (FILTER, "bound", {"eps": 1.0, "alpha": 2.0, "f": 1}),
            (FILTER, "note", "x"),
            (ODOMETER, "cap", {"orders": [2.0, 4.0], "eps": [5.0, 10.0]}),
            (ODOMETER, "dp_target", 5.0),
            (ODOMETER, "sealed", False),
        ],
    )
    def test_header_key_the_writer_never_writes_is_rejected(self, mode, key, value):
        records = self._records(mode)
        reconstruct(SessionLog.from_jsonl("".join(json.dumps(r) + "\n" for r in records)))
        records[0][key] = value
        self._rejected(records, f"^{mode} header has keys the writer never writes: \\['{key}'\\]$")

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, "0", None])
    def test_header_seed_outside_the_writers_range_is_rejected(self, mode, seed):
        records = self._records(mode)
        records[0]["seed"] = seed
        self._rejected(
            records, f"^header seed must be an integer in \\[0, 2\\*\\*64\\), got {seed!r}$"
        )

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_header_without_a_seed_is_rejected(self, mode):
        records = self._records(mode)
        del records[0]["seed"]
        self._rejected(records, "^header has no 'seed'$")

    def test_header_seed_at_the_ends_of_its_range_replays(self):
        for seed in (0, 2**64 - 1):
            records = self._records(FILTER)
            records[0]["seed"] = seed
            text = "".join(json.dumps(r) + "\n" for r in records)
            reconstruct(SessionLog.from_jsonl(text))

    @pytest.mark.parametrize(
        "mode, cap",
        [(FILTER, None), (FILTER, RdpCurve(ORDERS24, (5.0, 10.0))), (ODOMETER, None)],
        ids=["dp_target filter", "cap filter", "odometer"],
    )
    @pytest.mark.parametrize("delta", [5.0, 1.0, 0.0, 1e-320])
    def test_header_delta_outside_the_unit_interval_is_rejected(self, mode, cap, delta):
        records = self._records(mode, cap)
        records[0]["delta"] = delta
        self._rejected(records, f"^header delta (must lie in \\(0, 1\\), got|{delta} is too small)")

    @pytest.mark.parametrize("orders", [[8.0], [2.0], [2.0, 4.0, 8.0]])
    def test_cap_filter_header_orders_other_than_the_caps_are_rejected(self, orders):
        records = self._records(FILTER, RdpCurve(ORDERS24, (5.0, 10.0)))
        records[0]["orders"] = orders
        self._rejected(records, "^header orders are not the cap's orders$")

    def test_cap_filter_header_without_orders_is_rejected(self):
        records = self._records(FILTER, RdpCurve(ORDERS24, (5.0, 10.0)))
        del records[0]["orders"]
        self._rejected(records, "^header has no 'orders'$")

    def test_cap_filter_header_orders_listed_unsorted_replay(self):
        # the writer lists sorted orders, but an order list means its set
        records = self._records(FILTER, RdpCurve(ORDERS24, (5.0, 10.0)))
        records[0]["orders"] = [4.0, 2.0]
        reconstruct(SessionLog.from_jsonl("".join(json.dumps(r) + "\n" for r in records)))

    def test_header_sealed_false_still_replays(self):
        records = self._records(FILTER)
        records[0]["sealed"] = False
        reconstruct(SessionLog.from_jsonl("".join(json.dumps(r) + "\n" for r in records)))

    @pytest.mark.parametrize("v1", [False, True], ids=["format 2", "format 1"])
    @pytest.mark.parametrize(
        "mode, key, value",
        [
            (ODOMETER, "decision", "PASS"),
            (FILTER, "bound", 1),
            (FILTER, "f_per_alpha", {"2.0": 1, "4.0": 1}),
            (ODOMETER, "note", None),
        ],
    )
    def test_record_key_the_writer_never_writes_is_rejected(self, mode, key, value, v1):
        records = self._records(mode)
        if v1:
            del records[0]["format"]
        records[2][key] = value
        self._rejected(records, f"^record 2 has keys the writer never writes: \\['{key}'\\]$")

    def test_elided_request_record_with_another_key_is_rejected(self):
        # format 2 leaves out the repeated request: the record is "i" and
        # the tail, and one more key is still one too many
        records = run_session(SessionConfig(
            mode=FILTER, orders=ORDERS24, delta=1e-5, seed=0,
            source=gaussian_schedule(1, sigma=100.0, count=3), dp_target=5.0,
        )).records
        assert "request" not in records[2]
        records[2]["requests"] = records[1]["request"]
        self._rejected(records, "^record 2 has keys the writer never writes: \\['requests'\\]$")

    @pytest.mark.parametrize(
        "mode, key",
        [
            (FILTER, "request"),
            (FILTER, "decision"),
            (ODOMETER, "request"),
            (ODOMETER, "f_per_alpha"),
            (ODOMETER, "bound"),
        ],
    )
    def test_record_missing_a_key_is_rejected(self, mode, key):
        records = self._records(mode)
        del records[2][key]
        if key == "request":
            # format 2 may leave out a request equal to the last; format 1
            # may not
            del records[0]["format"]
        self._rejected(records, f"record 2 has no '{key}'")

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda r: r[0]["orders"].__setitem__(0, 10**400),
             "^header has a malformed 'orders': OverflowError"),
            (lambda r: r[2]["request"]["orders"].__setitem__(0, 10**400),
             "^record 2 has a malformed 'request': OverflowError"),
            (lambda r: r[2]["request"]["eps"].__setitem__(1, 10**400),
             "^record 2 has a malformed 'request': OverflowError"),
            (lambda r: r[0].__setitem__("delta", 10**400),
             "^header delta is a number past the float range$"),
        ],
        ids=["header-orders", "request-orders", "request-eps", "header-delta"],
    )
    def test_an_int_past_the_float_range_names_its_record(self, mode, tamper, message):
        # json.dumps writes 10**400 as its 401 digits, which float() refuses
        records = self._records(mode)
        tamper(records)
        self._rejected(records, message)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda h: h["cap"]["eps"].__setitem__(0, 10**400),
             "^header has a malformed 'cap': OverflowError"),
            (lambda h: h.__setitem__("dp_target", 10**400),
             "^header dp_target is a number past the float range$"),
        ],
        ids=["cap-eps", "dp-target"],
    )
    def test_a_filter_header_int_past_the_float_range_is_named(self, tamper, message):
        records = self._records(FILTER)
        tamper(records[0])
        self._rejected(records, message)

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_request_on_other_orders_names_its_record(self, mode):
        records = self._records(mode)
        records[2]["request"] = _req(0.0).to_json()
        self._rejected(
            records, "^record 2: request is on orders other than the header's$"
        )

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    @pytest.mark.parametrize(
        "tamper, detail",
        [
            (lambda r: r["eps"].__setitem__(0, -1.0), "finite and >= 0, got -1.0"),
            (lambda r: r["orders"].__setitem__(0, 1.0), "finite real > 1, got 1.0"),
            (lambda r: r["eps"].pop(), "1 values for 2 orders"),
        ],
        ids=["negative-eps", "order-at-1", "eps-count"],
    )
    def test_request_with_an_invalid_value_names_its_record(self, mode, tamper, detail):
        records = self._records(mode)
        tamper(records[2]["request"])
        self._rejected(
            records, f"^record 2 has a malformed 'request': ValueError\\(.*{detail}"
        )

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    @pytest.mark.parametrize("key, value", [("orders", "24"), ("eps", "12"), ("orders", {"2": 1})])
    def test_request_list_that_is_not_a_list_names_its_record(self, mode, key, value):
        # tuple() would read "24" as the orders (2.0, 4.0)
        records = self._records(mode)
        records[2]["request"][key] = value
        self._rejected(
            records, f"^record 2 has a malformed 'request': ValueError\\('{key} must be a list"
        )

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    @pytest.mark.parametrize("key, value", [("orders", "2"), ("eps", True), ("eps", "0.5")])
    def test_request_entry_that_is_not_a_number_names_its_record(self, mode, key, value):
        records = self._records(mode)
        records[2]["request"][key][0] = value
        self._rejected(
            records,
            f"^record 2 has a malformed 'request': ValueError\\(.each {key} entry must be a number",
        )

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    @pytest.mark.parametrize("eps, bad", [(1.0, True), (0.0, False), (1, True)])
    def test_repeated_request_with_a_bool_equal_to_its_eps_names_its_record(
        self, mode, eps, bad
    ):
        # the replay reuses the last curve for equal request data, and
        # true == 1.0; the bool must be refused all the same
        records = self._records(mode)
        records[1]["request"]["eps"][0] = eps
        records[2]["request"] = json.loads(json.dumps(records[1]["request"]))
        text = "".join(json.dumps(r) + "\n" for r in records)
        reconstruct(SessionLog.from_jsonl(text))
        records[2]["request"]["eps"][0] = bad
        self._rejected(
            records,
            "^record 2 has a malformed 'request': ValueError\\(.each eps entry must be a number",
        )

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_request_with_reordered_orders_replays_the_same(self, mode):
        records = self._records(mode)
        text = "".join(json.dumps(r) + "\n" for r in records)
        for record in records[1:]:
            record["request"]["orders"].reverse()
            record["request"]["eps"].reverse()
        reversed_text = "".join(json.dumps(r) + "\n" for r in records)
        assert reversed_text != text
        want = reconstruct(SessionLog.from_jsonl(text)).spent
        assert reconstruct(SessionLog.from_jsonl(reversed_text)).spent == want

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_replay_reads_requests_on_the_header_order_set(self, mode, monkeypatch):
        config = SessionConfig(
            mode=mode,
            orders=default_order_set(),
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(1, sigma=100.0, count=250),
            dp_target=5.0 if mode == FILTER else None,
        )
        log = SessionLog.from_jsonl(run_session(config).to_jsonl())
        built = []
        init = OrderSet.__init__

        def counting_init(self, orders):
            built.append(1)
            init(self, orders)

        monkeypatch.setattr(OrderSet, "__init__", counting_init)
        reconstruct(log)
        # the header's cap (filter) or orders, and a filter's dp_target check;
        # not one per record
        assert len(built) <= 2

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_line_that_is_not_an_object_is_rejected(self, mode):
        records = self._records(mode)
        self._rejected([[1, 2]] + records[1:], "header is not a JSON object")
        self._rejected(records[:1] + [[1, 2]], "record 1 is not a JSON object")
        records[1]["request"] = [1, 2]
        self._rejected(records, "record 1 has a malformed 'request'")


def _climbing_odometer() -> SessionConfig:
    # sigma 1 spends 1 per query at order 2 and 2 at order 4, whose first
    # rungs are ln(4e5) ~ 12.9 and 4.3: order 4 climbs at queries 3, 5, 9
    # and 18 of the step, order 2 at query 13
    return SessionConfig(
        mode=ODOMETER,
        orders=ORDERS24,
        delta=1e-5,
        seed=0,
        source=gaussian_schedule(1, sigma=1.0, count=20),
    )


SESSION_KINDS = {
    "filter by cap": SessionConfig(
        mode=FILTER,
        orders=ORDERS24,
        delta=1e-5,
        seed=0,
        source=gaussian_schedule(2, sigma=1.0, count=3),
        cap=RdpCurve(ORDERS24, (3.5, 7.0)),
    ),
    "filter by dp_target": SessionConfig(
        mode=FILTER,
        orders=ORDERS24,
        delta=1e-5,
        seed=0,
        source=gaussian_schedule(3, sigma=100.0, count=2),
        dp_target=5.0,
    ),
    "sealed filter": SessionConfig(
        mode=FILTER,
        orders=ORDERS24,
        delta=1e-5,
        seed=0,
        source=ScheduleReplay(
            steps=(
                ScheduleStep(GaussianMechanism(1.0), 4),
                ScheduleStep(GaussianMechanism(3.0), 3),
            )
        ),
        cap=RdpCurve(ORDERS24, (3.5, 7.0)),
        sealed=True,
    ),
    "odometer climbing mid-step": _climbing_odometer(),
    "request repeated across steps": SessionConfig(
        mode=ODOMETER,
        orders=ORDERS24,
        delta=1e-5,
        seed=0,
        source=gaussian_schedule(4, sigma=0.7, count=3),
    ),
    "script": SessionConfig(
        mode=FILTER,
        orders=ORDERS2,
        delta=1e-5,
        seed=0,
        source=chain_script(),
        cap=_req(1.0),
    ),
}


class TestLogText:
    @pytest.mark.parametrize("kind", list(SESSION_KINDS))
    def test_text_is_json_dumps_of_its_records(self, kind):
        text = run_session(SESSION_KINDS[kind]).to_jsonl()
        records = SessionLog.from_jsonl(text).records
        assert text == "".join(json.dumps(r) + "\n" for r in records)
        reconstruct(SessionLog.from_jsonl(text))

    def test_kinds_cover_denials_sealing_and_mid_step_climbs(self):
        decisions = {
            kind: [r["decision"] for r in run_session(SESSION_KINDS[kind]).events]
            for kind in ("filter by cap", "sealed filter", "script")
        }
        assert decisions["filter by cap"] == ["GRANT"] * 3 + ["PASS"] * 3
        assert decisions["sealed filter"] == ["GRANT"] * 3 + ["PASS"] * 4
        assert decisions["script"] == ["GRANT", "GRANT", "PASS", "GRANT"]
        rungs = [r["f_per_alpha"] for r in run_session(_climbing_odometer()).events]
        climbs = [i for i in range(1, len(rungs)) if rungs[i] != rungs[i - 1]]
        assert [i + 1 for i in climbs] == [3, 5, 9, 13, 18]

    @pytest.mark.parametrize("kind", list(SESSION_KINDS))
    def test_every_tail_key_is_checked(self, kind):
        # every key the writer puts after "request", on every record: a
        # changed value is an event that diverges, a missing key is named
        text = run_session(SESSION_KINDS[kind]).to_jsonl()
        events = SessionLog.from_jsonl(text).events
        keys = sorted({key for r in events for key in r} - {"i", "request"})
        assert keys
        for j in range(1, len(events) + 1):
            for key in keys:
                log = SessionLog.from_jsonl(text)
                log.records[j][key] = ["tampered"]
                with pytest.raises(ValueError, match=f"^event {j}: "):
                    reconstruct(log)
                log = SessionLog.from_jsonl(text)
                del log.records[j][key]
                with pytest.raises(ValueError, match=f"^record {j} has no '{key}'$"):
                    reconstruct(log)

    def test_records_are_a_view_parsed_from_the_text(self):
        log = run_session(SESSION_KINDS["script"])
        text = log.to_jsonl()
        log.records[3]["decision"] = "GRANT"
        assert log.to_jsonl() is text
        with pytest.raises(ValueError, match="replay decides"):
            reconstruct(log)
        loaded = SessionLog.from_jsonl(text)
        assert loaded.to_jsonl() is text
        assert loaded.final_state is None
        with pytest.raises(ValueError):
            SessionLog.from_jsonl(text + "{not json\n")


def _per_send_log(config: SessionConfig) -> str:
    """The log of a schedule session decided one send at a time, each
    record encoded by json.dumps: the header is the writer's own, and a
    record leaves out its request where its JSON equals the previous
    record's, across schedule steps too."""
    header = run_session(config).to_jsonl().splitlines()[0]
    state = reconstruct(SessionLog.from_jsonl(header))
    lines = [header + "\n"]
    last = None
    for step in config.source.steps:
        request = mechanism_rdp_curve(step.mech, config.orders)
        for _ in range(step.count):
            record = {"i": len(lines)}
            if request.to_json() != last:
                last = record["request"] = request.to_json()
            if config.mode == FILTER:
                record["decision"] = try_spend(state, request).value
            else:
                spend(state, request)
                bound = running_bound(state)
                record["f_per_alpha"] = {repr(a): f for a, f in zip(config.orders, state._f)}
                record["bound"] = {
                    "eps": bound.eps_dp, "alpha": bound.witness_order, "f": bound.witness_level
                }
            lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def _state_bits(state) -> tuple:
    totals = [v.hex() for v in state._spent]
    if isinstance(state, FilterState):
        return totals, state._passed_once
    return totals, state._f, running_bound(state), state.step


def _steps(*steps) -> ScheduleReplay:
    return ScheduleReplay(
        steps=tuple(ScheduleStep(GaussianMechanism(sigma), count) for sigma, count in steps)
    )


class TestScheduleRuns:
    """A schedule step is one run of the accountant, and each run of equal
    records is written at once; the log is byte for byte the one a writer
    deciding each send on its own gives, and replays to the same state."""

    @staticmethod
    def _run(config: SessionConfig) -> list:
        log = run_session(config)
        text = log.to_jsonl()
        assert text == _per_send_log(config)
        replayed = reconstruct(SessionLog.from_jsonl(text))
        assert _state_bits(replayed) == _state_bits(log.final_state)
        return log.events

    @staticmethod
    def _filter(source, sealed=False) -> SessionConfig:
        # sigma s spends 1/s**2 at order 2 and 2/s**2 at order 4
        return SessionConfig(
            mode=FILTER, orders=ORDERS24, delta=1e-5, seed=0, source=source,
            cap=RdpCurve(ORDERS24, (40.5, 81.0)), sealed=sealed,
        )

    def test_a_step_passed_whole(self):
        events = self._run(self._filter(_steps((1.0, 30), (0.25, 400), (3.0, 20))))
        decisions = [r["decision"] for r in events]
        assert decisions == ["GRANT"] * 30 + ["PASS"] * 400 + ["GRANT"] * 20

    def test_a_step_that_crosses_the_cap(self):
        events = self._run(self._filter(_steps((1.0, 300), (0.5, 5))))
        decisions = [r["decision"] for r in events]
        assert decisions == ["GRANT"] * 40 + ["PASS"] * 265
        assert "request" in events[0] and "request" in events[300]
        assert not any("request" in r for r in events[1:300] + events[301:])

    def test_a_sealed_filter_passes_every_later_step(self):
        source = _steps((1.0, 50), (3.0, 20), (1.0, 5))
        events = self._run(self._filter(source, sealed=True))
        assert [r["decision"] for r in events] == ["GRANT"] * 40 + ["PASS"] * 35
        # unsealed, the smaller request of the second step fits again
        unsealed = [r["decision"] for r in self._run(self._filter(source))]
        assert unsealed[50:70] == ["GRANT"] * 4 + ["PASS"] * 16

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_equal_requests_in_adjacent_steps_are_written_once(self, mode):
        # two step objects, two curve objects, one request JSON text
        source = _steps((1.0, 30), (1.0, 30), (2.0, 3))
        if mode == FILTER:
            config = self._filter(source)
        else:
            config = dataclasses.replace(_climbing_odometer(), source=source)
        events = self._run(config)
        carrying = [r["i"] for r in events if "request" in r]
        assert carrying == [1, 61]

    def test_an_odometer_run_climbs_mid_step_and_across_windows(self):
        config = dataclasses.replace(
            _climbing_odometer(), source=_steps((1.0, 20), (3.0, 2000), (0.25, 3))
        )
        rungs = [r["f_per_alpha"] for r in self._run(config)]
        climbs = [i for i in range(1, len(rungs)) if rungs[i] != rungs[i - 1]]
        assert len(climbs) > 8 and climbs[-1] >= 2020


class TestReplaySchedule:
    def test_constant_sigma_one_accumulates_alpha_halves(self):
        trace = replay_schedule(gaussian_schedule(6), ORDERS24)
        assert len(trace) == 6
        for n, curve in enumerate(trace, start=1):
            assert curve.values == (n * 1.0, n * 2.0)

    def test_sigma_switch_quarters_the_slope(self):
        steps = (
            ScheduleStep(GaussianMechanism(1.0), 2),
            ScheduleStep(GaussianMechanism(2.0), 2),
        )
        trace = replay_schedule(ScheduleReplay(steps=steps), ORDERS2)
        increments = [trace[0].values[0]] + [
            trace[i].values[0] - trace[i - 1].values[0] for i in range(1, 4)
        ]
        assert increments[0] == 1.0 and increments[1] == 1.0
        assert increments[2] == 0.25 and increments[3] == 0.25

    def test_empty_schedule_gives_empty_trace(self):
        assert replay_schedule(ScheduleReplay(steps=()), ORDERS24) == []
        assert schedule_total(ScheduleReplay(steps=()), ORDERS24).is_zero()

    def test_counts_expand_to_individual_queries(self):
        trace = replay_schedule(
            ScheduleReplay(steps=(ScheduleStep(GaussianMechanism(1.0), 5),)),
            ORDERS2,
        )
        assert len(trace) == 5

    def test_step_count_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            ScheduleStep(GaussianMechanism(1.0), 0)
        with pytest.raises(ValueError):
            ScheduleStep(GaussianMechanism(1.0), 1.5)

    @pytest.mark.parametrize("count", [2.7, True, "3", 2.0])
    def test_schedule_json_count_is_not_coerced(self, count):
        with pytest.raises(ValueError, match="count must be an integer"):
            ScheduleStep(GaussianMechanism(1.0), count)
        data = {"steps": [{"mech": {"kind": "gaussian", "sigma": 1.0}, "count": count}]}
        with pytest.raises(ValueError, match="count must be an integer") as info:
            ScheduleReplay.from_json(data)
        assert "\n" not in str(info.value)

    def test_misspelled_mechanism_key_is_refused(self):
        # not read as the default sensitivity 1.0, which under-reports
        # epsilon
        mech = {"kind": "gaussian", "sigma": 2, "sensitivty": 5}
        with pytest.raises(ValueError, match=r"^unknown steps\[0\]\.mech keys: sensitivty$"):
            ScheduleReplay.from_json({"steps": [{"mech": mech, "count": 1}]})
        mech["sensitivity"] = mech.pop("sensitivty")
        (step,) = ScheduleReplay.from_json({"steps": [{"mech": mech}]}).steps
        assert step == ScheduleStep(GaussianMechanism(2.0, 5.0), 1)

    def test_schedule_json_round_trip(self):
        sched = ScheduleReplay(
            steps=(
                ScheduleStep(GaussianMechanism(1.0), 3),
                ScheduleStep(GaussianMechanism(2.0, 0.5), 1),
            )
        )
        assert ScheduleReplay.from_json(sched.to_json()) == sched


class TestPolicySpec:
    def test_defaults_match_the_training_recipe(self):
        spec = PolicySpec()
        assert spec.period_epochs == 10
        assert spec.threshold_sigmas == 3.0
        assert spec.sigma_increment == 0.1
        assert spec.eval_sigma == 100.0
        assert spec.min_remaining_epochs == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            PolicySpec(sigma_increment=0.0)
        with pytest.raises(ValueError, match="unknown policy keys: batch_increment"):
            PolicySpec.from_json({"batch_increment": 0})
        with pytest.raises(ValueError, match="JSON object"):
            PolicySpec.from_json([1, 2])
        with pytest.raises(ValueError):
            PolicySpec(min_remaining_epochs=-1)
        with pytest.raises(ValueError):
            PolicySpec(period_epochs=0)
        with pytest.raises(ValueError):
            PolicySpec(threshold_sigmas=-0.5)
        with pytest.raises(ValueError):
            PolicySpec(eval_sigma=0.0)

    @pytest.mark.parametrize(
        "data",
        [
            {"period_epochs": "10"},
            {"period_epochs": True},
            {"min_remaining_epochs": 50.0},
            {"threshold_sigmas": "3"},
            {"eval_sigma": False},
            {"sigma_floor": "0.5"},
            {"sigma_ceiling": [2.0]},
            {"threshold_sigmas": math.nan},
            {"eval_sigma": math.inf},
            {"sigma_floor": -math.inf},
            {"sigma_increment": 10**400},
        ],
    )
    def test_field_types_are_checked(self, data):
        (name,) = data
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            PolicySpec.from_json(data)

    def test_ints_are_real_numbers_and_none_is_allowed(self):
        spec = PolicySpec.from_json(
            {"eval_sigma": 50, "sigma_floor": None, "sigma_ceiling": 2}
        )
        assert spec.eval_sigma == 50 and spec.sigma_ceiling == 2

    def test_json_round_trip(self):
        spec = PolicySpec(period_epochs=5, sigma_ceiling=3.0)
        text = json.dumps(dataclasses.asdict(spec))
        assert PolicySpec.from_json(json.loads(text)) == spec


class TestSimulatePolicy:
    BASE = ScheduleReplay(
        steps=tuple(
            ScheduleStep(GaussianMechanism(1.0), 512) for _ in range(100)
        )
    )

    def test_never_improving_signal_keeps_baseline_sigma(self):
        # the eval queries' price leaves no room for the last training
        # query: the sealed filter grants 511 of the 100th epoch's 512
        out = simulate_policy(PolicySpec(), [0.0] * 10, self.BASE, ORDERS24)
        training = [s for s in out.steps if s.count == 512]
        assert len(training) == 99
        assert all(s.mech.sigma == 1.0 for s in training)
        assert out.steps[-1] == ScheduleStep(GaussianMechanism(1.0), 511)

    def test_eval_queries_are_added_to_the_trace(self):
        out = simulate_policy(PolicySpec(), [0.0] * 10, self.BASE, ORDERS24)
        evals = [s for s in out.steps if s.count == 1]
        assert len(evals) == 9
        assert all(s.mech.sigma == 100.0 for s in evals)
        # the run stopped one training query short of the baseline
        train_curve = gaussian_rdp_curve(GaussianMechanism(1.0), ORDERS24)
        out_total = schedule_total(out, ORDERS24)
        eval_curve = gaussian_rdp_curve(GaussianMechanism(100.0), ORDERS24)
        for i in range(len(ORDERS24)):
            assert out_total.values[i] == pytest.approx(
                (100 * 512 - 1) * train_curve.values[i] + 9 * eval_curve.values[i]
            )

    def test_improving_signal_ramps_sigma_by_increment(self):
        threshold = 3.0 * 100.0
        out = simulate_policy(
            PolicySpec(), [threshold] * 10, self.BASE, ORDERS24
        )
        training = [s for s in out.steps if s.count == 512]
        for period in range(10):
            sigma = training[period * 10].mech.sigma
            assert sigma == pytest.approx(1.0 + 0.1 * period)

    def test_signal_below_threshold_walks_sigma_back_down(self):
        signal = [1e9, 1e9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        out = simulate_policy(PolicySpec(), signal, self.BASE, ORDERS24)
        training = [s for s in out.steps if s.count == 512]
        sigmas = [training[p * 10].mech.sigma for p in range(10)]
        assert sigmas[1] == pytest.approx(1.1)
        assert sigmas[2] == pytest.approx(1.2)
        assert sigmas[3] == pytest.approx(1.1)
        assert sigmas[4] == pytest.approx(1.0)
        assert sigmas[5:] == [1.0] * 5

    def test_guard_blocks_decrease_when_headroom_short(self):
        # 60 epochs, improvement only in the last period: by then the
        # adapted run has spent the whole baseline budget, so fewer than
        # 50 further epochs fit and the rule must hold sigma steady
        base = ScheduleReplay(
            steps=tuple(
                ScheduleStep(GaussianMechanism(1.0), 512) for _ in range(60)
            )
        )
        signal = [0.0] * 5 + [1e9]
        out = simulate_policy(PolicySpec(), signal, base, ORDERS24)
        training = [s for s in out.steps if s.count == 512]
        assert all(s.mech.sigma == 1.0 for s in training)

    def test_guard_invariant_headroom_at_every_decrease(self):
        # wherever sigma steps up, at least 50 more epochs must have fit
        # under the cap at the pre-increase rate
        policy = PolicySpec()
        cap = schedule_total(self.BASE, ORDERS24)
        out = simulate_policy(policy, [1e9] * 10, self.BASE, ORDERS24)
        spent = [0.0] * len(ORDERS24)
        prev_sigma = 1.0
        for step in out.steps:
            if step.count == 512 and step.mech.sigma > prev_sigma:
                rate = gaussian_rdp_curve(
                    GaussianMechanism(prev_sigma), ORDERS24
                )
                admitted = max(
                    int((cap.values[i] - spent[i]) / (512 * rate.values[i]))
                    for i in range(len(ORDERS24))
                )
                assert admitted >= policy.min_remaining_epochs
                prev_sigma = step.mech.sigma
            curve = gaussian_rdp_curve(step.mech, ORDERS24)
            for i in range(len(ORDERS24)):
                spent[i] += step.count * curve.values[i]

    def test_sigma_ceiling_caps_the_ramp(self):
        policy = PolicySpec(sigma_ceiling=1.25)
        out = simulate_policy(policy, [1e9] * 10, self.BASE, ORDERS24)
        training = [s for s in out.steps if s.count == 512]
        assert max(s.mech.sigma for s in training) <= 1.25

    def test_signal_length_must_match_period_count(self):
        with pytest.raises(ValueError, match="signal has"):
            simulate_policy(PolicySpec(), [0.0] * 3, self.BASE, ORDERS24)

    def test_non_gaussian_steps_are_rejected(self):
        base = ScheduleReplay(steps=(ScheduleStep(NULL_MECH, 1),))
        with pytest.raises(ValueError, match="Gaussian"):
            simulate_policy(PolicySpec(), [], base, ORDERS24)

    def test_default_orders_are_used_when_unspecified(self):
        base = gaussian_schedule(10, count=1)
        out = simulate_policy(PolicySpec(), [0.0], base)
        # the 10 training queries fill the cap: the eval query is refused
        assert len(out.steps) == 10

    # sha256 of json.dumps(simulate_policy(...).to_json()) for inputs whose
    # run stays under the baseline cap, where the filter refuses nothing:
    # the adaptation rule alone decides these outputs
    OUTPUT_SHA256 = {
        "always-improving": (
            [300.0] * 10,
            "eef1f2655e3240d0de8dea8cdaf5e89fc20f513fae3694295db0dc20c50e95b4",
        ),
        "mixed": (
            [1e9, 1e9] + [0.0] * 8,
            "529a3a68674a99a1d30d81e5724377013a483e9eb1679e69522fdffe6a00dce8",
        ),
    }

    @pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
    def test_output_that_fits_the_cap_is_pinned(self, name):
        signal, digest = self.OUTPUT_SHA256[name]
        out = simulate_policy(PolicySpec(), signal, self.BASE, ORDERS24)
        text = json.dumps(out.to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "policy, granted",
        [(PolicySpec(), 25_008), (PolicySpec(sigma_ceiling=0.9), 20_257)],
        ids=["never-improving", "sigma-ceiling"],
    )
    def test_emitted_schedule_stays_under_the_baseline_cap(self, policy, granted):
        # 100 epochs x 250 queries at sigma 1 on the 38 default orders; the
        # eval queries (and, under the ceiling, the smaller sigma) would
        # take the run past the cap, so it stops at the filter's first PASS
        base = gaussian_schedule(100, count=250)
        out = simulate_policy(policy, [0.0] * 10, base)
        assert sum(s.count for s in out.steps) == granted
        assert _granted_whole(out, schedule_total(base, default_order_set()))


def _granted_whole(schedule: ScheduleReplay, cap: RdpCurve) -> bool:
    """Whether a fresh sealed filter at cap grants every query of schedule."""
    state = new_filter(cap, sealed=True)
    for step in schedule.steps:
        curve = mechanism_rdp_curve(step.mech, cap.orders)
        for _ in range(step.count):
            if try_spend(state, curve) is Decision.PASS:
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([ORDERS2, ORDERS24, OrderSet([1.5, 3.0, 8.0, 32.0])]),
    st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=3.0),
            st.integers(min_value=1, max_value=12),
        ),
        max_size=24,
    ),
    st.builds(
        PolicySpec,
        period_epochs=st.integers(min_value=1, max_value=4),
        threshold_sigmas=st.sampled_from([0.0, 1.0, 3.0]),
        sigma_increment=st.sampled_from([0.05, 0.1, 0.5]),
        eval_sigma=st.sampled_from([2.0, 10.0, 100.0]),
        sigma_floor=st.none() | st.floats(min_value=0.3, max_value=3.0),
        sigma_ceiling=st.none() | st.floats(min_value=0.3, max_value=3.0),
        min_remaining_epochs=st.integers(min_value=0, max_value=10),
    ),
    st.data(),
)
def test_policy_output_replays_under_the_baseline_cap(orders, epochs, policy, data):
    base = ScheduleReplay(
        steps=tuple(ScheduleStep(GaussianMechanism(s), c) for s, c in epochs)
    )
    n_periods = len(epochs) // policy.period_epochs
    signal = data.draw(
        st.lists(
            st.sampled_from([0.0, 1e9]) | st.floats(min_value=0.0, max_value=500.0),
            min_size=n_periods,
            max_size=n_periods,
        )
    )
    out = simulate_policy(policy, signal, base, orders)
    assert _granted_whole(out, schedule_total(base, orders))


class TestExport:
    def _filter_log(self):
        config = SessionConfig(
            mode=FILTER,
            orders=ORDERS2,
            delta=1e-5,
            seed=0,
            source=chain_script(),
            cap=_req(1.0),
        )
        return run_session(config)

    def _odometer_log(self, n=3):
        config = SessionConfig(
            mode=ODOMETER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=gaussian_schedule(n),
        )
        return run_session(config)

    def test_json_export_reimports_exactly(self, tmp_path):
        log = self._odometer_log()
        path = tmp_path / "session.jsonl"
        export(log, "json", str(path))
        again = SessionLog.from_jsonl(path.read_text())
        assert again.records == log.records

    def test_csv_row_count_is_events_plus_header(self, tmp_path):
        log = self._odometer_log(4)
        path = tmp_path / "session.csv"
        export(log, "csv", str(path))
        rows = path.read_text().splitlines()
        assert len(rows) == 4 + 1

    def test_empty_log_gives_header_only_csv(self):
        config = SessionConfig(
            mode=ODOMETER,
            orders=ORDERS24,
            delta=1e-5,
            seed=0,
            source=ScheduleReplay(steps=()),
        )
        text = log_to_csv(run_session(config))
        rows = text.splitlines()
        assert rows == ["step,spent_2.0,spent_4.0,f_2.0,f_4.0,eps_dp"]

    def test_filter_csv_freezes_spent_on_denials(self):
        text = log_to_csv(self._filter_log())
        rows = [r.split(",") for r in text.splitlines()]
        assert rows[0] == ["step", "decision", "spent_2.0"]
        assert [r[1] for r in rows[1:]] == ["GRANT", "GRANT", "PASS", "GRANT"]
        assert [r[2] for r in rows[1:]] == ["0.4", "0.9", "0.9", "1.0"]

    @pytest.mark.parametrize("mode", [FILTER, ODOMETER])
    def test_csv_rows_read_every_deferred_sum(self, mode):
        # one request object 600 times: windows open, and the replay under
        # the export reads the totals after each send, mid-window
        orders = default_order_set()
        schedule = gaussian_schedule(1, sigma=30.0, count=600)
        config = SessionConfig(
            mode=mode, orders=orders, delta=1e-5, seed=0, source=schedule,
            cap=RdpCurve(orders, (1e6,) * len(orders)) if mode == FILTER else None,
        )
        log = run_session(config)
        start = 2 if mode == FILTER else 1
        rows = [r.split(",")[start:start + len(orders)]
                for r in log_to_csv(log).splitlines()[1:]]
        totals = replay_schedule(schedule, orders)
        assert rows == [[repr(v) for v in total.values] for total in totals]
        assert log.final_state.spent == totals[-1]

    def test_odometer_csv_carries_f_and_bound_columns(self):
        log = self._odometer_log(3)
        rows = [r.split(",") for r in log_to_csv(log).splitlines()]
        state = log.final_state
        assert rows[-1][1:3] == [repr(v) for v in state.spent.values]
        assert rows[-1][3:5] == [str(f) for f in state._f]
        assert float(rows[-1][5]) == running_bound(state).eps_dp

    @pytest.mark.parametrize(
        "mode, tamper",
        [
            (FILTER, lambda records: records[3].update(decision="GRANT")),
            (ODOMETER, lambda records: records[-1]["bound"].update(eps=0.5)),
            (ODOMETER, lambda records: records[2].update(i=7)),
            (ODOMETER, lambda records: records[2].pop("bound")),
        ],
        ids=["decision", "bound", "numbering", "missing-key"],
    )
    def test_csv_rejects_what_reconstruct_rejects(self, tmp_path, mode, tamper):
        log = self._filter_log() if mode == FILTER else self._odometer_log()
        tamper(log.records)
        with pytest.raises(ValueError) as expected:
            reconstruct(log)
        path = tmp_path / "session.csv"
        with pytest.raises(ValueError) as got:
            export(log, "csv", str(path))
        assert str(got.value) == str(expected.value)
        assert len(str(got.value).splitlines()) == 1
        assert not path.exists()

    def test_unwritable_path_reports_the_path(self):
        log = self._filter_log()
        with pytest.raises(OSError, match="no/such/dir"):
            export(log, "json", "/no/such/dir/session.jsonl")

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export(self._filter_log(), "parquet", str(tmp_path / "x"))

    def test_jsonl_parses_one_object_per_line(self):
        log = self._odometer_log()
        lines = log.to_jsonl().splitlines()
        assert len(lines) == len(log.records)
        for line, record in zip(lines, log.records):
            assert json.loads(line) == record

    def test_empty_jsonl_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SessionLog.from_jsonl("")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sigmas=st.lists(
        st.floats(min_value=0.3, max_value=4.0, allow_nan=False),
        min_size=1,
        max_size=6,
    ),
)
def test_odometer_sessions_always_reconstruct(seed, sigmas):
    sched = ScheduleReplay(
        steps=tuple(ScheduleStep(GaussianMechanism(s), 1) for s in sigmas)
    )
    config = SessionConfig(
        mode=ODOMETER, orders=ORDERS24, delta=1e-5, seed=seed, source=sched
    )
    log = run_session(config)
    rebuilt = reconstruct(SessionLog.from_jsonl(log.to_jsonl()))
    assert rebuilt.spent.values == log.final_state.spent.values
    assert rebuilt._f == log.final_state._f
