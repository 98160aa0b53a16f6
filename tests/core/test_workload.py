"""The trace-driven workload engine: seeded, shaped, replayable."""

import json
import re
from collections import Counter

import pytest

from repro.core.errors import WorkloadError
from repro.core.telemetry import Telemetry
from repro.core.workload import (
    AdmissionController,
    BurstStorm,
    DiurnalCycle,
    OpSpec,
    TenantSpec,
    Trace,
    TraceReplayer,
    TraceRequest,
    WorkloadSpec,
    ZipfianSampler,
    generate_trace,
    percentile,
)
from tests.conftest import fingerprint

KEYS = tuple(f"http://site{i:02d}.example/" for i in range(20))


def small_spec(seed=7, duration=60.0, rate=4.0, **tenant_kwargs):
    tenant = TenantSpec(
        name="researchers",
        rate_per_s=rate,
        ops=(
            OpSpec(op="browse", weight=3.0, keys=KEYS),
            OpSpec(op="history", weight=1.0, keys=KEYS[:5], zipf_s=0.0),
        ),
        **tenant_kwargs,
    )
    return WorkloadSpec(tenants=(tenant,), duration_s=duration, seed=seed)


class TestTraceRequest:
    def test_round_trips_through_dict(self):
        request = TraceRequest(
            seq=3,
            arrival_s=1.25,
            tenant="t",
            op="browse",
            key="http://a/",
            params=(("as_of", 9.0),),
        )
        assert TraceRequest.from_dict(request.to_dict()) == request
        assert request.param("as_of") == 9.0
        assert request.param("missing", 42) == 42

    def test_malformed_record_raises(self):
        with pytest.raises(WorkloadError, match="malformed"):
            TraceRequest.from_dict({"seq": 0})

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"seq": "7"}, "seq is str"),
            ({"seq": 1.9}, "seq is float"),
            ({"seq": True}, "seq is bool"),
            ({"arrival_s": True}, "arrival_s is True"),
            ({"arrival_s": "2.5"}, "arrival_s is '2.5'"),
            ({"arrival_s": float("nan")}, "arrival_s is nan"),
            ({"tenant": 5}, "tenant is int"),
            ({"op": None}, "op is NoneType"),
            ({"key": ["k"]}, "key is list"),
            ({"params": {"as_of": [9.0]}}, "param 'as_of' is list"),
            ({"params": {"as_of": {"t": 9.0}}}, "param 'as_of' is dict"),
        ],
    )
    def test_wrong_typed_field_is_refused_not_coerced(self, fields, problem):
        """Only what ``Trace.save`` writes loads: a coerced field would
        replay a request the trace never held."""
        record = {"seq": 7, "arrival_s": 1.5, "tenant": "t", "op": "browse", "key": "k"}
        with pytest.raises(WorkloadError, match=f"malformed trace record: {re.escape(problem)}"):
            TraceRequest.from_dict({**record, **fields})

    def test_an_integer_arrival_reads_as_seconds(self):
        record = {"seq": 7, "arrival_s": 2, "tenant": "t", "op": "browse", "key": "k"}
        assert TraceRequest.from_dict(record).arrival_s == 2.0


class TestZipfianSampler:
    def test_head_is_hotter_than_tail(self):
        from random import Random

        sampler = ZipfianSampler(KEYS, s=1.2)
        rng = Random(0)
        counts = {}
        for _ in range(5000):
            key = sampler.sample(rng)
            counts[key] = counts.get(key, 0) + 1
        assert counts[KEYS[0]] > counts.get(KEYS[-1], 0) * 5

    def test_validation(self):
        with pytest.raises(WorkloadError, match="at least one key"):
            ZipfianSampler(())
        with pytest.raises(WorkloadError, match="exponent"):
            ZipfianSampler(KEYS, s=-1.0)


class TestTemporalShapes:
    def test_diurnal_peaks_and_troughs(self):
        cycle = DiurnalCycle(period_s=100.0, trough=0.2, peak_s=50.0)
        assert cycle.multiplier(50.0) == pytest.approx(1.0)
        assert cycle.multiplier(0.0) == pytest.approx(0.2)
        assert cycle.multiplier(150.0) == pytest.approx(1.0)

    def test_diurnal_validation(self):
        with pytest.raises(WorkloadError, match="period"):
            DiurnalCycle(period_s=0.0)
        with pytest.raises(WorkloadError, match="trough"):
            DiurnalCycle(trough=0.0)

    def test_storm_window(self):
        storm = BurstStorm(start_s=10.0, end_s=20.0, multiplier=4.0)
        assert not storm.active(9.9)
        assert storm.active(10.0)
        assert not storm.active(20.0)
        with pytest.raises(WorkloadError, match="empty"):
            BurstStorm(start_s=5.0, end_s=5.0)
        with pytest.raises(WorkloadError, match="multiplier"):
            BurstStorm(start_s=0.0, end_s=1.0, multiplier=0.0)


class TestSpecValidation:
    def test_rejects_bad_specs(self):
        op = OpSpec(op="browse", weight=1.0, keys=KEYS)
        tenant = TenantSpec(name="t", rate_per_s=1.0, ops=(op,))
        with pytest.raises(WorkloadError, match="positive weight"):
            OpSpec(op="x", weight=0.0, keys=KEYS)
        with pytest.raises(WorkloadError, match="key universe"):
            OpSpec(op="x", weight=1.0, keys=())
        with pytest.raises(WorkloadError, match="positive rate"):
            TenantSpec(name="t", rate_per_s=0.0, ops=(op,))
        with pytest.raises(WorkloadError, match="no ops"):
            TenantSpec(name="t", rate_per_s=1.0, ops=())
        with pytest.raises(WorkloadError, match="at least one tenant"):
            WorkloadSpec(tenants=(), duration_s=1.0)
        with pytest.raises(WorkloadError, match="duration"):
            WorkloadSpec(tenants=(tenant,), duration_s=0.0)
        with pytest.raises(WorkloadError, match="duplicate"):
            WorkloadSpec(tenants=(tenant, tenant), duration_s=1.0)
        # Refused before the range checks: a NaN passes every comparison,
        # and an infinite duration or rate never ends a trace.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(WorkloadError, match="duration must be finite"):
                WorkloadSpec(tenants=(tenant,), duration_s=bad)
            with pytest.raises(WorkloadError, match="rate must be finite"):
                TenantSpec(name="t", rate_per_s=bad, ops=(op,))
            with pytest.raises(WorkloadError, match="weight must be finite"):
                OpSpec(op="x", weight=bad, keys=KEYS)
            with pytest.raises(WorkloadError, match="Zipf exponent must be finite"):
                OpSpec(op="x", weight=1.0, keys=KEYS, zipf_s=bad)
            with pytest.raises(WorkloadError, match="Zipf exponent must be finite"):
                ZipfianSampler(KEYS, s=bad)
            with pytest.raises(WorkloadError, match="period must be finite"):
                DiurnalCycle(period_s=bad)
            with pytest.raises(WorkloadError, match="peak must be finite"):
                DiurnalCycle(peak_s=bad)
            with pytest.raises(WorkloadError, match="start must be finite"):
                BurstStorm(start_s=bad, end_s=1.0)
            with pytest.raises(WorkloadError, match="end must be finite"):
                BurstStorm(start_s=0.0, end_s=bad)
            with pytest.raises(WorkloadError, match="multiplier must be finite"):
                BurstStorm(start_s=0.0, end_s=1.0, multiplier=bad)


class TestGenerateTrace:
    def test_overlapping_storms_thin_at_their_product(self):
        """Two overlapping x3 storms make a 1 req/s tenant a 9 req/s one:
        thinning candidates drawn at 9 req/s keeps every one, so the trace
        is a plain 9 req/s tenant's, draw for draw."""
        op = OpSpec(op="browse", weight=1.0, keys=KEYS)
        storms = (BurstStorm(0.0, 100.0, 3.0), BurstStorm(0.0, 100.0, 3.0))
        stormy = TenantSpec(name="t", rate_per_s=1.0, ops=(op,), storms=storms)
        plain = TenantSpec(name="t", rate_per_s=9.0, ops=(op,))
        assert stormy.peak_rate() == 9.0
        traces = [
            generate_trace(WorkloadSpec(tenants=(tenant,), duration_s=100.0, seed=5))
            for tenant in (stormy, plain)
        ]
        assert traces[0].digest() == traces[1].digest()
        # Storms apart bound the rate by the largest one; a damping storm
        # inside a boost lowers no bound, and the bound never drops below 1.
        assert TenantSpec(name="t", rate_per_s=1.0, ops=(op,), storms=(
            BurstStorm(0.0, 10.0, 3.0), BurstStorm(10.0, 20.0, 4.0),
        )).peak_rate() == 4.0
        assert TenantSpec(name="t", rate_per_s=1.0, ops=(op,), storms=(
            BurstStorm(0.0, 10.0, 3.0), BurstStorm(0.0, 5.0, 0.5),
        )).peak_rate() == 3.0
        assert TenantSpec(name="t", rate_per_s=2.0, ops=(op,), storms=(
            BurstStorm(0.0, 10.0, 0.5),
        )).peak_rate() == 2.0

    def test_same_spec_same_trace(self):
        first = generate_trace(small_spec())
        second = generate_trace(small_spec())
        assert first.digest() == second.digest()
        assert first.requests == second.requests

    def test_seed_changes_the_trace(self):
        assert (
            generate_trace(small_spec(seed=1)).digest()
            != generate_trace(small_spec(seed=2)).digest()
        )

    def test_arrivals_are_sorted_and_sequenced(self):
        trace = generate_trace(small_spec())
        assert len(trace) > 0
        arrivals = [request.arrival_s for request in trace]
        assert arrivals == sorted(arrivals)
        assert [request.seq for request in trace] == list(range(len(trace)))
        assert all(0.0 <= a < 60.0 for a in arrivals)

    def test_zipf_head_dominates(self):
        trace = generate_trace(small_spec(duration=300.0))
        counts = Counter(r.key for r in trace.requests if r.op == "browse")
        assert counts.most_common(1)[0][0] == KEYS[0]
        assert counts[KEYS[0]] > counts[KEYS[-1]]

    def test_storm_concentrates_traffic(self):
        calm = generate_trace(small_spec(duration=100.0))
        stormy = generate_trace(
            small_spec(
                duration=100.0,
                storms=(BurstStorm(start_s=40.0, end_s=60.0, multiplier=8.0),),
            )
        )
        in_window = sum(1 for r in stormy if 40.0 <= r.arrival_s < 60.0)
        calm_window = sum(1 for r in calm if 40.0 <= r.arrival_s < 60.0)
        assert in_window > 3 * max(calm_window, 1)

    def test_diurnal_trough_thins_traffic(self):
        shaped = generate_trace(
            small_spec(
                duration=200.0,
                rate=8.0,
                diurnal=DiurnalCycle(period_s=200.0, trough=0.05, peak_s=150.0),
            )
        )
        trough_half = sum(1 for r in shaped if r.arrival_s < 100.0)
        peak_half = sum(1 for r in shaped if r.arrival_s >= 100.0)
        assert peak_half > trough_half

    def test_multi_tenant_merge_is_total_order(self):
        browse = OpSpec(op="browse", weight=1.0, keys=KEYS)
        spec = WorkloadSpec(
            tenants=(
                TenantSpec(name="a", rate_per_s=3.0, ops=(browse,)),
                TenantSpec(name="b", rate_per_s=3.0, ops=(browse,)),
            ),
            duration_s=120.0,
            seed=5,
        )
        trace = generate_trace(spec)
        assert {request.tenant for request in trace} == {"a", "b"}
        assert trace.digest() == generate_trace(spec).digest()


class TestTracePersistence:
    def test_save_load_round_trip(self, tmp_path):
        trace = generate_trace(small_spec())
        path = tmp_path / "trace.jsonl"
        assert trace.save(path) == len(trace)
        loaded = Trace.load(path)
        assert loaded.digest() == trace.digest()
        assert loaded.requests == trace.requests
        assert loaded.name == trace.name and loaded.seed == trace.seed

    def test_two_saves_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        generate_trace(small_spec()).save(a)
        generate_trace(small_spec()).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_rejects_corruption(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(WorkloadError, match="no trace header"):
            Trace.load(path)
        trace = generate_trace(small_spec())
        path2 = tmp_path / "short.jsonl"
        trace.save(path2)
        lines = path2.read_text().splitlines()
        path2.write_text("\n".join(lines[:-1]) + "\n")  # drop one request
        with pytest.raises(WorkloadError, match="declares"):
            Trace.load(path2)

    def test_load_reports_a_bad_request_before_reading_on(self, tmp_path):
        """Lines are parsed as they are read: a bad third line is reported
        even when bytes far past it do not decode."""
        path = tmp_path / "trace.jsonl"
        trace = generate_trace(small_spec())
        trace.save(path)
        lines = path.read_bytes().splitlines(keepends=True)
        filler = b"".join(lines[1:]) * (200_000 // len(b"".join(lines[1:])) + 1)
        path.write_bytes(b"".join(lines[:2]) + b"[1]\n" + filler + b"\xff\xfe\n")
        with pytest.raises(WorkloadError, match=f"{path}: line 3: malformed trace record"):
            Trace.load(path)

    @pytest.mark.parametrize(
        "line, problem",
        [("{oops", "line 3: Expecting"), ("[1]", "line 3: malformed trace record"),
         ('{"seq": 0, "arrival_s": 0, "tenant": "a", "op": "o", "key": "k", "params": 1}',
          "line 3: malformed trace record: params is int")],
    )
    def test_load_names_the_bad_request_line(self, tmp_path, line, problem):
        path = tmp_path / "trace.jsonl"
        generate_trace(small_spec()).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n")
        with pytest.raises(WorkloadError, match=f"{path}: {problem}"):
            Trace.load(path)
        path.write_text("[1]\n")
        with pytest.raises(WorkloadError, match="bad trace header"):
            Trace.load(path)

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"name": 5}, "bad trace header: name is int"),
            ({"name": None}, "bad trace header: name is NoneType"),
            ({"seed": True}, "bad trace header: seed is bool"),
            ({"seed": 1.0}, "bad trace header: seed is float"),
            ({"seed": "11"}, "bad trace header: seed is str"),
            ({"duration_s": "2.5"}, "bad trace header: duration_s is '2.5'"),
            ({"duration_s": True}, "bad trace header: duration_s is True"),
            ({"duration_s": float("nan")}, "bad trace header: duration_s is nan"),
            ({"duration_s": float("inf")}, "bad trace header: duration_s is inf"),
            # Each count coerces to the number of requests the file holds.
            ({"requests": 1.9}, "header declares 1.9 requests"),
            ({"requests": "2"}, "header declares '2' requests"),
            ({"requests": True}, "header declares True requests"),
        ],
    )
    def test_a_wrong_typed_header_is_refused_not_coerced(self, tmp_path, fields, problem):
        """Only what ``Trace.save`` writes loads: a header coerced to a
        name, seed, duration or count would describe a trace the file
        does not hold."""
        trace = generate_trace(small_spec())
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        header, *lines = path.read_text().splitlines()
        declared = fields.get("requests", 2)
        lines = lines[: int(declared)]
        header = {**json.loads(header), "requests": len(lines), **fields}
        path.write_text("\n".join([json.dumps(header)] + lines) + "\n")
        with pytest.raises(WorkloadError, match=f"{re.escape(str(path))}: {re.escape(problem)}"):
            Trace.load(path)

    def test_absent_header_keys_keep_their_defaults(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{}\n")
        loaded = Trace.load(path)
        assert (loaded.name, loaded.seed, loaded.duration_s, len(loaded)) == ("trace", 0, 0.0, 0)
        path.write_text('{"duration_s": 3, "requests": 0}\n')
        assert Trace.load(path).duration_s == 3.0


class TestAdmissionController:
    def test_burst_then_backpressure(self):
        valve = AdmissionController(rate_per_s=1.0, burst=2.0)
        assert valve.admit(0.0)
        assert valve.admit(0.0)
        assert not valve.admit(0.0)  # bucket empty at t=0
        assert valve.admit(1.0)  # one token replenished
        assert valve.admitted == 3 and valve.rejected == 1

    def test_rejects_time_travel(self):
        valve = AdmissionController(rate_per_s=1.0)
        valve.admit(5.0)
        with pytest.raises(WorkloadError, match="non-decreasing"):
            valve.admit(4.0)

    def test_validation(self):
        with pytest.raises(WorkloadError, match="rate"):
            AdmissionController(rate_per_s=0.0)
        with pytest.raises(WorkloadError, match="burst"):
            AdmissionController(rate_per_s=1.0, burst=0.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(WorkloadError, match="rate must be finite"):
                AdmissionController(rate_per_s=bad)
            with pytest.raises(WorkloadError, match="burst must be finite"):
                AdmissionController(rate_per_s=1.0, burst=bad)


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 50) == 0.0
        with pytest.raises(WorkloadError, match="percentile"):
            percentile(values, 101)


class TestTraceReplayer:
    def replay(self, trace, telemetry, admission=None, boom=False):
        def handler(request):
            if boom and request.op == "history":
                raise ValueError("injected")
            return request.key

        replayer = TraceReplayer(
            {"browse": handler, "history": handler},
            telemetry=telemetry,
            admission=admission,
        )
        return replayer.replay(trace)

    def test_accounting_adds_up(self):
        trace = generate_trace(small_spec())
        bus = Telemetry()
        report = self.replay(trace, bus)
        assert report.served == len(trace)
        assert report.rejected == 0 and report.failed == 0
        assert bus.registry.value("workload.requests") == len(trace)
        assert bus.registry.value("workload.served") == len(trace)
        kinds = [event.kind for event in bus.events()]
        assert kinds.count("workload.request") == len(trace)

    def test_clock_rides_the_arrivals(self):
        trace = generate_trace(small_spec())
        bus = Telemetry()
        self.replay(trace, bus)
        assert bus.clock.now == pytest.approx(trace.requests[-1].arrival_s)
        stamps = [
            event.sim_time
            for event in bus.events()
            if event.kind == "workload.request"
        ]
        assert stamps == [request.arrival_s for request in trace]

    def test_two_replays_identical_canonical_logs(self):
        trace = generate_trace(small_spec())
        first, second = Telemetry(), Telemetry()
        self.replay(trace, first)
        self.replay(trace, second)
        assert fingerprint(first) == fingerprint(second)

    def test_backpressure_rejects_and_accounts(self):
        trace = generate_trace(small_spec(rate=8.0))
        bus = Telemetry()
        valve = AdmissionController(rate_per_s=2.0, burst=1.0)
        report = self.replay(trace, bus, admission=valve)
        assert report.rejected > 0
        assert report.served + report.rejected == len(trace)
        assert bus.registry.value("workload.rejected") == report.rejected
        rejected_events = [e for e in bus.events() if e.kind == "serve.rejected"]
        assert len(rejected_events) == report.rejected

    def test_handler_failures_are_data(self):
        trace = generate_trace(small_spec())
        bus = Telemetry()
        report = self.replay(trace, bus, boom=True)
        assert report.failed > 0
        assert report.served + report.failed == len(trace)
        failures = [o for o in report.outcomes if not o.ok]
        assert all("injected" in o.error for o in failures)

    def test_unknown_op_raises(self):
        trace = generate_trace(small_spec())
        assert trace.requests[0].op == "browse"  # a handled op leads the trace
        bus = Telemetry()
        called = []
        replayer = TraceReplayer({"browse": called.append}, telemetry=bus)
        with pytest.raises(
            WorkloadError,
            match=r"trace op 'history' has no handler; replayer knows \['browse'\]",
        ):
            replayer.replay(trace)
        # Found before the first request, not when the loop reaches it:
        # nothing served, nothing counted, no half-replayed log.
        assert called == []
        assert len(bus) == 0
        assert bus.registry.as_dict() == {}

    @pytest.mark.parametrize("shape", ["empty", "all-rejected", "all-failed"])
    def test_registry_holds_only_the_counters_the_replay_used(self, shape):
        def fail(request):
            raise RuntimeError("injected")

        requests = () if shape == "empty" else generate_trace(small_spec()).requests[:6]
        trace = Trace([r for r in requests if r.op == "browse"])
        admission = None
        if shape == "all-rejected":
            admission = AdmissionController(rate_per_s=1e-9, burst=1.0)
            admission.admit(0.0)  # spend the only token
        bus = Telemetry()
        report = TraceReplayer(
            {"browse": fail, "history": fail}, telemetry=bus, admission=admission
        ).replay(trace)
        n = len(trace)
        outcome = {"empty": {}, "all-rejected": {"workload.rejected": n},
                   "all-failed": {"workload.failed": n}}[shape]
        arrived = {"workload.requests": n, "workload.requests.browse": n} if n else {}
        assert bus.registry.as_dict() == {**arrived, **outcome}
        assert report.served == 0
        assert report.rejected + report.failed == n

    def test_summary_rows_cover_every_op(self):
        trace = generate_trace(small_spec())
        report = self.replay(trace, Telemetry())
        rows = report.summary_rows()
        assert [row["path"] for row in rows] == trace.ops()
        assert all(int(row["requests"]) > 0 for row in rows)
