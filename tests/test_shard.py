"""Sharded service tier tests: ring, router, failover, open-loop stats.

The load-bearing invariant is the serving determinism contract carried
over the process boundary: the document a client receives through the
router — owner shard, failover shard, or a supervisor-respawned shard
reading its ledger — is ``==``-identical to the single-process
:class:`~repro.service.server.SimService` answer, and every failure the
client can observe is the unified ``{"error": {...}}`` envelope, never
a raw reset or proxy error.

Router mechanics are tested against *thread*-backed shards (two
in-process ``ServiceServer``s — cheap, deterministic); one integration
test drives real shard subprocesses through
:class:`~repro.service.shard.ShardedTier` with a deterministic
``REPRO_FAULTS`` shard death and proves identity across the kill,
failover, respawn and ledger-warmed restart.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.parallel.config import reset_fallback_warnings
from repro.parallel.pool import shared_pool
from repro.resilience import recovery
from repro.resilience.faults import FaultPlan
from repro.bench import DOC_SCHEMA, check
from repro.obs.latency import latency_fields, latency_histogram, percentile
from repro.service.loadgen import MIN_OPEN_LOOP_SAMPLES, _run_phase
from repro.service.router import (
    HashRing,
    Router,
    RouterHandler,
    ShardClient,
    make_router_server,
)
from repro.service.scheduler import SERVICE_SCHEMA, SimRequest
from repro.service.server import ServiceServer, SimService
from repro.service.shard import ShardedTier


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    recovery.reset()
    reset_fallback_warnings()
    yield
    shared_pool(2).shutdown()
    recovery.reset()
    reset_fallback_warnings()


def _body(i: int = 0, **kw) -> dict:
    kw.setdefault("engine", "hmm")
    kw.setdefault("program", "sort")
    kw.setdefault("v", 16)
    kw.setdefault("f", f"x^0.{51 + i}")
    return kw


def _post(url: str, path: str, doc) -> tuple[int, dict, dict]:
    data = json.dumps(doc).encode()
    req = urllib.request.Request(
        url + path, data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _get(url: str, path: str) -> tuple[int, dict, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


# ------------------------------------------------------------------- ring
class TestHashRing:
    def test_chain_is_a_permutation_and_deterministic(self):
        ring = HashRing(4)
        key = "ab" * 16
        chain = ring.chain(key)
        assert sorted(chain) == [0, 1, 2, 3]
        assert ring.chain(key) == chain
        assert ring.owner(key) == chain[0]

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(4)
        counts = [0, 0, 0, 0]
        for i in range(1000):
            # keys are content hashes — uniform leading bits, like real
            # cell_key() values (f"{i:032x}" would all sit at position 0)
            counts[ring.owner(hashlib.sha256(b"%d" % i).hexdigest())] += 1
        # 64 vnodes/shard keeps every shard within a loose band of the
        # 250 ideal — the property that matters is no starved shard
        assert min(counts) > 100, counts

    def test_losing_a_shard_only_remaps_its_keys(self):
        ring = HashRing(3)
        keys = [hashlib.sha256(b"%d" % i).hexdigest() for i in range(300)]
        dead = 1
        for key in keys:
            chain = ring.chain(key)
            survivor = next(i for i in chain if i != dead)
            if chain[0] != dead:
                # keys the dead shard did not own stay put
                assert survivor == chain[0]

    def test_non_hex_keys_fall_back_to_hashing(self):
        ring = HashRing(2)
        assert ring.owner("not hex at all") in (0, 1)

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert ring.chain("00" * 16) == [0]

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            HashRing(0)


# --------------------------------------------- router over thread shards
class _ThreadTier:
    """Two in-process ServiceServers behind a real Router/HTTP server."""

    def __init__(self, shards: int = 2, cache_capacity: int = 32):
        self.servers = [
            ServiceServer(SimService(
                cache_capacity=cache_capacity,
                identity={"index": i},
            ))
            for i in range(shards)
        ]
        self.clients = [
            ShardClient(i, "127.0.0.1", s.httpd.server_address[1])
            for i, s in enumerate(self.servers)
        ]
        self.router = Router(self.clients)
        self.httpd = make_router_server("127.0.0.1", 0, self.router)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.router.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5)
        for server in self.servers:
            try:
                server.close()
            except Exception:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TestRouter:
    def test_run_routes_by_key_and_caches(self):
        with _ThreadTier() as tier:
            status, doc, _ = _post(tier.url, "/v1/run", _body(0))
            assert status == 200 and doc["served"] == "computed"
            status, again, _ = _post(tier.url, "/v1/run", _body(0))
            assert status == 200 and again["served"] == "cached"
            assert again["result"] == doc["result"]

    def test_routed_result_identical_to_unsharded(self):
        with _ThreadTier() as tier:
            reference = SimService(cache_capacity=8)
            try:
                for i in range(6):
                    status, doc, _ = _post(tier.url, "/v1/run", _body(i))
                    assert status == 200
                    assert doc["result"] == (
                        reference.handle_run(_body(i))["result"]
                    )
            finally:
                reference.close()

    def test_requests_spread_over_both_shards(self):
        with _ThreadTier() as tier:
            for i in range(12):
                _post(tier.url, "/v1/run", _body(i))
            per_shard = [
                s.service.scheduler.counters.snapshot().get("admitted", 0)
                for s in tier.servers
            ]
            assert all(n > 0 for n in per_shard), per_shard

    def test_batch_spans_shards_and_stitches_in_order(self):
        with _ThreadTier() as tier:
            bodies = [_body(i) for i in range(8)]
            status, doc, _ = _post(
                tier.url, "/v1/batch", {"requests": bodies}
            )
            assert status == 200
            assert len(doc["results"]) == len(bodies)
            reference = SimService(cache_capacity=16)
            try:
                for body, item in zip(bodies, doc["results"]):
                    expected = reference.handle_run(body)
                    assert item["key"] == expected["key"]
                    assert item["result"] == expected["result"]
            finally:
                reference.close()

    def test_owner_death_fails_over_with_identity(self):
        with _ThreadTier() as tier:
            body = _body(3)
            key = SimRequest.from_json(body).key()
            owner = tier.router.ring.owner(key)
            _, expected, _ = _post(tier.url, "/v1/run", body)
            # the owner drops off the network (a pooled keep-alive
            # connection would outlive server_close in-process, which a
            # killed subprocess cannot do — drop it to match reality)
            tier.servers[owner].close()
            tier.clients[owner].drop_pool()
            status, doc, _ = _post(tier.url, "/v1/run", body)
            assert status == 200
            assert doc["result"] == expected["result"]
            counters = tier.router.counters.snapshot()
            assert counters["shard_deaths"] == 1
            assert counters["failovers"] >= 1
            assert not tier.router.shards[owner].alive

    def test_all_shards_dead_is_an_enveloped_503(self):
        with _ThreadTier() as tier:
            for server in tier.servers:
                server.close()
            status, doc, headers = _post(tier.url, "/v1/run", _body(0))
            assert status == 503
            assert set(doc) == {"error"}
            assert set(doc["error"]) == {"code", "message", "retry_after_s"}
            assert doc["error"]["code"] == "shard_unavailable"
            assert doc["error"]["retry_after_s"] is not None
            assert "Retry-After" in headers

    def test_unknown_path_is_an_enveloped_404(self):
        with _ThreadTier() as tier:
            status, doc, _ = _get(tier.url, "/v1/nope")
            assert status == 404
            assert set(doc) == {"error"}
            assert doc["error"]["code"] == "not_found"

    def test_bad_request_rejected_at_the_router(self):
        with _ThreadTier() as tier:
            status, doc, _ = _post(tier.url, "/v1/run", {"nope": 1})
            assert status == 400
            assert doc["error"]["code"] == "bad_request"
            # the router validated it; no shard burned capacity on it
            assert tier.router.counters.snapshot().get("forwards", 0) == 0

    def test_auto_and_absent_engine_match_a_single_server(self):
        # without a router planner both spellings fall back to the
        # service default, as they do on an unsharded server
        absent = {"program": "sort", "v": 16, "f": "x^0.47"}
        reference = SimService(cache_capacity=8)
        try:
            expected = reference.handle_run(absent)
        finally:
            reference.close()
        with _ThreadTier() as tier:
            for body in (dict(absent, engine="auto"), absent):
                status, doc, _ = _post(tier.url, "/v1/run", body)
                assert status == 200, doc
                assert doc["key"] == expected["key"]
                assert doc["result"] == expected["result"]
            for batch in ([dict(absent, engine="auto")], [absent]):
                status, doc, _ = _post(
                    tier.url, "/v1/batch", {"requests": batch}
                )
                assert status == 200, doc
                assert doc["results"][0]["result"] == expected["result"]

    def test_bare_path_is_not_found_through_the_router(self):
        with _ThreadTier() as tier:
            for path in ("/healthz", "/jobs", "/metrics"):
                status, doc, headers = _get(tier.url, path)
                assert (status, doc["error"]["code"]) == (404, "not_found")
                assert "Deprecation" not in headers
            status, _, headers = _get(tier.url, "/v1/healthz")
            assert status == 200 and "Deprecation" not in headers
            # the router answered those itself: no shard saw them
            assert tier.router.counters.snapshot().get("forwards", 0) == 0

    def test_healthz_is_shard_transparent_plus_router_section(self):
        with _ThreadTier() as tier:
            status, doc, _ = _get(tier.url, "/v1/healthz")
            assert status == 200
            assert doc["ok"] is True
            assert doc["schema"] == SERVICE_SCHEMA
            assert "engines" in doc and "programs" in doc
            assert doc["router"] == {"shards": 2, "alive": 2}

    def test_metrics_envelope_schema(self):
        with _ThreadTier() as tier:
            for i in range(8):
                _post(tier.url, "/v1/run", _body(i))
                _post(tier.url, "/v1/run", _body(i))  # cache hit
            status, doc, _ = _get(tier.url, "/v1/metrics")
            assert status == 200
            assert set(doc) == {
                "schema", "api", "router", "shards", "cache", "kernel",
            }
            assert doc["schema"] == SERVICE_SCHEMA and doc["api"] == "v1"
            for counter in ("forwards", "failovers", "shard_deaths",
                            "rehash_events", "unavailable"):
                assert counter in doc["router"], counter
            assert doc["router"]["shards"] == 2
            assert doc["router"]["alive"] == 2
            assert doc["router"]["forwards"] >= 16
            assert set(doc["shards"]) == {"0", "1"}
            for shard_doc in doc["shards"].values():
                assert shard_doc["alive"] is True
                assert "cache" in shard_doc and "requests" in shard_doc
                # both shards took traffic and re-served it from cache
                assert shard_doc["cache"]["stores"] > 0
                assert shard_doc["cache"]["hits"] > 0
            # the rollup sums the per-shard cache counters
            assert doc["cache"]["stores"] == sum(
                s["cache"]["stores"] for s in doc["shards"].values()
            )
            assert doc["cache"]["hits"] == 8
            # the kernel caches are per process: the rollup is their sum
            assert set(doc["kernel"]) == {"plan_cache", "program_cache"}
            for name, total in doc["kernel"].items():
                for field in ("size", "max", "hits", "misses", "evictions"):
                    assert total[field] == sum(
                        s["kernel"][name][field]
                        for s in doc["shards"].values()
                    ), (name, field)
            assert doc["kernel"]["program_cache"]["max"] == 2 * 128

    def test_router_requires_a_shard(self):
        with pytest.raises(ValueError):
            Router([])

    def test_routes_cover_the_jobs_surface(self):
        surface = {(m, p) for m, p, _ in RouterHandler.ROUTES}
        assert ("POST", ("jobs",)) in surface
        assert ("GET", ("jobs", None, "events")) in surface
        assert ("DELETE", ("jobs", None)) in surface


# ------------------------------------------------- process-level failover
class TestShardedTierProcess:
    def test_kill_failover_respawn_identity(self, tmp_path):
        """The headline invariant, end to end against real processes.

        Shard 0 is armed (via its own environment only) to ``os._exit``
        after 6 answered POSTs.  The stream of requests must keep
        getting ``==``-identical answers through the passive-detection
        failover window; the supervisor respawns the shard on its old
        port with its ledger-warmed cache; and the only client-visible
        failure shape allowed is the ``{"error": {...}}`` envelope.
        """
        marker_dir = str(tmp_path / "markers")
        fault_env = {
            "REPRO_FAULTS": f"seed=7,shard_exit=6,dir={marker_dir}"
        }
        bodies = [_body(i) for i in range(10)]
        reference = SimService(cache_capacity=32)
        try:
            expected = [
                reference.handle_run(body)["result"] for body in bodies
            ]
        finally:
            reference.close()
        with ShardedTier(
            shards=2,
            shard_dir=str(tmp_path / "shards"),
            cache_capacity=32,
            restart=True,
            per_shard_env={0: fault_env},
        ) as tier:
            enveloped = 0
            for round_no in range(4):
                for body, want in zip(bodies, expected):
                    status, doc, _ = _post(tier.url, "/v1/run", body)
                    if status == 200:
                        assert doc["result"] == want
                    else:
                        # the brief in-flight window: enveloped, never raw
                        assert set(doc) == {"error"}, doc
                        assert set(doc["error"]) == {
                            "code", "message", "retry_after_s"}, doc
                        enveloped += 1
            # the fault fired: shard 0 died once and was respawned
            deadline = time.monotonic() + 10.0
            while tier.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert tier.restarts >= 1
            assert tier.supervisors[0].spawns >= 2
            counters = tier.router.counters.snapshot()
            assert counters.get("shard_deaths", 0) >= 1
            # and the replacement's cache came back warm from the ledger
            deadline = time.monotonic() + 10.0
            preloaded = 0
            while time.monotonic() < deadline:
                status, metrics, _ = _get(tier.url, "/v1/metrics")
                shard0 = metrics["shards"]["0"]
                preloaded = shard0.get("cache", {}).get("preloaded", 0)
                if status == 200 and shard0["alive"] and preloaded:
                    break
                time.sleep(0.2)
            assert preloaded > 0
            # the revived shard serves identical documents again
            for body, want in zip(bodies, expected):
                status, doc, _ = _post(tier.url, "/v1/run", body)
                assert status == 200
                assert doc["result"] == want


# ---------------------------------------------------- open-loop statistics
class TestLatencyStats:
    def test_percentile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 50.0  # rank ceil(0.5 * 100)
        assert percentile(values, 0.99) == 99.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
        assert percentile([], 0.5) is None

    def test_histogram_buckets_and_trimming(self):
        doc = latency_histogram([0.00005, 0.0003, 0.0005, 0.009])
        assert doc["floor_s"] == 1e-4 and doc["factor"] == 2
        # bucket 0: below floor; bucket i: [floor*2^(i-1), floor*2^i)
        # 0.3ms -> [0.2ms, 0.4ms), 0.5ms -> [0.4ms, 0.8ms), 9ms -> bucket 7
        assert doc["counts"] == [1, 0, 1, 1, 0, 0, 0, 1]
        assert latency_histogram([])["counts"] == []
        total = sum(latency_histogram([0.001] * 7)["counts"])
        assert total == 7

    def test_latency_fields_record_sample_count(self):
        doc = latency_fields([0.002] * 50)
        assert doc["latency_samples"] == 50
        assert doc["latency_p50_s"] == 0.002
        assert doc["latency_p99_s"] == 0.002
        assert "latency_histogram" in doc

    def test_min_sample_guard_suppresses_percentiles(self):
        doc = latency_fields([0.002] * 3, min_samples=MIN_OPEN_LOOP_SAMPLES)
        assert doc["latency_samples"] == 3
        assert doc["latency_p50_s"] is None
        assert doc["latency_p99_s"] is None
        assert "suppressed" in doc["latency_note"]
        ok = latency_fields(
            [0.002] * MIN_OPEN_LOOP_SAMPLES,
            min_samples=MIN_OPEN_LOOP_SAMPLES,
        )
        assert ok["latency_p99_s"] == 0.002
        assert "latency_note" not in ok

    def test_closed_phase_reports_p99_histogram_and_samples(self):
        with ServiceServer(SimService(cache_capacity=16)) as server:
            phase, _ = _run_phase(
                server.url, "t", clients=2, requests_per_client=4,
                hot_ratio=0.5, hot_keys=2, batch=1, seed=7, cold_base=0,
            )
        assert phase["latency_samples"] == 8
        assert phase["latency_p99_s"] >= phase["latency_p50_s"]
        assert sum(phase["latency_histogram"]["counts"]) == 8
        assert phase["errors"] == 0
        assert phase["non_envelope_errors"] == 0

    def test_open_loop_phase_measures_from_scheduled_arrival(self):
        with ServiceServer(SimService(cache_capacity=16)) as server:
            phase, _ = _run_phase(
                server.url, "ol", rate=120.0, duration_s=1.0,
                hot_ratio=1.0, hot_keys=4, concurrency=4, seed=7,
                cold_base=0,
            )
        assert phase["mode"] == "open_loop"
        assert phase["offered_rate_per_s"] == 120.0
        assert phase["requests"] == phase["latency_samples"]
        # ~120 Poisson arrivals in 1s clears the 40-sample floor
        assert phase["latency_samples"] >= MIN_OPEN_LOOP_SAMPLES
        assert phase["latency_p99_s"] is not None
        assert phase["errors"] == 0


# -------------------------------------------------------- bench guardrail
class TestCheckShardAgainst:
    def _doc(self, **overrides):
        doc = {
            "schema": DOC_SCHEMA,
            "kind": "service_shard",
            "scaling_x": 2.0,
            "fault_p99_ratio": 3.0,
            "identity_ok": True,
            "errors": 0,
            "non_envelope_errors": 0,
            "phases": {
                "open_loop": {
                    "mode": "open_loop",
                    "requests_per_s": 150.0,
                    "latency_p99_s": 0.02,
                    "latency_samples": 500,
                },
                "scale_1shard": {"requests_per_s": 200.0},
            },
        }
        doc.update(overrides)
        return doc

    def test_clean_self_check(self):
        doc = self._doc()
        assert check(doc, doc) == []

    def test_schema_drift_refuses(self):
        with pytest.raises(ValueError):
            check(self._doc(schema=99), self._doc())

    def test_errors_and_envelope_leaks_flag(self):
        problems = check(
            self._doc(errors=2, non_envelope_errors=1), self._doc()
        )
        assert [p.split(":")[0] for p in problems] == [
            "errors", "non_envelope_errors",
        ]

    def test_scaling_floor_enforced(self):
        problems = check(self._doc(scaling_x=1.2), self._doc())
        assert [p.split(":")[0] for p in problems] == ["scaling_x"]

    def test_fault_p99_bound_enforced(self):
        problems = check(self._doc(fault_p99_ratio=40.0), self._doc())
        assert [p.split(":")[0] for p in problems] == ["fault_p99_ratio"]

    def test_identity_divergence_flags(self):
        problems = check(self._doc(identity_ok=False), self._doc())
        assert [p.split(":")[0] for p in problems] == ["identity_ok"]

    def test_throughput_and_p99_drift_vs_baseline(self):
        base = self._doc()
        slow = self._doc()
        slow["phases"] = dict(base["phases"])
        slow["phases"]["open_loop"] = dict(base["phases"]["open_loop"])
        slow["phases"]["open_loop"]["requests_per_s"] = 10.0
        slow["phases"]["open_loop"]["latency_p99_s"] = 1.0
        problems = check(slow, base, tolerance=5.0)
        assert [p.split(":")[0] for p in problems] == [
            "phases.open_loop.requests_per_s",
            "phases.open_loop.latency_p99_s",
        ]

    def test_suppressed_percentiles_flag(self):
        doc = self._doc()
        doc["phases"]["open_loop"] = dict(doc["phases"]["open_loop"])
        doc["phases"]["open_loop"]["latency_note"] = (
            "percentiles suppressed: 3 sample(s)..."
        )
        doc["phases"]["open_loop"]["latency_samples"] = 3
        problems = check(doc, self._doc())
        assert [p.split(":")[0] for p in problems] == [
            "phases.open_loop.latency_samples",
        ]

    def test_missing_phase_in_smoke_run_is_fine(self):
        fresh = self._doc()
        fresh["phases"] = {"open_loop": fresh["phases"]["open_loop"]}
        assert check(fresh, self._doc()) == []


# ------------------------------------------------------------- fault knob
class TestShardExitKnob:
    def test_spec_parses(self):
        plan = FaultPlan.from_spec("seed=7,shard_exit=6,dir=/tmp/x")
        assert plan.shard_exit == 6
        assert plan.seed == 7

    def test_default_is_disarmed(self):
        assert FaultPlan.from_spec("seed=7").shard_exit == 0
