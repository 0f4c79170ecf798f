"""Serving subsystem tests: cache, scheduler, HTTP front end, loadgen.

The load-bearing invariant is the PR 3 determinism contract extended to
the serving paths: the charged document a client receives is
``==``-identical whether it was computed, coalesced onto another
request's computation, served from the in-memory cache, or replayed
from the persistent ledger after a restart — at any ``jobs`` value, and
across worker deaths retried by the resilience machinery.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.parallel import workers
from repro.parallel.config import reset_fallback_warnings
from repro.parallel.pool import shared_pool
from repro.resilience import MISSING, SweepLedger, recovery
from repro.service.cache import ResultCache
from repro.bench import DOC_SCHEMA, Rule, check
from repro.service.loadgen import run_loadgen
from repro.service.scheduler import (
    SERVICE_SCHEMA,
    TASK_KIND,
    QueueFull,
    Scheduler,
    SimRequest,
)
from repro.service.server import ServiceServer, SimService


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


def _request(i: int = 0, **kw) -> SimRequest:
    kw.setdefault("engine", "hmm")
    kw.setdefault("program", "sort")
    kw.setdefault("v", 16)
    kw.setdefault("f", f"x^0.{51 + i}")
    return SimRequest(**kw)


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


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ------------------------------------------------------------------ cache
class TestResultCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", TASK_KIND, {"n": 1})
        cache.put("b", TASK_KIND, {"n": 2})
        assert cache.get("a") != MISSING  # refreshes "a": now b is LRU
        cache.put("c", TASK_KIND, {"n": 3})
        assert cache.keys() == ["a", "c"]
        assert cache.get("b") is MISSING
        assert cache.counters.snapshot()["evictions"] == 1

    def test_refreshing_a_known_key_does_not_evict(self):
        cache = ResultCache(2)
        cache.put("a", TASK_KIND, {"n": 1})
        cache.put("b", TASK_KIND, {"n": 2})
        cache.put("a", TASK_KIND, {"n": 1})
        assert cache.keys() == ["b", "a"]
        assert cache.counters.snapshot()["stores"] == 2

    def test_gauges_shape(self):
        cache = ResultCache(4)
        cache.put("a", TASK_KIND, {"n": 1})
        cache.get("a")
        cache.get("zzz")
        gauges = cache.gauges()
        assert gauges["size"] == 1
        assert gauges["capacity"] == 4
        assert gauges["persistent"] is False
        assert gauges["hits"] == 1
        assert gauges["misses"] == 1

    def test_ledger_preload_survives_restart(self, tmp_path):
        path = str(tmp_path / "cache.ledger")
        ledger = SweepLedger.create(path)
        cache = ResultCache(8, ledger=ledger)
        cache.put("a", TASK_KIND, {"n": 1})
        cache.put("b", TASK_KIND, {"n": 2})
        ledger.close()

        warm = ResultCache(8, ledger=SweepLedger.resume(path))
        assert warm.get("a") == {"n": 1}
        assert warm.get("b") == {"n": 2}
        assert warm.counters.snapshot()["preloaded"] == 2
        assert warm.gauges()["persistent"] is True

    def test_ledger_preload_caps_at_capacity_keeping_newest(self, tmp_path):
        path = str(tmp_path / "cache.ledger")
        ledger = SweepLedger.create(path)
        for i in range(5):
            ledger.record(f"k{i}", TASK_KIND, {"n": i})
        ledger.close()
        warm = ResultCache(2, ledger=SweepLedger.resume(path))
        assert warm.keys() == ["k3", "k4"]

    def test_eviction_does_not_lose_persisted_entries(self, tmp_path):
        path = str(tmp_path / "cache.ledger")
        ledger = SweepLedger.create(path)
        cache = ResultCache(1, ledger=ledger)
        cache.put("a", TASK_KIND, {"n": 1})
        cache.put("b", TASK_KIND, {"n": 2})  # evicts "a" from memory...
        assert cache.get("a") is MISSING
        assert ledger.get("a") == {"n": 1}  # ...but the ledger keeps it


# -------------------------------------------------------------- requests
class TestSimRequest:
    def test_round_trip(self):
        req = _request()
        assert SimRequest.from_json(req.to_json()) == req

    def test_key_is_stable_and_content_addressed(self):
        assert _request().key() == _request().key()
        assert _request().key() != _request(v=32).key()

    @pytest.mark.parametrize("body,fragment", [
        ([], "JSON object"),
        ({"engine": "hmm"}, "missing the 'program'"),
        ({"engine": "hmm", "program": "sort", "bogus": 1}, "unknown request field"),
        ({"engine": "nope", "program": "sort"}, "unknown engine"),
        ({"engine": "hmm", "program": "nope"}, "unknown program"),
        ({"engine": "hmm", "program": "sort", "v": 0}, "positive integer"),
        ({"engine": "hmm", "program": "sort", "v": True}, "positive integer"),
        ({"engine": "hmm", "program": "sort", "mu": -1}, "positive integer"),
        ({"engine": "hmm", "program": "sort", "trace": "loud"}, "trace level"),
    ])
    def test_validation_errors(self, body, fragment):
        with pytest.raises(ValueError, match=fragment):
            SimRequest.from_json(body)

    def test_engine_defaults_to_vec(self):
        # a body without an engine picks the vectorized kernel — charged
        # results are bit-identical to hmm, the wall clock is not
        req = SimRequest.from_json({"program": "sort"})
        assert req.engine == "vec"
        req.validate()

    def test_bad_access_function_rejected(self):
        with pytest.raises(ValueError):
            SimRequest.from_json(
                {"engine": "hmm", "program": "sort", "f": "x^bogus^"}
            )


# ------------------------------------------------------------- scheduler
class TestScheduler:
    def test_compute_then_cache_hit(self):
        sched = Scheduler(ResultCache(8))
        req = _request()
        key1, doc1, served1 = sched.submit(req)
        key2, doc2, served2 = sched.submit(req)
        assert (served1, served2) == ("computed", "cached")
        assert key1 == key2 == req.key()
        assert doc1 == doc2
        snap = sched.counters.snapshot()
        assert snap["served_computed"] == 1
        assert snap["served_cached"] == 1

    def test_queue_limit_validation(self):
        with pytest.raises(ValueError):
            Scheduler(ResultCache(8), queue_limit=0)

    def test_single_flight_coalescing(self, monkeypatch):
        """N identical concurrent requests -> exactly 1 engine invocation."""
        real = workers.TASKS[TASK_KIND]
        invocations = []
        gate = threading.Event()

        def slow_task(args):
            invocations.append(args)
            gate.wait(timeout=10)
            return real(args)

        monkeypatch.setitem(workers.TASKS, TASK_KIND, slow_task)
        sched = Scheduler(ResultCache(8))
        req = _request()
        results: list[tuple] = []

        def client():
            results.append(sched.submit(req))

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        # wait until the leader is inside the (gated) task and every
        # follower has had a chance to enqueue on its flight
        while not invocations:
            pass
        gate.set()
        for t in threads:
            t.join(timeout=30)
        assert len(invocations) == 1
        assert len(results) == 6
        served = sorted(s for _, _, s in results)
        assert served.count("computed") == 1
        assert set(served) <= {"computed", "coalesced", "cached"}
        docs = [doc for _, doc, _ in results]
        assert all(doc == docs[0] for doc in docs)

    def test_backpressure_queue_full(self, monkeypatch):
        real = workers.TASKS[TASK_KIND]
        started = threading.Event()
        gate = threading.Event()

        def slow_task(args):
            started.set()
            gate.wait(timeout=10)
            return real(args)

        monkeypatch.setitem(workers.TASKS, TASK_KIND, slow_task)
        sched = Scheduler(ResultCache(8), queue_limit=1, retry_after_s=0.25)
        leader = threading.Thread(target=sched.submit, args=(_request(0),))
        leader.start()
        assert started.wait(timeout=10)
        with pytest.raises(QueueFull) as exc:
            sched.submit(_request(1))  # distinct key, over the bound
        assert exc.value.retry_after_s == 0.25
        gate.set()
        leader.join(timeout=30)
        assert sched.counters.snapshot()["rejected"] == 1
        # with the flight drained, the same request is admitted fine
        _, _, served = sched.submit(_request(1))
        assert served == "computed"


# ----------------------------------------------------------- determinism
class TestDeterminism:
    @pytest.mark.parametrize("trace", ["counters", "full"])
    def test_all_serving_paths_identical(self, tmp_path, trace):
        """computed == coalesced == cached == ledger-replayed, jobs 1 vs 2."""
        req = _request(trace=trace)

        path = str(tmp_path / "service.ledger")
        sched1 = Scheduler(ResultCache(8, ledger=SweepLedger.create(path)))
        _, computed, s1 = sched1.submit(req)
        _, cached, s2 = sched1.submit(req)
        assert (s1, s2) == ("computed", "cached")
        assert computed == cached
        sched1.cache._ledger.close()

        # a restarted service replays the ledger into a warm cache
        sched2 = Scheduler(ResultCache(8, ledger=SweepLedger.resume(path)))
        _, replayed, s3 = sched2.submit(req)
        assert s3 == "cached"
        assert replayed == computed
        sched2.cache._ledger.close()

        # a pool-dispatched computation charges the identical document
        sched3 = Scheduler(ResultCache(8), parallel=2)
        _, pooled, s4 = sched3.submit(req)
        assert s4 == "computed"
        assert pooled == computed

        # the document survives a JSON wire round-trip unchanged
        assert json.loads(json.dumps(computed)) == computed

    def test_worker_death_mid_request_still_serves(self, tmp_path, monkeypatch):
        """A killed worker is retried; the response matches a clean run."""
        from repro.resilience.retry import RetryPolicy

        clean_sched = Scheduler(ResultCache(8))
        _, clean, _ = clean_sched.submit(_request())

        shared_pool(2).shutdown()  # workers inherit REPRO_FAULTS at spawn
        monkeypatch.setenv(
            "REPRO_FAULTS", f"seed=7,kill=1.0,dir={tmp_path / 'marks'}"
        )
        from repro.parallel.config import ParallelConfig

        cfg = ParallelConfig(
            jobs=2, retry=RetryPolicy(max_retries=4, backoff_s=0.0)
        )
        sched = Scheduler(ResultCache(8), parallel=cfg)
        _, chaotic, served = sched.submit(_request())
        assert served == "computed"
        assert chaotic == clean
        assert recovery.counters()["worker_deaths"] >= 1


# ------------------------------------------------------------------ HTTP
class TestServer:
    @pytest.fixture()
    def server(self):
        with ServiceServer(SimService(cache_capacity=32)) as srv:
            yield srv

    def test_healthz(self, server):
        status, doc = _get(server.url, "/v1/healthz")
        assert status == 200
        assert doc["ok"] is True
        assert doc["api"] == "v1"
        assert doc["jobs_enabled"] is False
        assert "hmm" in doc["engines"]
        assert "sort" in doc["programs"]

    def test_run_then_metrics(self, server):
        body = _request().to_json()
        status1, doc1, _ = _post(server.url, "/v1/run", body)
        status2, doc2, _ = _post(server.url, "/v1/run", body)
        assert (status1, status2) == (200, 200)
        assert doc1["served"] == "computed"
        assert doc2["served"] == "cached"
        assert doc1["key"] == doc2["key"] == _request().key()
        assert doc1["result"] == doc2["result"]

        status, metrics = _get(server.url, "/v1/metrics")
        assert status == 200
        assert metrics["schema"] == SERVICE_SCHEMA
        assert metrics["requests"]["served_computed"] == 1
        assert metrics["requests"]["served_cached"] == 1
        assert metrics["requests"]["errors"] == 0
        assert metrics["cache"]["size"] == 1
        assert metrics["queue"]["limit"] == server.service.scheduler.queue_limit
        assert metrics["jobs"]["enabled"] is False
        assert set(metrics["http"]) == {"parse_cache"}
        # the kernel's plan cache and the program cache, one shape
        assert set(metrics["kernel"]) == {"plan_cache", "program_cache"}
        for info in metrics["kernel"].values():
            assert set(info) == {"size", "max", "hits", "misses", "evictions"}
        assert metrics["kernel"]["program_cache"]["max"] == 128

    def test_batch(self, server):
        body = {"requests": [_request(0).to_json(), _request(1).to_json(),
                             _request(0).to_json()]}
        status, doc, _ = _post(server.url, "/v1/batch", body)
        assert status == 200
        assert [r["served"] for r in doc["results"]] == [
            "computed", "computed", "cached",
        ]

    def test_bare_paths_are_not_found(self, server):
        """The pre-``/v1`` paths are gone: each is the 404 envelope, with
        no ``Deprecation`` header, and runs nothing."""
        body = _request().to_json()
        for path in ("/run", "/batch", "/plan", "/jobs"):
            status, doc, headers = _post(server.url, path, body)
            assert (status, doc["error"]["code"]) == (404, "not_found")
            assert "Deprecation" not in headers
        for path in ("/healthz", "/metrics", "/jobs"):
            status, doc = _get(server.url, path)
            assert (status, doc["error"]["code"]) == (404, "not_found")
        _, metrics = _get(server.url, "/v1/metrics")
        assert metrics["requests"]["admitted"] == 0
        status, _, headers = _post(server.url, "/v1/run", body)
        assert status == 200 and "Deprecation" not in headers

    @pytest.mark.parametrize("path,body,fragment", [
        ("/v1/run", {"engine": "nope", "program": "sort"}, "unknown engine"),
        ("/v1/run", "not an object", "JSON object"),
        ("/v1/batch", {"requests": []}, "non-empty list"),
        ("/v1/batch", {"nope": 1}, '"requests"'),
    ])
    def test_bad_request_is_400(self, server, path, body, fragment):
        status, doc, _ = _post(server.url, path, body)
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        assert fragment in doc["error"]["message"]

    def test_unknown_endpoint_is_404(self, server):
        for status, doc in [
            _get(server.url, "/nope"),
            _get(server.url, "/v1/nope"),
            _post(server.url, "/v1/nope", {})[:2],
        ]:
            assert status == 404
            assert doc["error"]["code"] == "not_found"

    def test_oversized_body_is_413_without_reading(self, server):
        import http.client
        import urllib.parse

        from repro.service.server import MAX_BODY_BYTES

        parsed = urllib.parse.urlsplit(server.url)
        conn = http.client.HTTPConnection(parsed.hostname, parsed.port)
        # declare a huge body but never send it: the server must answer
        # from the Content-Length header alone and close the connection
        conn.putrequest("POST", "/v1/run")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        resp = conn.getresponse()
        doc = json.loads(resp.read())
        assert resp.status == 413
        assert doc["error"]["code"] == "payload_too_large"
        assert resp.headers["Connection"] == "close"
        conn.close()

    def test_error_envelope_schema_is_pinned(self, server):
        """Every error body is exactly the envelope: one ``error`` object
        with exactly ``code``/``message``/``retry_after_s``."""
        cases = [
            _post(server.url, "/v1/run", {"engine": "nope"})[:2],
            _get(server.url, "/v1/nope"),
            _post(server.url, "/run", "junk")[:2],  # a bare path: 404
        ]
        assert cases[-1][0] == 404
        for status, doc in cases:
            assert status >= 400
            assert set(doc) == {"error"}
            assert set(doc["error"]) == {"code", "message", "retry_after_s"}
            assert isinstance(doc["error"]["code"], str)
            assert isinstance(doc["error"]["message"], str)
            retry = doc["error"]["retry_after_s"]
            assert retry is None or isinstance(retry, float)

    def test_backpressure_is_429_with_retry_after(self, monkeypatch):
        real = workers.TASKS[TASK_KIND]
        started = threading.Event()
        gate = threading.Event()

        def slow_task(args):
            started.set()
            gate.wait(timeout=10)
            return real(args)

        monkeypatch.setitem(workers.TASKS, TASK_KIND, slow_task)
        service = SimService(queue_limit=1, retry_after_s=2.0)
        with ServiceServer(service) as server:
            blocker = threading.Thread(
                target=_post,
                args=(server.url, "/v1/run", _request(0).to_json()),
            )
            blocker.start()
            assert started.wait(timeout=10)
            status, doc, headers = _post(
                server.url, "/v1/run", _request(1).to_json()
            )
            assert status == 429
            assert headers["Retry-After"] == "2"
            assert doc["error"]["code"] == "queue_full"
            assert doc["error"]["retry_after_s"] == 2.0
            gate.set()
            blocker.join(timeout=30)
            _, metrics = _get(server.url, "/v1/metrics")
            assert metrics["requests"]["rejected"] == 1


# --------------------------------------------------------------- loadgen
class TestLoadgen:
    def test_smoke_run_in_process(self):
        doc = run_loadgen(smoke=True, clients=2, requests_per_client=6,
                          hot_keys=2, seed=11)
        assert doc["schema"] == DOC_SCHEMA
        assert doc["kind"] == "service_throughput"
        assert doc["errors"] == 0
        assert set(doc["phases"]) == {"cold", "hot"}
        cold = doc["phases"]["cold"]
        assert cold["served"] == {"computed": cold["requests"]}
        hot = doc["phases"]["hot"]
        assert sum(hot["served"].values()) == hot["requests"]
        assert hot["served"].get("cached", 0) > 0

    def test_batch_mode(self):
        doc = run_loadgen(smoke=True, clients=1, requests_per_client=6,
                          hot_keys=2, batch=3, seed=11)
        assert doc["errors"] == 0
        assert sum(doc["phases"]["cold"]["served"].values()) == 6

    #: the ``loadgen --min-speedup 5`` floor, as the CLI adds it
    MIN_SPEEDUP_5 = (Rule("hot_vs_cold_speedup", "bound", bound=5.0,
                          unit="x", required=True),)
    KIND = {"schema": DOC_SCHEMA, "kind": "service_throughput"}

    def test_check_refuses_schema_drift(self):
        with pytest.raises(ValueError, match="schema"):
            check(
                {**self.KIND, "phases": {}},
                {**self.KIND, "schema": DOC_SCHEMA + 1, "phases": {}},
            )

    def test_check_flags_errors_regressions_and_speedup_floor(self):
        base = {
            **self.KIND,
            "phases": {"cold": {"requests_per_s": 100.0},
                       "hot": {"requests_per_s": 500.0}},
        }
        fresh = {
            **self.KIND,
            "errors": 1,
            "phases": {"cold": {"requests_per_s": 10.0}},
            "hot_vs_cold_speedup": 1.2,
        }
        problems = check(fresh, base, tolerance=3.0,
                         extra=self.MIN_SPEEDUP_5)
        flagged = [p.split(":")[0] for p in problems]
        assert flagged == [
            "errors",
            "phases.cold.requests_per_s",
            "phases.hot.requests_per_s",
            "hot_vs_cold_speedup",
        ]
        text = "\n".join(problems)
        assert "phases.hot.requests_per_s: missing" in text
        assert "below the 5x floor" in text

    def test_check_passes_identical_run(self):
        doc = {
            **self.KIND,
            "errors": 0,
            "phases": {"cold": {"requests_per_s": 100.0},
                       "hot": {"requests_per_s": 600.0}},
            "hot_vs_cold_speedup": 6.0,
        }
        assert check(doc, doc, extra=self.MIN_SPEEDUP_5) == []
