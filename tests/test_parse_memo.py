"""The raw-body parse memo in front of ``/v1/run`` (``parse_run_body``).

A repeat body must be answered without a JSON decode, validation, DAG
spec generation or key hash, and nothing a client can observe may
change: the reply bytes of every body, valid or not, equal those of the
un-memoized ``parse_run_request(json.loads(raw))`` path; errors are
re-validated on every request; planning still runs on every request;
and the memo stays bounded.
"""

from __future__ import annotations

import collections
import contextlib
import http.client
import json
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms.streaming as streaming
import repro.dag.service as dag_service
import repro.engines as engines
import repro.resilience.ledger as ledger
from repro.analysis.predict import (
    CalibrationProfile,
    CostModel,
    calibrate_profile,
)
from repro.dag.spec import DagSpec
from repro.parallel.config import reset_fallback_warnings
from repro.parallel.pool import shared_pool
from repro.resilience import recovery
from repro.service import scheduler
from repro.service.errors import error_envelope
from repro.service.planner import Planner
from repro.service.router import Router, ShardClient, make_router_server
from repro.service.scheduler import (
    PARSE_MEMO_ENTRIES,
    PARSE_MEMO_MAX_BYTES,
    parse_cache_info,
    parse_run_body,
    parse_run_doc,
    parse_run_request,
)
from repro.service.server import ServiceServer, SimService
from repro.sim.kernel import PlanCache

SIM = {"program": "sort", "v": 16, "f": "x^0.53"}
DAG = {
    "kind": "dag",
    "workload": "stream-scan",
    "params": {"epochs": 2, "partitions": 4, "chunk": 3},
    "v": 8,
}


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    recovery.reset()
    reset_fallback_warnings()
    scheduler._parse_memo.cache_clear()
    yield
    shared_pool(2).shutdown()
    recovery.reset()
    reset_fallback_warnings()


@pytest.fixture(scope="module")
def model():
    profile = calibrate_profile(
        # no vec row: the planner must choose an engine other than the
        # default, so a planned request is rekeyed
        engines=("bt", "brent"), programs=("sort",),
        v_grid=(8, 16), repeats=1,
    )
    return CostModel(CalibrationProfile(profile))


def _raw(doc) -> bytes:
    return json.dumps(doc).encode()


class _Client:
    """One keep-alive connection that returns reply bytes undecoded."""

    def __init__(self, httpd):
        self.conn = http.client.HTTPConnection(
            *httpd.server_address[:2], timeout=60
        )

    def post(self, path: str, raw: bytes) -> tuple[int, bytes]:
        self.conn.request("POST", path, body=raw)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        return json.loads(resp.read())

    def close(self) -> None:
        self.conn.close()


@contextlib.contextmanager
def _router(shard: ServiceServer, planner: Planner | None = None):
    """A router HTTP server in front of one in-process shard."""
    router = Router(
        [ShardClient(0, *shard.httpd.server_address[:2])], planner=planner
    )
    httpd = make_router_server("127.0.0.1", 0, router)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield httpd
    finally:
        router.close()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def _bad_request(message: str) -> tuple[int, bytes]:
    return 400, _raw(error_envelope("bad_request", message))


def _unmemoized(service: SimService, raw: bytes) -> tuple[int, bytes]:
    """``(status, reply bytes)`` of ``raw`` through the parse path
    without the memo: ``parse_run_request(json.loads(raw))``, with the
    ``"auto"`` engine stripped, keyed by ``Scheduler.submit`` itself."""
    if not raw:
        return _bad_request("request body is empty")
    try:
        doc = json.loads(raw)
    except ValueError:
        return _bad_request("request body is not valid JSON")
    if isinstance(doc, dict) and doc.get("engine") == "auto":
        doc = {k: v for k, v in doc.items() if k != "engine"}
    try:
        key, result, served = service.scheduler.submit(
            parse_run_request(doc)
        )
    except ValueError as exc:
        return _bad_request(str(exc))
    except Exception as exc:
        return 500, _raw(error_envelope("internal", f"internal error: {exc!r}"))
    return 200, _raw({"key": key, "served": served, "result": result})


# ------------------------------------------------------------- identity
class TestRepeatIdentity:
    @pytest.mark.parametrize("body", [SIM, DAG], ids=["sim", "dag"])
    def test_repeat_replies_match_first_reply_and_fresh_service(self, body):
        raw = _raw(body)
        reference = SimService()
        try:
            with ServiceServer(SimService()) as server:
                client = _Client(server.httpd)
                replies = [client.post("/v1/run", raw) for _ in range(3)]
                client.close()
            expected = [_unmemoized(reference, raw) for _ in range(3)]
        finally:
            reference.close()
        assert replies == expected
        first = replies[0][1]
        assert b'"served": "computed"' in first
        cached = first.replace(b'"served": "computed"', b'"served": "cached"')
        assert replies[1] == replies[2] == (200, cached)
        info = parse_cache_info()
        assert info["hits"] == 2 and info["misses"] == 1 and info["size"] == 1

    def test_repeat_returns_the_same_request_object(self):
        first = parse_run_body(_raw(DAG))
        again = parse_run_body(_raw(DAG))
        assert again is first
        assert first == parse_run_doc(DAG)

    @pytest.mark.parametrize("raw, message", [
        (b'{"program": "sort",', "request body is not valid JSON"),
        (_raw(dict(SIM, nope=1)), "unknown request field(s) nope"),
        (
            _raw(dict(DAG, params={"epochs": "two"})),
            "workload param 'epochs' must be an integer",
        ),
        (_raw(dict(SIM, f="x^0")), "const"),
    ], ids=["json", "field", "dag-params", "f"])
    def test_invalid_bodies_are_revalidated_every_time(self, raw, message):
        reference = SimService()
        try:
            with ServiceServer(SimService()) as server:
                client = _Client(server.httpd)
                replies = [client.post("/v1/run", raw) for _ in range(2)]
                client.close()
            expected = _unmemoized(reference, raw)
        finally:
            reference.close()
        assert replies == [expected, expected]
        assert expected[0] == 400
        assert message in json.loads(expected[1])["error"]["message"]
        info = parse_cache_info()
        assert info["size"] == 0 and info["hits"] == 0
        assert info["misses"] == 2


# ------------------------------------------------------------- planning
class TestPlanner:
    def test_planning_runs_on_every_repeat(self, model):
        raw = _raw({"program": "sort", "v": 16, "engine": "auto"})
        request, engine_unset, _ = parse_run_body(raw)
        assert engine_unset and request.engine == "vec"
        chosen = Planner(model).plan(request, engine_unset=True).engine
        assert chosen != request.engine
        service = SimService(planner=Planner(model))
        with ServiceServer(service) as server:
            client = _Client(server.httpd)
            replies = []
            for count in range(1, 4):
                status, reply = client.post("/v1/run", raw)
                assert status == 200
                replies.append(json.loads(reply))
                counters = service.planner.counters.snapshot()
                assert counters["planned"] == count
                assert counters["auto_engine"] == count
            client.close()
        assert [r["served"] for r in replies] == [
            "computed", "cached", "cached",
        ]
        for reply in replies:
            assert reply["result"]["engine"] == chosen
            assert reply["key"] == replace(request, engine=chosen).key()
        # the memo still holds the request as parsed, before planning
        assert parse_run_body(raw)[0] is request

    def test_router_planner_rewrites_a_repeat_auto_body(self, model):
        body = {"program": "sort", "v": 16, "engine": "auto"}
        request = parse_run_doc(body)[0]
        chosen = Planner(model).plan(request, engine_unset=True).engine
        key = replace(request, engine=chosen).key()
        planner = Planner(model)
        # the shard has no planner: it runs whatever engine the router
        # wrote into the forwarded body
        with ServiceServer(SimService()) as shard, \
                _router(shard, planner) as router_httpd:
            client = _Client(router_httpd)
            served = []
            for count in range(1, 3):
                status, reply = client.post("/v1/run", _raw(body))
                assert status == 200
                doc = json.loads(reply)
                assert doc["key"] == key
                assert doc["result"]["engine"] == chosen
                assert planner.counters.snapshot()["planned"] == count
                served.append(doc["served"])
            status, reply = client.post(
                "/v1/batch", _raw({"requests": [body]})
            )
            client.close()
        assert status == 200
        assert [r["key"] for r in json.loads(reply)["results"]] == [key]
        assert served == ["computed", "cached"]


# --------------------------------------------------------------- bounds
class TestBounds:
    def test_memo_never_exceeds_its_capacity(self):
        for mu in range(1, PARSE_MEMO_ENTRIES + 40):
            parse_run_body(_raw(dict(SIM, mu=mu)))
            assert parse_cache_info()["size"] <= PARSE_MEMO_ENTRIES
        info = parse_cache_info()
        assert info["size"] == info["capacity"] == PARSE_MEMO_ENTRIES
        assert info["hits"] == 0

    def test_oversized_body_is_served_but_not_stored(self):
        padded = _raw(SIM).ljust(PARSE_MEMO_MAX_BYTES + 1)
        assert len(padded) == PARSE_MEMO_MAX_BYTES + 1
        reference = SimService()
        try:
            with ServiceServer(SimService()) as server:
                client = _Client(server.httpd)
                replies = [client.post("/v1/run", padded) for _ in range(2)]
                client.close()
            expected = [_unmemoized(reference, padded) for _ in range(2)]
        finally:
            reference.close()
        assert replies == expected
        assert [json.loads(r)["served"] for _, r in replies] == [
            "computed", "cached",
        ]
        assert parse_cache_info() == {
            "hits": 0, "misses": 0, "size": 0, "capacity": PARSE_MEMO_ENTRIES,
        }

    def test_oversized_expanded_spec_is_not_stored(self):
        body = dict(DAG, params={"epochs": 8, "partitions": 16})
        first = parse_run_body(_raw(body))
        assert len(first[0].spec_json) > PARSE_MEMO_MAX_BYTES
        again = parse_run_body(_raw(body))
        assert again == first == parse_run_doc(body)
        assert again[0] is not first[0]
        assert parse_cache_info()["size"] == 0


# ------------------------------------------------------------ coalescing
def test_concurrent_cold_body_computes_once():
    raw = _raw({"engine": "hmm", "program": "sort", "v": 64, "f": "x^0.61"})
    service = SimService()
    with ServiceServer(service) as server:
        barrier = threading.Barrier(8)
        replies: list[tuple[int, bytes]] = []
        lock = threading.Lock()

        def send() -> None:
            client = _Client(server.httpd)
            barrier.wait()
            reply = client.post("/v1/run", raw)
            client.close()
            with lock:
                replies.append(reply)

        threads = [threading.Thread(target=send) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert [status for status, _ in replies] == [200] * 8
    counters = service.scheduler.counters.snapshot()
    assert counters["served_computed"] == 1
    assert (
        counters.get("served_coalesced", 0) + counters.get("served_cached", 0)
        == 7
    )
    results = {json.dumps(json.loads(r)["result"]) for _, r in replies}
    assert len(results) == 1


# -------------------------------------------------------------- counting
@pytest.fixture
def calls(monkeypatch):
    """Count the parse and key work wherever the service looks it up."""
    counted: collections.Counter = collections.Counter()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(json, "loads", wrap("json.loads", json.loads))
    from_json = DagSpec.from_json
    monkeypatch.setattr(DagSpec, "from_json", classmethod(
        lambda cls, doc: wrap("DagSpec.from_json", from_json)(doc)
    ))
    monkeypatch.setattr(
        streaming, "streaming_spec",
        wrap("streaming_spec", streaming.streaming_spec),
    )
    cell_key = wrap("cell_key", ledger.cell_key)
    for module in (scheduler, dag_service, ledger):
        monkeypatch.setattr(module, "cell_key", cell_key)
    # an empty program cache: a first request builds its program (a
    # DAG's worker decodes its spec) whatever earlier tests have run
    monkeypatch.setattr(engines, "PROGRAM_CACHE", PlanCache(128))
    return counted


#: calls of the first request of each body — the same as before the
#: memo existed (the second ``json.loads`` is the served document's
#: normalizing round-trip; a DAG's third is the worker decoding its spec)
FIRST_REQUEST_CALLS = {
    "sim": {"json.loads": 2, "cell_key": 1},
    "dag": {
        "json.loads": 3, "cell_key": 1, "streaming_spec": 1,
        "DagSpec.from_json": 1,
    },
}


@pytest.mark.parametrize("name, body", [("sim", SIM), ("dag", DAG)])
def test_repeat_body_does_no_parse_or_key_work(calls, name, body):
    with ServiceServer(SimService()) as server:
        client = _Client(server.httpd)
        counts = []
        for _ in range(3):
            calls.clear()
            status, _ = client.post("/v1/run", _raw(body))
            assert status == 200
            counts.append(dict(calls))
        client.close()
    assert counts[0] == FIRST_REQUEST_CALLS[name]
    assert counts[1] == counts[2] == {}


# ---------------------------------------------------------- observability
def test_metrics_report_the_parse_cache():
    with ServiceServer(SimService()) as server:
        client = _Client(server.httpd)
        for _ in range(2):
            client.post("/v1/run", _raw(SIM))
        http_section = client.get("/v1/metrics")["http"]
        client.close()
        assert http_section["parse_cache"] == {
            "hits": 1, "misses": 1, "size": 1, "capacity": PARSE_MEMO_ENTRIES,
        }
        with _router(server) as router_httpd:
            client = _Client(router_httpd)
            status, _ = client.post("/v1/run", _raw(SIM))
            assert status == 200
            doc = client.get("/v1/metrics")
            client.close()
    # the memo is per process: the router's repeat and the shard's hit
    # both landed in the one this test process holds
    assert doc["router"]["parse_cache"] == {
        "hits": 3, "misses": 1, "size": 1, "capacity": PARSE_MEMO_ENTRIES,
    }


# ---------------------------------------------------------------- parity
_ANY = st.sampled_from([None, 3, "nope", [1]])


def _docs(required: dict, optional: dict, invalid: dict):
    """Documents whose fields take valid values, or, in a second
    strategy, also the ``invalid`` ones and an unknown field."""
    valid = st.fixed_dictionaries(
        {k: st.sampled_from(v) for k, v in required.items()},
        optional={k: st.sampled_from(v) for k, v in optional.items()},
    )
    fields = dict(required, **optional)
    mixed = st.fixed_dictionaries(
        {k: st.sampled_from(fields[k] + invalid.get(k, [])) for k in required},
        optional=dict(
            {
                k: st.sampled_from(fields[k] + invalid.get(k, []))
                for k in optional
            },
            extra=_ANY,
        ),
    )
    return st.one_of(valid, mixed)


_SIM_DOCS = _docs(
    {"program": ["sort", "reduce", "broadcast"]},
    {
        "kind": ["sim"],
        "engine": ["vec", "hmm", "bt", "brent", "direct", "auto"],
        "v": [1, 4, 8, 16],
        "mu": [1, 2, 8],
        "f": ["x^0.5", "log", "x^0.3"],
        "trace": ["off", "counters", "phases", "full"],
    },
    {
        "program": ["nope", 3],
        "kind": ["other"],
        "engine": ["nope"],
        "v": [3, 0, True, 8.0, "8"],
        "mu": [0, None],
        "f": ["x^0", "bogus"],
        "trace": ["x"],
    },
)

_DAG_DOCS = _docs(
    {
        "kind": ["dag"],
        "workload": ["stream-scan", "stream-reduce", "stream-stencil"],
    },
    {
        "params": [
            {}, {"epochs": 2}, {"epochs": 1, "partitions": 4},
            {"epochs": 2, "partitions": 2, "chunk": 3},
        ],
        "engine": ["vec", "auto", "hmm"],
        "heuristic": ["locality", "greedy"],
        "v": [4, 8],
        "f": ["x^0.5", "log"],
        "trace": ["counters", "phases"],
    },
    {
        "workload": ["nope", 4],
        "params": [{"epochs": 0}, {"epochs": "2"}, {"width": 2}, [1]],
        "engine": ["nope"],
        "heuristic": ["nope"],
        "v": [6],
        "f": ["bogus"],
        "spec": [{}, {"tasks": []}],
    },
)

_ENCODED = st.builds(
    lambda doc, indent, sort_keys: json.dumps(
        doc, indent=indent, sort_keys=sort_keys
    ).encode(),
    st.one_of(_SIM_DOCS, _DAG_DOCS),
    st.sampled_from([None, 1]),
    st.booleans(),
)

_BODIES = st.one_of(
    _ENCODED,
    _ENCODED.flatmap(
        lambda raw: st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    ),
    st.binary(max_size=24),
    st.sampled_from(
        [b"[]", b"null", b"3", b'"sort"', b"[1]", b"\xff\xfe{", b" "]
    ),
)


def test_memo_path_matches_unmemoized_parse():
    reference = SimService(cache_capacity=4096)
    try:
        with ServiceServer(SimService(cache_capacity=4096)) as server:
            client = _Client(server.httpd)

            @settings(max_examples=150, deadline=None)
            @given(raw=_BODIES)
            def check(raw):
                for _ in range(2):
                    assert client.post("/v1/run", raw) == (
                        _unmemoized(reference, raw)
                    )

            check()
            client.close()
    finally:
        reference.close()
