"""Planner subsystem tests: calibration profile, cost model, admission.

The load-bearing contract is the documented prediction contract
(``docs/planner.md``): every prediction carries ``lo <= point <= hi``
error bars that actually contain the measured charged cost — on the
calibrated grid *and* extrapolated beyond it — and cost-aware admission
charges predicted cost against per-tenant budgets and the global
in-flight ceiling *before* a request occupies a scheduler slot, with
the extended 429 envelope and an honest ``Retry-After``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.predict import (
    PROFILE_SCHEMA,
    UNTRUSTED_BAND,
    CalibrationProfile,
    CostModel,
    calibrate_profile,
    load_profile,
    write_profile,
)
from repro.engines import ENGINES, build_program, resolve_access_function
from repro.parallel.config import reset_fallback_warnings
from repro.parallel.pool import shared_pool
from repro.resilience import recovery
from repro.service.planner import (
    DEFAULT_TENANT,
    MAX_RETRY_AFTER_S,
    BudgetExceeded,
    CostBudget,
    Planner,
)
from repro.service.router import Router, ShardClient, make_router_server
from repro.service.scheduler import SimRequest
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


#: the test calibration matrix: three simulating engines plus the
#: zero-words direct reference, both bench programs, a small grid —
#: wide enough to exercise auto-choice, narrow enough to stay fast
_ENGINES = ("vec", "bt", "brent", "direct")
_PROGRAMS = ("sort", "fft-rec")
_V_GRID = (8, 16, 32)


@pytest.fixture(scope="module")
def profile_doc():
    return calibrate_profile(
        engines=_ENGINES, programs=_PROGRAMS, v_grid=_V_GRID, repeats=1
    )


@pytest.fixture(scope="module")
def model(profile_doc):
    return CostModel(CalibrationProfile(profile_doc))


def _measured_words(engine: str, program: str, v: int) -> float:
    result = ENGINES[engine].run(
        build_program(program, v, 8),
        resolve_access_function("x^0.5"),
        trace="counters",
    )
    return float(
        result.counters.get("words_touched", 0)
        + result.counters.get("words_moved", 0)
    )


def _request(i: int = 0, **kw) -> dict:
    kw.setdefault("engine", "vec")
    kw.setdefault("program", "sort")
    kw.setdefault("v", 32)
    kw.setdefault("f", f"x^0.{51 + i}")
    return kw


def _post(url, path, doc, headers=None):
    data = json.dumps(doc).encode()
    send = {"Content-Type": "application/json"}
    send.update(headers or {})
    req = urllib.request.Request(
        url + path, data=data, headers=send, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _get(url, path):
    with urllib.request.urlopen(url + path, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


class TestCalibrationProfile:
    def test_json_round_trip(self, tmp_path, profile_doc, model):
        path = tmp_path / "cal.json"
        write_profile(str(path), profile_doc)
        loaded = CostModel(load_profile(str(path)))
        for engine in ("vec", "bt"):
            fresh = loaded.predict(engine, "sort", 32)
            assert fresh == model.predict(engine, "sort", 32)
        assert json.loads(path.read_text())["schema"] == PROFILE_SCHEMA

    def test_schema_drift_refused(self, profile_doc):
        stale = dict(profile_doc, schema=PROFILE_SCHEMA + 1)
        with pytest.raises(ValueError, match="calibrate"):
            CalibrationProfile(stale)

    def test_malformed_refused(self, profile_doc):
        with pytest.raises(ValueError):
            CalibrationProfile([])
        broken = dict(profile_doc)
        broken.pop("models")
        with pytest.raises(ValueError, match="malformed"):
            CalibrationProfile(broken)

    def test_load_missing_file_is_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            load_profile(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            load_profile(str(bad))


class TestPredictionBands:
    """The acceptance criterion: measured charged cost lands inside the
    documented error band, interior and extrapolated."""

    @pytest.mark.parametrize("engine", ["vec", "bt", "brent"])
    @pytest.mark.parametrize("program", ["sort", "fft-rec"])
    def test_interior_band_holds(self, model, engine, program):
        p = model.predict(engine, program, 32)
        assert p.trusted and not p.extrapolated
        measured = _measured_words(engine, program, 32)
        assert p.charged_words_lo <= measured <= p.charged_words_hi
        assert p.wall_s_lo <= p.wall_s <= p.wall_s_hi

    @pytest.mark.parametrize("engine", ["vec", "bt", "brent"])
    def test_extrapolated_band_widens_and_holds(self, model, engine):
        interior = model.predict(engine, "sort", 32)
        beyond = model.predict(engine, "sort", 128)
        assert beyond.extrapolated and beyond.trusted
        # wider relative bars than the interior prediction
        assert (beyond.charged_words_hi / beyond.charged_words) > (
            interior.charged_words_hi / interior.charged_words
        )
        measured = _measured_words(engine, "sort", 128)
        assert beyond.charged_words_lo <= measured <= beyond.charged_words_hi

    def test_direct_predicts_zero_charged_words(self, model):
        p = model.predict("direct", "sort", 32)
        assert p.charged_words == p.charged_words_lo == 0.0
        assert p.charged_words_hi == 0.0
        assert p.wall_s > 0

    def test_uncalibrated_pair_falls_back_untrusted(self, model):
        p = model.predict("vec", "matmul", 16)  # matmul not in _PROGRAMS
        assert not p.trusted and p.source == "bounds_only"
        assert p.charged_words > 0
        assert p.charged_words_hi / p.charged_words == pytest.approx(
            UNTRUSTED_BAND
        )
        measured = _measured_words("vec", "matmul", 16)
        assert p.charged_words_lo <= measured <= p.charged_words_hi

    def test_hmm_is_priced_with_the_vec_models(self, model):
        hmm, vec = (
            model.predict(engine, "sort", 32).to_json()
            for engine in ("hmm", "vec")
        )
        assert (hmm.pop("engine"), vec.pop("engine")) == ("hmm", "vec")
        assert hmm == vec and hmm["trusted"]

    def test_unknown_engine_rejected(self, model):
        with pytest.raises(ValueError, match="unknown engine"):
            model.predict("warp", "sort", 32)

    def test_prediction_json_has_band_fields(self, model):
        doc = model.predict("vec", "sort", 32).to_json()
        for field in (
            "charged_words", "charged_words_lo", "charged_words_hi",
            "wall_s", "wall_s_lo", "wall_s_hi", "queue_slot_s",
            "trusted", "extrapolated", "source",
        ):
            assert field in doc


class TestCostBudget:
    def test_spend_refill_cycle(self):
        now = [0.0]
        bucket = CostBudget(100.0, 10.0, clock=lambda: now[0])
        ok, _, remaining = bucket.try_spend(80.0)
        assert ok and remaining == pytest.approx(20.0)
        ok, retry_after, _ = bucket.try_spend(30.0)
        assert not ok
        assert retry_after == pytest.approx(1.0)  # 10-word deficit at 10/s
        now[0] += 1.0
        ok, _, _ = bucket.try_spend(30.0)
        assert ok
        assert bucket.spent_total == pytest.approx(110.0)
        assert bucket.rejections == 1

    def test_refill_caps_at_capacity(self):
        now = [0.0]
        bucket = CostBudget(100.0, 10.0, clock=lambda: now[0])
        now[0] += 1000.0
        assert bucket.remaining() == pytest.approx(100.0)

    def test_unaffordable_request_gets_the_full_clamp(self):
        # a request larger than the bucket can never be admitted;
        # Retry-After must say "much later", not invite hammering
        bucket = CostBudget(100.0, 10.0, clock=lambda: 0.0)
        ok, retry_after, _ = bucket.try_spend(1e9)
        assert not ok and retry_after == MAX_RETRY_AFTER_S

    def test_validation(self):
        with pytest.raises(ValueError):
            CostBudget(0.0, 10.0)
        with pytest.raises(ValueError):
            CostBudget(10.0, -1.0)


class TestPlannerDecisions:
    def test_auto_engine_is_a_calibrated_simulator(self, model):
        planner = Planner(model)
        decision = planner.plan(
            SimRequest(**_request()), engine_unset=True
        )
        assert decision.engine_chosen
        assert decision.engine in ("vec", "bt", "brent")  # never direct
        assert decision.prediction.trusted

    def test_explicit_engine_is_respected(self, model):
        planner = Planner(model)
        decision = planner.plan(SimRequest(**_request(engine="bt")))
        assert decision.engine == "bt" and not decision.engine_chosen

    def test_cache_bypass_for_enormous_full_traces(self, model):
        planner = Planner(model)
        small = planner.plan(SimRequest(**_request(trace="full")))
        assert small.cache == "store"
        huge = planner.plan(
            SimRequest(**_request(v=2048, engine="bt", trace="full"))
        )
        assert huge.prediction.charged_words > 5e6
        assert huge.cache == "bypass"


class TestPlannerAdmission:
    def _planner(self, model, **kw):
        now = [0.0]
        kw.setdefault("clock", lambda: now[0])
        return Planner(model, **kw), now

    def test_global_ceiling_sheds_then_releases(self, model):
        planner, _ = self._planner(model, cost_ceiling=30_000.0)
        decision = planner.plan(SimRequest(**_request()))
        cost = decision.prediction.cost
        assert 0 < cost < 30_000.0
        planner.admit("default", decision)
        with pytest.raises(BudgetExceeded) as exc:
            planner.admit("default", decision)
        assert exc.value.scope == "global"
        assert exc.value.predicted_cost == pytest.approx(cost)
        assert exc.value.retry_after_s > 0
        planner.complete(decision, wall_s=0.01)
        planner.admit("default", decision)  # slot freed: admitted again

    def test_tenant_budgets_are_isolated(self, model):
        planner, _ = self._planner(model, tenant_capacity=30_000.0)
        decision = planner.plan(SimRequest(**_request()))
        planner.admit("alice", decision)
        with pytest.raises(BudgetExceeded) as exc:
            planner.admit("alice", decision)
        assert exc.value.scope == "tenant"
        planner.admit("bob", decision)  # bob's bucket is untouched

    def test_tenant_budget_refills_over_time(self, model):
        planner, now = self._planner(
            model, tenant_capacity=30_000.0,
            tenant_refill_per_s=30_000.0,
        )
        decision = planner.plan(SimRequest(**_request()))
        planner.admit("alice", decision)
        with pytest.raises(BudgetExceeded):
            planner.admit("alice", decision)
        now[0] += 1.0  # a full capacity of refill
        planner.admit("alice", decision)

    def test_probe_is_non_mutating(self, model):
        planner, _ = self._planner(model)
        decision = planner.plan(SimRequest(**_request()))
        first = planner.probe("carol", decision)
        second = planner.probe("carol", decision)
        assert first == second
        assert first["would_admit"] is True
        assert first["predicted_cost"] == decision.prediction.cost

    def test_gauges_report_budgets_and_sheds(self, model):
        planner, _ = self._planner(model, cost_ceiling=30_000.0)
        decision = planner.plan(SimRequest(**_request()))
        planner.admit("alice", decision)
        with pytest.raises(BudgetExceeded):
            planner.admit("alice", decision)
        gauges = planner.gauges()
        assert gauges["shed_global"] == 1
        assert gauges["inflight"] == 1
        assert "alice" in gauges["tenants"]
        assert gauges["tenants"]["alice"]["spent_total"] > 0


class TestServerPlanner:
    def test_plan_endpoint_computes_nothing(self, model):
        service = SimService(planner=Planner(model))
        with ServiceServer(service) as server:
            status, doc, _ = _post(server.url, "/v1/plan", _request())
            assert status == 200
            assert doc["plan"]["engine"] == "vec"
            pred = doc["prediction"]
            assert (
                pred["charged_words_lo"]
                <= pred["charged_words"]
                <= pred["charged_words_hi"]
            )
            assert doc["admission"]["would_admit"] is True
            assert "key" in doc
            counters = service.scheduler.counters.snapshot()
            assert counters.get("admitted", 0) == 0

    def test_plan_endpoint_auto_selects_engine(self, model):
        with ServiceServer(SimService(planner=Planner(model))) as server:
            body = _request()
            del body["engine"]
            status, doc, _ = _post(server.url, "/v1/plan", body)
            assert status == 200
            assert doc["plan"]["engine_chosen"] is True
            assert doc["plan"]["engine"] != "direct"
            assert doc["request"]["engine"] == doc["plan"]["engine"]

    def test_plan_without_planner_is_enveloped_400(self):
        with ServiceServer(SimService()) as server:
            status, doc, _ = _post(server.url, "/v1/plan", _request())
            assert status == 400
            assert doc["error"]["code"] == "planner_disabled"
            assert "calibrate" in doc["error"]["message"]

    def test_run_auto_engine_end_to_end(self, model):
        service = SimService(planner=Planner(model))
        with ServiceServer(service) as server:
            body = _request()
            del body["engine"]
            status, doc, _ = _post(server.url, "/v1/run", body)
            assert status == 200 and doc["served"] == "computed"
            planner_gauges = service.planner.gauges()
            assert planner_gauges["auto_engine"] >= 1

    def test_budget_429_extends_the_envelope(self, model):
        service = SimService(planner=Planner(model, cost_ceiling=1_000.0))
        with ServiceServer(service) as server:
            status, doc, headers = _post(server.url, "/v1/run", _request())
            assert status == 429
            envelope = doc["error"]
            assert envelope["code"] == "budget_exceeded"
            assert envelope["scope"] == "global"
            assert envelope["predicted_cost"] > 1_000.0
            assert envelope["budget_remaining"] >= 0
            assert envelope["retry_after_s"] > 0
            assert "Retry-After" in headers

    def test_tenant_header_scopes_the_budget(self, model):
        service = SimService(
            planner=Planner(
                model, tenant_capacity=30_000.0, tenant_refill_per_s=1.0
            )
        )
        with ServiceServer(service) as server:
            status, _, _ = _post(
                server.url, "/v1/run", _request(0),
                headers={"X-Tenant": "alice"},
            )
            assert status == 200
            status, doc, _ = _post(
                server.url, "/v1/run", _request(1),
                headers={"X-Tenant": "alice"},
            )
            assert status == 429
            assert doc["error"]["scope"] == "tenant"
            status, _, _ = _post(
                server.url, "/v1/run", _request(1),
                headers={"X-Tenant": "bob"},
            )
            assert status == 200

    def test_cache_hit_skips_admission_charges(self, model):
        service = SimService(
            planner=Planner(
                model, tenant_capacity=30_000.0, tenant_refill_per_s=1.0
            )
        )
        with ServiceServer(service) as server:
            status, doc, _ = _post(server.url, "/v1/run", _request(0))
            assert status == 200 and doc["served"] == "computed"
            # identical request: served from cache, no budget spend —
            # even though the bucket cannot afford another computation
            status, doc, _ = _post(server.url, "/v1/run", _request(0))
            assert status == 200 and doc["served"] == "cached"
            status, doc, _ = _post(server.url, "/v1/run", _request(1))
            assert status == 429

    def test_metrics_carry_the_planner_section(self, model):
        service = SimService(planner=Planner(model))
        with ServiceServer(service) as server:
            _post(server.url, "/v1/run", _request())
            status, doc = _get(server.url, "/v1/metrics")
            assert status == 200
            planner_doc = doc["planner"]
            assert planner_doc["enabled"] is True
            assert DEFAULT_TENANT in planner_doc["tenants"]
            assert planner_doc["cost_ceiling"] > 0

    def test_metrics_without_planner_say_disabled(self):
        with ServiceServer(SimService()) as server:
            status, doc = _get(server.url, "/v1/metrics")
            assert status == 200
            assert doc["planner"] == {"enabled": False}


class _PlannedTier:
    """Two in-process planner-enabled shards behind a planner router."""

    def __init__(self, model, **planner_kw):
        self.servers = [
            ServiceServer(SimService(
                identity={"index": i},
                planner=Planner(model, **planner_kw),
            ))
            for i in range(2)
        ]
        self.clients = [
            ShardClient(i, "127.0.0.1", s.httpd.server_address[1])
            for i, s in enumerate(self.servers)
        ]
        self.router = Router(self.clients, planner=Planner(model))
        self.httpd = make_router_server("127.0.0.1", 0, self.router)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True,
        )
        self._thread.start()

    @property
    def url(self):
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def close(self):
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


class TestRouterPlanner:
    def test_plan_forwards_to_the_owner_shard(self, model):
        with _PlannedTier(model) as tier:
            status, doc, _ = _post(tier.url, "/v1/plan", _request())
            assert status == 200
            assert doc["plan"]["engine"] == "vec"
            assert doc["admission"]["would_admit"] is True

    def test_auto_engine_resolved_before_routing(self, model):
        # the router must rewrite the body so the ring key matches the
        # shard's cache key: the identical auto request must hit cache
        with _PlannedTier(model) as tier:
            body = _request()
            del body["engine"]
            status, doc, _ = _post(tier.url, "/v1/run", body)
            assert status == 200 and doc["served"] == "computed"
            status, doc, _ = _post(tier.url, "/v1/run", body)
            assert status == 200 and doc["served"] == "cached"

    def test_tenant_header_and_metrics_roll_up(self, model):
        with _PlannedTier(
            model, tenant_capacity=30_000.0, tenant_refill_per_s=1.0
        ) as tier:
            saw_429 = False
            for i in range(6):
                status, doc, _ = _post(
                    tier.url, "/v1/run", _request(i),
                    headers={"X-Tenant": "alice"},
                )
                if status == 429:
                    assert doc["error"]["code"] == "budget_exceeded"
                    saw_429 = True
            assert saw_429
            status, metrics = _get(tier.url, "/v1/metrics")
            assert status == 200
            rollup = metrics["planner"]
            assert rollup["enabled"] is True
            assert rollup["tenants"]["alice"]["rejections"] >= 1
            assert rollup["tenants"]["alice"]["spent_total"] > 0
