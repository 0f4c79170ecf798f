"""DAG requests through the service tier.

A ``{"kind": "dag", ...}`` body is a first-class citizen of ``/v1/run``:
content-addressed by the same ``cell_key`` machinery (the canonical spec
string is part of the key, so byte-identical DAGs hit the cache across
submitters), computed by the ``run-dag`` worker task, and planned with
honest *untrusted* error bars — DAG program names never appear in a
calibration profile, so the planner must fall back to the structural
bound instead of pretending to a calibrated prediction.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.predict import (
    UNTRUSTED_BAND,
    CalibrationProfile,
    CostModel,
    calibrate_profile,
)
from repro.dag.service import DagRunRequest
from repro.service.planner import Planner
from repro.service.scheduler import parse_run_request
from repro.service.server import SimService

BODY = {
    "kind": "dag",
    "workload": "stream-scan",
    "params": {"epochs": 2, "partitions": 8, "chunk": 4},
    "engine": "vec",
    "heuristic": "locality",
    "v": 8,
}


@pytest.fixture(scope="module")
def planner_model():
    profile = calibrate_profile(
        engines=("vec", "direct"), programs=("sort",), v_grid=(8, 16),
        repeats=1,
    )
    return CostModel(CalibrationProfile(profile))


class TestParsing:
    def test_kind_dispatch(self):
        req = parse_run_request(BODY)
        assert isinstance(req, DagRunRequest)
        assert req.program == "dag:stream-scan[e2,p8,c4]/locality"
        assert req.task_kind == "run-dag"

    def test_sim_requests_still_parse_with_and_without_kind(self):
        plain = parse_run_request({"engine": "vec", "program": "sort",
                                   "v": 8})
        tagged = parse_run_request({"kind": "sim", "engine": "vec",
                                    "program": "sort", "v": 8})
        assert plain.key() == tagged.key()

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="expected 'sim' or 'dag'"):
            parse_run_request({"kind": "weird"})

    def test_exactly_one_of_spec_or_workload(self):
        with pytest.raises(ValueError, match="exactly one"):
            parse_run_request({"kind": "dag", "v": 8})
        inline = {"schema": 1, "name": "t",
                  "tasks": [{"id": "a"}], "edges": []}
        with pytest.raises(ValueError, match="exactly one"):
            parse_run_request({"kind": "dag", "workload": "stream-scan",
                               "spec": inline})
        with pytest.raises(ValueError, match="params"):
            parse_run_request({"kind": "dag", "spec": inline,
                               "params": {"epochs": 2}})

    def test_unknown_fields_and_workloads_refused(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_run_request(dict(BODY, bogus=1))
        with pytest.raises(ValueError, match="stream-"):
            parse_run_request(dict(BODY, workload="nope"))

    def test_key_is_content_addressed(self):
        base = parse_run_request(BODY).key()
        assert parse_run_request(dict(BODY)).key() == base
        assert parse_run_request(
            dict(BODY, heuristic="greedy")
        ).key() != base
        assert parse_run_request(dict(BODY, engine="direct")).key() != base
        # an inline spec identical to the expanded workload shares the key
        spec_doc = json.loads(parse_run_request(BODY).spec_json)
        inline = parse_run_request({
            "kind": "dag", "spec": spec_doc, "engine": "vec",
            "heuristic": "locality", "v": 8,
        })
        assert inline.key() == base

    def test_round_trip(self):
        req = parse_run_request(BODY)
        again = DagRunRequest.from_json(req.to_json())
        assert again.key() == req.key()


class TestService:
    def test_run_then_cache_hit(self):
        svc = SimService()
        first = svc.handle_run(BODY)
        second = svc.handle_run(BODY)
        assert first["served"] == "computed"
        assert second["served"] == "cached"
        assert second["result"] == first["result"]
        assert second["key"] == first["key"]

    def test_vec_hmm_charged_identity_through_the_service(self):
        svc = SimService()
        vec = svc.handle_run(BODY)
        hmm = svc.handle_run(dict(BODY, engine="hmm"))
        assert vec["result"]["time"] == hmm["result"]["time"]
        assert vec["result"]["counters"] == hmm["result"]["counters"]

    def test_mixed_kind_batch(self):
        svc = SimService()
        doc = svc.handle_batch({"requests": [
            BODY,
            {"engine": "direct", "program": "reduce", "v": 8},
        ]})
        assert [r["served"] for r in doc["results"]] == [
            "computed", "computed",
        ]

    def test_worker_pool_path_matches_inline(self):
        inline = SimService().handle_run(BODY)
        pooled = SimService(jobs=2).handle_run(BODY)
        assert pooled["result"] == inline["result"]

    def test_metrics_carry_the_plan_cache(self):
        svc = SimService()
        svc.handle_run(BODY)
        kernel = svc.metrics()["kernel"]["plan_cache"]
        assert set(kernel) == {"size", "max", "hits", "misses",
                               "evictions"}
        assert kernel["misses"] >= 1

    def test_plan_cache_hits_accumulate(self):
        # drive the kernel directly, in this process, so the plan
        # cache under observation is this process's own — under
        # REPRO_JOBS>1 the service computes in workers, whose caches
        # are invisible here
        from repro.dag.compile import dag_program
        from repro.dag.spec import DagSpec
        from repro.engines import ENGINES, resolve_access_function
        from repro.sim.hmm_vec import plan_cache_info

        req = parse_run_request(BODY)
        program = dag_program(
            DagSpec.from_json(json.loads(req.spec_json)), v=8, mu=8,
            heuristic="locality",
        )
        f = resolve_access_function("x^0.5")
        ENGINES["vec"].run(program, f)
        before = plan_cache_info()["hits"]
        ENGINES["vec"].run(program, f)
        assert plan_cache_info()["hits"] > before


class TestPlanner:
    def test_dag_predictions_are_honest_bounds(self, planner_model):
        svc = SimService(planner=Planner(planner_model))
        doc = svc.handle_plan(BODY)
        prediction = doc["prediction"]
        assert prediction["source"] == "bounds_only"
        assert prediction["trusted"] is False
        point = prediction["charged_words"]
        assert prediction["charged_words_lo"] == pytest.approx(
            point / UNTRUSTED_BAND
        )
        assert prediction["charged_words_hi"] == pytest.approx(
            point * UNTRUSTED_BAND
        )

    def test_auto_engine_resolves_for_dag_requests(self, planner_model):
        svc = SimService(planner=Planner(planner_model))
        doc = svc.handle_plan(dict(BODY, engine="auto"))
        assert doc["plan"]["engine"] in ("vec", "direct")
        assert doc["plan"]["engine_chosen"] is True

    def test_admitted_dag_runs_compute(self, planner_model):
        svc = SimService(planner=Planner(planner_model))
        doc = svc.handle_run(BODY)
        assert doc["served"] == "computed"
