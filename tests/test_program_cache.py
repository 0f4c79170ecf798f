"""Programs built once per shape and shared by every run.

``repro.run(name, ...)``, the ``run-cell`` and ``run-dag`` worker tasks
and the planner take their programs from ``engines.PROGRAM_CACHE``.
That is sound only if a program and its bodies keep no state from one
run to the next: every engine, run twice and interleaved with the
others on one cached program, must give exactly what a run on a fresh
build gives.  The program cache is a second ``PlanCache``, apart from
the kernel's plan cache, and the two count apart.
"""

from __future__ import annotations

import threading

import pytest

import repro
from repro.dag.compile import dag_program
from repro.engines import (
    ENGINES,
    PROGRAM_CACHE,
    PROGRAMS,
    build_program,
    cached_program,
    resolve_access_function,
)
from repro.parallel.workers import TASKS
from repro.service.scheduler import parse_run_request
from repro.sim.kernel import PLANS, plan_cache_info

V = 16  # a power of 4, so matmul builds too
F = "x^0.5"

#: the DAG shapes of one serve-cold block: (workload, epochs,
#: partitions, heuristic), at the benchmark's width
COLD_DAG_SHAPES = (
    ("stream-scan", 2, 4, "locality"),
    ("stream-stencil", 4, 4, "greedy"),
    ("stream-reduce", 2, 8, "locality"),
)


def dag_request(workload: str, epochs: int, partitions: int, heuristic: str):
    return parse_run_request({
        "kind": "dag",
        "workload": workload,
        "params": {"epochs": epochs, "partitions": partitions, "chunk": 5},
        "heuristic": heuristic,
        "v": 8,
        "f": F,
    })


def cached_dag(req):
    """The program the ``run-dag`` task runs for ``req`` (it fills the
    cache), and a fresh build of the same shape."""
    TASKS["run-dag"](req.args)
    key = (req.spec_json, req.v, req.mu, req.heuristic)
    cached = PROGRAM_CACHE.get(key, lambda: pytest.fail("not cached"))
    fresh = dag_program(req.spec(), v=req.v, mu=req.mu, heuristic=req.heuristic)
    return cached, fresh


def observed(res) -> tuple:
    return res.to_json(), res.contexts


def assert_stateless(cached, fresh) -> None:
    """Every engine twice, interleaved, on ``cached``: each run equals
    the run on ``fresh``."""
    want = {
        engine: observed(repro.run(fresh, engine, F)) for engine in ENGINES
    }
    for _ in range(2):
        for engine in sorted(ENGINES):
            assert observed(repro.run(cached, engine, F)) == want[engine], (
                cached.name, engine,
            )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_cached_bundled_programs_are_stateless(name):
    cached = cached_program(name, V, 8)
    assert cached_program(name, V, 8) is cached
    assert_stateless(cached, build_program(name, V, 8))


@pytest.mark.parametrize("shape", COLD_DAG_SHAPES, ids=lambda s: s[0])
def test_cached_dag_programs_are_stateless(shape):
    cached, fresh = cached_dag(dag_request(*shape))
    assert cached is not fresh
    assert_stateless(cached, fresh)


def test_run_by_name_shares_the_cached_program():
    cached = cached_program("reduce", V, 4)
    before = PROGRAM_CACHE.info()
    res = repro.run("reduce", "vec", F, v=V, mu=4)
    after = PROGRAM_CACHE.info()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]
    assert res.to_json() == repro.run(build_program("reduce", V, 4), "vec", F).to_json()
    assert cached_program("reduce", V, 4) is cached


def test_the_run_tasks_match_fresh_builds():
    args = ("bt", "fft-rec", V, 8, F, "phases")
    fresh = ENGINES["bt"].run(build_program("fft-rec", V, 8),
                              resolve_access_function(F))
    for _ in range(2):
        doc = TASKS["run-cell"](args)
        doc.pop("spans")
        assert doc == fresh.to_json(include_trace=False)


def test_a_build_error_is_not_cached():
    before = PROGRAM_CACHE.info()
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown program 'nope'"):
            repro.run("nope", v=8)
    after = PROGRAM_CACHE.info()
    assert after["misses"] == before["misses"] + 2
    assert after["size"] == before["size"]


def test_program_and_plan_caches_count_apart():
    f = resolve_access_function(F)
    program = cached_program("prefix", 32, 2)
    plans = plan_cache_info()
    programs = PROGRAM_CACHE.info()
    cached_program("prefix", 32, 2)
    assert plan_cache_info() == plans
    assert PROGRAM_CACHE.info()["hits"] == programs["hits"] + 1

    programs = PROGRAM_CACHE.info()
    ENGINES["vec"].run(program, f)
    ENGINES["vec"].run(program, f)
    assert PROGRAM_CACHE.info() == programs
    assert plan_cache_info()["hits"] >= plans["hits"] + 1

    # the plan cache holds engine plans only: no program lands there
    assert {engine for engine, _ in list(PLANS._plans)} <= {"vec", "bt", "brent"}
    assert all(
        type(key[0]) is str and len(key) in (3, 4)
        for key in list(PROGRAM_CACHE._plans)
    )


def test_threads_share_one_cached_program():
    """Inline serving runs requests on threads over one program."""
    cached = cached_program("sort", 32, 8)
    want = {
        engine: observed(repro.run(build_program("sort", 32, 8), engine, F))
        for engine in ("vec", "bt", "brent")
    }
    got: list[tuple[str, tuple]] = []

    def work(engine: str) -> None:
        for _ in range(3):
            got.append((engine, observed(repro.run(cached, engine, F))))

    threads = [threading.Thread(target=work, args=(e,)) for e in want]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(got) == 9
    for engine, result in got:
        assert result == want[engine], engine
