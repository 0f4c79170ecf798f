"""The worker pool's contract: same charges, graceful degradation.

A cell run across the pool returns exactly what the serial path
returns — ``==`` on the hmm and brent result documents, floats
included.  Infrastructure failures fall back to serial with a one-shot
warning, or raise with ``fallback=False``; a genuine task error
propagates unchanged.  ``import repro`` loads none of the pool
machinery: a single simulation always runs in one process.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
from repro.bench import (
    DOC_SCHEMA,
    Workload,
    _run_engine_workload,
    bench_header,
    check,
    sweep_workload,
)
from repro.obs.trace import SpanRecord, merge_span_lists, tag_spans
from repro.parallel import (
    ParallelConfig,
    ParallelFallbackWarning,
    PoolUnavailable,
    parallel_map,
    reset_fallback_warnings,
    run_cells,
    touch_sweep,
)
from repro.parallel.config import SERIAL, resolve_parallel

#: two workers: enough to dispatch, small enough for a shared host
EAGER = ParallelConfig(jobs=2)

FUNCTIONS = ["x^0.5", "log", "staircase"]
PROGRAMS = ["sort", "fft-rec"]

#: ``touch-cost`` task arguments: small, fast, deterministic cells
ARGS = [(256, "x^0.5"), (512, "x^0.5")]


def test_import_repro_loads_no_pool_machinery():
    # a fresh interpreter that finds the same package this suite imports
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('\\n'.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    pool_modules = [
        name for name in loaded
        if name.startswith("repro.parallel")
        or name.startswith("multiprocessing")
        or name == "concurrent.futures.process"
    ]
    assert pool_modules == []


# --------------------------------------------------------- determinism
def _cell(engine: str, pname: str, fspec: str, trace: str = "phases"):
    """One ``run-cell`` payload: a v=16, mu=4 run of a bundled program."""
    return (engine, pname, 16, 4, fspec, trace)


def _pooled(cells):
    """Run cells across the pool; any silent serial fallback fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParallelFallbackWarning)
        docs, _ = run_cells(cells, parallel=EAGER)
    return docs


@pytest.mark.parametrize("fspec", FUNCTIONS)
@pytest.mark.parametrize("pname", PROGRAMS)
def test_hmm_parallel_bit_identical(pname, fspec):
    cells = [_cell("hmm", pname, fspec)]
    serial, _ = run_cells(cells, parallel=1)
    assert _pooled(cells) == serial


@pytest.mark.parametrize("fspec", FUNCTIONS)
@pytest.mark.parametrize("pname", PROGRAMS)
def test_brent_parallel_bit_identical(pname, fspec):
    cells = [_cell("brent", pname, fspec)]
    serial, _ = run_cells(cells, parallel=1)
    assert _pooled(cells) == serial


@pytest.mark.parametrize("trace", ["off", "counters"])
def test_hmm_parallel_identical_at_reduced_trace_levels(trace):
    cells = [_cell("hmm", "sort", "x^0.5", trace)]
    serial, _ = run_cells(cells, parallel=1)
    assert _pooled(cells) == serial


def test_jobs_one_is_plain_serial(monkeypatch):
    # jobs=1 must never touch pool machinery
    def no_pool(jobs):
        raise AssertionError("jobs=1 reached the pool")

    monkeypatch.setattr("repro.parallel.sweep.shared_pool", no_pool)
    cfg = ParallelConfig(jobs=1)
    assert not cfg.enabled
    docs, _ = run_cells([_cell("hmm", "sort", "x^0.5")], parallel=cfg)
    assert docs[0]["time"] > 0


# ------------------------------------------------------ degraded paths
class _FailingPool:
    """A pool whose dispatch always fails as infrastructure."""

    def run_ordered(self, kind, args_list, **kwargs):
        raise PoolUnavailable("injected failure")


def _fail_pool(monkeypatch):
    monkeypatch.setattr(
        "repro.parallel.sweep.shared_pool", lambda jobs: _FailingPool()
    )
    reset_fallback_warnings()


def test_hmm_failing_pool_falls_back_serial_with_one_warning(monkeypatch):
    _fail_pool(monkeypatch)
    cells = [_cell("hmm", "sort", "x^0.5")]
    serial, _ = run_cells(cells, parallel=1)
    with pytest.warns(ParallelFallbackWarning):
        par, _ = run_cells(cells, parallel=EAGER)
    assert par == serial
    # the warning is one-shot per reason: a second run stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParallelFallbackWarning)
        again, _ = run_cells(cells, parallel=EAGER)
    assert again == serial


def test_brent_failing_pool_falls_back_serial(monkeypatch):
    _fail_pool(monkeypatch)
    cells = [_cell("brent", "sort", "x^0.5")]
    serial, _ = run_cells(cells, parallel=1)
    with pytest.warns(ParallelFallbackWarning):
        par, _ = run_cells(cells, parallel=EAGER)
    assert par == serial


def test_fallback_false_raises(monkeypatch):
    _fail_pool(monkeypatch)
    cfg = ParallelConfig(jobs=2, fallback=False)
    with pytest.raises(PoolUnavailable):
        parallel_map("touch-cost", ARGS, parallel=cfg)


def test_unpicklable_payload_falls_back_serial():
    # a local class cannot cross the process boundary: dumps_payload
    # raises PoolUnavailable before dispatch and the map runs serially
    class LocalSpec(str):
        pass

    reset_fallback_warnings()
    serial = parallel_map("touch-cost", ARGS, parallel=1)
    with pytest.warns(ParallelFallbackWarning):
        par = parallel_map(
            "touch-cost", [(n, LocalSpec(f)) for n, f in ARGS], parallel=EAGER
        )
    assert par == serial


def test_genuine_task_error_propagates_unchanged():
    # a ValueError raised inside a worker task (matmul cannot build at
    # v=8) must cross the pool boundary as-is — never be eaten as an
    # infrastructure failure
    with pytest.raises(ValueError, match="power of 4"):
        _pooled([("hmm", "matmul", 8, 4, "x^0.5", "phases")])


# ------------------------------------------------------- config layer
def test_resolve_parallel_forms():
    assert resolve_parallel(None) is not None
    assert resolve_parallel(3).jobs == 3
    cfg = ParallelConfig(jobs=2)
    assert resolve_parallel(cfg) is cfg
    assert not resolve_parallel(1).enabled
    with pytest.raises(TypeError):
        resolve_parallel("four")


def test_repro_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert ParallelConfig.from_env().jobs == 3
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    with pytest.warns(ParallelFallbackWarning):
        assert ParallelConfig.from_env() is SERIAL


def test_serial_outcomes_return_the_singleton(monkeypatch):
    # both documented serial paths yield the SERIAL object itself, not a
    # fresh equal instance — consumers may use `is SERIAL` as the check
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert ParallelConfig.from_env() is SERIAL
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert ParallelConfig.from_env() is SERIAL
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert ParallelConfig.from_env() is SERIAL
    monkeypatch.setenv("REPRO_JOBS", "-2")
    assert ParallelConfig.from_env() is SERIAL
    assert resolve_parallel(1) is SERIAL
    assert resolve_parallel(0) is SERIAL


# -------------------------------------------------------- sweep runner
def test_touch_sweep_parallel_matches_serial():
    sizes = [256, 1024]
    serial = touch_sweep(sizes, f="x^0.5", parallel=1)
    par = touch_sweep(sizes, f="x^0.5", parallel=2)
    assert par == serial
    assert [c["n"] for c in par["cells"]] == sizes
    assert par["cells"][0]["hmm_cost"] > 0
    assert par["counters"] == serial["counters"]


def test_parallel_map_preserves_order():
    args = [(n, "x^0.5") for n in (256, 512, 1024)]
    docs = parallel_map("touch-cost", args, parallel=2)
    assert [d["n"] for d in docs] == [256, 512, 1024]


# ------------------------------------------------------ span machinery
def _span(index, parent, name, depth=0):
    return SpanRecord(
        index=index,
        parent=parent,
        depth=depth,
        name=name,
        category=None,
        start=0.0,
    )


def test_tag_spans_sets_worker_attr():
    spans = [_span(0, -1, "a"), _span(1, 0, "b", depth=1)]
    tagged = tag_spans(spans, worker=7)
    assert tagged is spans
    assert all(s.attrs["worker"] == 7 for s in tagged)


def test_merge_span_lists_shifts_indices():
    first = [_span(0, -1, "a"), _span(1, 0, "b", depth=1)]
    second = [_span(0, -1, "c")]
    merged = merge_span_lists([first, second])
    assert [s.name for s in merged] == ["a", "b", "c"]
    assert [s.index for s in merged] == [0, 1, 2]
    # roots stay roots; children keep pointing at their shifted parent
    assert [s.parent for s in merged] == [-1, 0, -1]


# ----------------------------------------------------- bench satellites
def test_bench_header_unified():
    doc = bench_header("sim_throughput", "python -m repro bench --jobs 4",
                       budget_s=1.0, jobs=4)
    assert doc["schema"] == DOC_SCHEMA == 4
    assert doc["kind"] == "sim_throughput"
    assert doc["cpu_count"] >= 1
    assert doc["jobs"] == 4
    assert "revision" in doc and doc["seed"] is None
    assert "--jobs 4" in doc["produced_by"]


def test_check_refuses_cross_schema():
    fresh = bench_header("sim_throughput", "python -m repro bench --smoke",
                         workloads={})
    baseline = {"schema": 1, "workloads": {}}
    with pytest.raises(ValueError, match="schema"):
        check(fresh, baseline)


def test_engine_workload_propagates_genuine_value_error():
    # v_host wider than the guest raises inside the engine; the trace
    # probe must not swallow it (the old bare `except ValueError` did)
    w = Workload(
        "bad", "brent", "sort", delivery_heavy=True, opts={"v_host": 64}
    )
    with pytest.raises(ValueError, match="host width"):
        _run_engine_workload(w, v=16, repeats=1)


def test_engine_workload_parallel_cell_matches_serial_counters():
    w = Workload("sort/hmm", "hmm", "sort", start=16, cap=16,
                 delivery_heavy=True)
    serial = sweep_workload(w, budget_s=1.0)["sweep"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParallelFallbackWarning)
        [(_, pooled)] = parallel_map(
            "bench-workload", [(dataclasses.asdict(w), 1.0, False)],
            parallel=EAGER,
        )
    for field in ("model_time", "charged_words", "rounds"):
        assert [c[field] for c in pooled["sweep"]] == [
            c[field] for c in serial
        ]
