"""The worker pool's contract: same charges, graceful degradation.

A cell run across the pool returns exactly what the serial path
returns — ``==`` on the hmm and brent result documents, floats
included.  Infrastructure failures finish inline with a one-shot
warning; a genuine task error propagates unchanged.  ``import repro``
loads none of the pool machinery: a single simulation always runs in
one process.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    workers,
)
from repro.parallel.config import SERIAL, resolve_parallel
from repro.resilience import SweepLedger, cell_key
from repro.service.jobs import JobManager
from repro.service.scheduler import _normalize
from repro.service.server import SimService

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


class _PartialPool:
    """A pool that finishes its first ``k`` tasks, then fails as
    infrastructure (``k=None``: it finishes every task)."""

    def __init__(self, k, task):
        self.k = k
        self.task = task
        self.dispatched: list = []

    def run_ordered(self, kind, args_list, policy=None):
        self.dispatched.append(list(args_list))
        k = len(args_list) if self.k is None else self.k

        def stream():
            for args in args_list[:k]:
                yield self.task(args)
            if k < len(args_list):
                raise PoolUnavailable(f"injected after {k} task(s)")

        return stream()


#: small Fact 1/2 cells: two access functions over three sizes
TOUCH_CELLS = [(n, f) for n in (64, 128, 256) for f in ("x^0.5", "log")]

_SERIAL_TOUCH = {
    args: workers.TASKS["touch-cost"](args) for args in TOUCH_CELLS
}


@settings(max_examples=40, deadline=None)
@given(
    cells=st.lists(st.sampled_from(TOUCH_CELLS), unique=True, max_size=5),
    k=st.integers(min_value=0, max_value=6),
    recorded=st.sets(st.integers(min_value=0, max_value=4)),
    use_ledger=st.booleans(),
)
def test_runner_finishes_inline_only_what_the_pool_left(
    cells, k, recorded, use_ledger
):
    # the pool finishes k cells and breaks; the runner must return the
    # serial result, running inline only the cells the pool left, and
    # record every missing cell in the ledger exactly once
    kind = "touch-cost"
    task = workers.TASKS[kind]
    serial = [_SERIAL_TOUCH[args] for args in cells]
    recorded = {i for i in recorded if i < len(cells)} if use_ledger else set()
    missing = [i for i in range(len(cells)) if i not in recorded]
    pool = _PartialPool(k, task)
    inline_calls: list = []

    def counted(args):
        inline_calls.append(args)
        return task(args)

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.parallel.sweep.shared_pool", lambda jobs: pool)
        mp.setitem(workers.TASKS, kind, counted)
        ledger = None
        appended: list = []
        if use_ledger:
            ledger = SweepLedger.create(os.path.join(tmp, "cells.ledger"))
            for i in recorded:
                key = cell_key(kind, cells[i], None)
                ledger.record(key, kind, _SERIAL_TOUCH[cells[i]])
            ledger.subscribe(lambda key, kind, result: appended.append(key))
        reset_fallback_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = parallel_map(kind, cells, EAGER, ledger)
        assert result == serial
        assert pool.dispatched == ([[cells[i] for i in missing]]
                                   if missing else [])
        assert inline_calls == [cells[i] for i in missing[k:]]
        fallbacks = [w for w in caught
                     if issubclass(w.category, ParallelFallbackWarning)]
        assert len(fallbacks) == (1 if k < len(missing) else 0)
        if use_ledger:
            assert appended == [cell_key(kind, cells[i], None)
                                for i in missing]
            # a repeat call replays every cell: nothing runs or records
            del inline_calls[:]
            assert parallel_map(kind, cells, EAGER, ledger) == serial
            assert appended == [cell_key(kind, cells[i], None)
                                for i in missing]
            assert inline_calls == []
            assert len(pool.dispatched) == (1 if missing else 0)
            ledger.close()


@pytest.mark.parametrize("k", [None, 0])
def test_full_trace_cell_keeps_span_records_without_ledger(monkeypatch, k):
    # no ledger, no JSON round-trip: pooled and inline documents alike
    # still carry SpanRecord objects for run_cells to tag
    cell = _cell("hmm", "sort", "x^0.5", trace="full")
    monkeypatch.setattr(
        "repro.parallel.sweep.shared_pool",
        lambda jobs: _PartialPool(k, workers.TASKS["run-cell"]),
    )
    reset_fallback_warnings()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParallelFallbackWarning)
        [doc] = parallel_map("run-cell", [cell], EAGER)
    assert doc["spans"]
    assert all(isinstance(span, SpanRecord) for span in doc["spans"])


def test_checkpointed_full_trace_sweep_equals_an_unledgered_one(tmp_path):
    # the ledger's JSON round-trip takes the spans' JSON form; run_cells
    # rebuilds the records, so computing and replaying cells both return
    # what a run without a ledger returns
    cells = [("hmm", "sort", 8, 8, "x^0.5"), ("vec", "fft-rec", 8, 4, "log")]
    context = {"suite": "full-trace"}
    want = run_cells(cells, trace="full", parallel=SERIAL, context=context)
    assert want[1] and all(isinstance(s, SpanRecord) for s in want[1])
    path = str(tmp_path / "cells.ledger")
    with SweepLedger.create(path) as ledger:
        computed = run_cells(
            cells, trace="full", parallel=SERIAL, ledger=ledger,
            context=context,
        )
        assert ledger.cells_recorded == len(cells) and ledger.hits == 0
    with SweepLedger.resume(path) as ledger:
        replayed = run_cells(
            cells, trace="full", parallel=SERIAL, ledger=ledger,
            context=context,
        )
        assert ledger.hits == len(cells)
    assert computed == want
    assert replayed == want


def test_service_on_failing_pool_serves_inline_results(monkeypatch, tmp_path):
    # a service whose pool cannot run still computes every request and
    # finishes every job inline, with results equal to a serial service
    body = {"program": "sort", "engine": "hmm", "v": 16, "mu": 4,
            "f": "x^0.5", "trace": "counters"}
    reference = SimService(jobs=1).handle_run(dict(body))
    _fail_pool(monkeypatch)
    service = SimService(jobs=2, jobs_dir=str(tmp_path / "jobs"))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            served = service.handle_run(dict(body))
        fallbacks = [w for w in caught
                     if issubclass(w.category, ParallelFallbackWarning)]
        assert len(fallbacks) == 1
        assert served["served"] == "computed"
        assert served["result"] == reference["result"]

        cells = [
            {**body, "v": 8},
            {**body, "engine": "brent", "program": "fft-rec"},
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParallelFallbackWarning)
            job = service.job_manager.submit_json(
                {"kind": "cells", "cells": cells}
            )
            _wait_job(service.job_manager, job.id)
        assert job.state == "done"
        docs, _ = run_cells(
            [tuple(c[name] for name in
                   ("engine", "program", "v", "mu", "f", "trace"))
             for c in cells],
            parallel=1,
        )
        folded = json.loads(json.dumps(
            {"cells": [_normalize(doc) for doc in docs]}
        ))
        assert service.job_manager.result(job.id) == folded
    finally:
        service.close()


def _wait_job(manager: JobManager, job_id: str, timeout_s: float = 120.0):
    deadline = time.monotonic() + timeout_s
    while not manager.get(job_id).terminal:
        assert time.monotonic() < deadline, manager.get(job_id).state
        time.sleep(0.01)


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
