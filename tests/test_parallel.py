"""The process-parallel scheduler's contract: bit-identical charged costs.

The tier-1 claim (ISSUE 3): for any job count, the HMM and Brent engines
charge **exactly** the same model time, counters and per-phase breakdown
as the serial path — the worker pool changes wall clock only.  These
tests pin that bit-for-bit (``==`` on floats, no tolerances), plus the
degradation contract: infrastructure failures fall back to serial with a
one-shot warning, genuine program errors propagate unchanged, and the
``min_work_per_task`` gate keeps small runs off the pool entirely.
"""

from __future__ import annotations

import warnings

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    Workload,
    _run_engine_workload,
    bench_header,
    check_against,
)
from repro.dbsp.program import Program, Superstep
from repro.engines import build_program, resolve_access_function
from repro.obs.trace import SpanRecord, merge_span_lists, tag_spans
from repro.parallel import (
    ParallelConfig,
    ParallelFallbackWarning,
    PoolUnavailable,
    WorkerPool,
    parallel_map,
    reset_fallback_warnings,
    touch_sweep,
)
from repro.parallel.config import SERIAL, resolve_parallel
from repro.sim.brent import BrentSimulator
from repro.sim.hmm_sim import HMMSimulator

#: fan out even the tiny test programs (the default gate would keep them
#: inline and the determinism claim would be vacuously true)
EAGER = ParallelConfig(jobs=4, min_work_per_task=1)

FUNCTIONS = ["x^0.5", "log", "staircase"]
PROGRAMS = ["sort", "fft-rec"]


def _no_fallback():
    """Context: any silent degradation to serial fails the test."""
    ctx = warnings.catch_warnings()
    ctx.__enter__()
    warnings.simplefilter("error", ParallelFallbackWarning)
    return ctx


# --------------------------------------------------------- determinism
@pytest.mark.parametrize("fspec", FUNCTIONS)
@pytest.mark.parametrize("pname", PROGRAMS)
def test_hmm_parallel_bit_identical(pname, fspec):
    f = resolve_access_function(fspec)
    program = build_program(pname, 16, 4)
    serial = HMMSimulator(f, trace="phases").simulate(program)
    ctx = _no_fallback()
    try:
        par = HMMSimulator(f, trace="phases", parallel=EAGER).simulate(
            program
        )
    finally:
        ctx.__exit__(None, None, None)
    assert par.time == serial.time
    assert par.rounds == serial.rounds
    assert par.counters == serial.counters
    assert par.breakdown == serial.breakdown
    assert par.contexts == serial.contexts
    assert par.pending == serial.pending


@pytest.mark.parametrize("fspec", FUNCTIONS)
@pytest.mark.parametrize("pname", PROGRAMS)
def test_brent_parallel_bit_identical(pname, fspec):
    g = resolve_access_function(fspec)
    program = build_program(pname, 16, 4)
    serial = BrentSimulator(g, v_host=4, trace="phases").simulate(program)
    ctx = _no_fallback()
    try:
        par = BrentSimulator(
            g, v_host=4, trace="phases", parallel=EAGER
        ).simulate(program)
    finally:
        ctx.__exit__(None, None, None)
    assert par.time == serial.time
    assert par.counters == serial.counters
    assert par.breakdown == serial.breakdown
    assert par.contexts == serial.contexts


@pytest.mark.parametrize("trace", ["off", "counters"])
def test_hmm_parallel_identical_at_reduced_trace_levels(trace):
    f = resolve_access_function("x^0.5")
    program = build_program("sort", 16, 4)
    serial = HMMSimulator(f, trace=trace).simulate(program)
    par = HMMSimulator(f, trace=trace, parallel=EAGER).simulate(program)
    assert par.time == serial.time
    assert par.counters == serial.counters
    assert par.contexts == serial.contexts


def test_jobs_one_is_plain_serial():
    # jobs=1 must never touch pool machinery: identical object-level path
    f = resolve_access_function("x^0.5")
    program = build_program("sort", 16, 4)
    cfg = ParallelConfig(jobs=1, min_work_per_task=1)
    assert not cfg.enabled
    serial = HMMSimulator(f).simulate(program)
    via_cfg = HMMSimulator(f, parallel=cfg).simulate(program)
    assert via_cfg.time == serial.time


# ------------------------------------------------------ degraded paths
class _FailingPool:
    """A pool whose dispatch always fails as infrastructure."""

    def __init__(self):
        self.tasks_submitted = 0

    def submit_many(self, kind, payloads):
        raise PoolUnavailable("injected failure")

    def run_ordered(self, kind, args_list, **kwargs):
        raise PoolUnavailable("injected failure")


def test_hmm_failing_pool_falls_back_serial_with_one_warning(monkeypatch):
    monkeypatch.setattr(
        "repro.parallel.pool.shared_pool", lambda jobs: _FailingPool()
    )
    reset_fallback_warnings()
    f = resolve_access_function("x^0.5")
    program = build_program("sort", 16, 4)
    serial = HMMSimulator(f).simulate(program)
    with pytest.warns(ParallelFallbackWarning):
        par = HMMSimulator(f, parallel=EAGER).simulate(program)
    assert par.time == serial.time
    assert par.counters == serial.counters
    assert par.contexts == serial.contexts
    # the warning is one-shot per reason: a second run stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParallelFallbackWarning)
        again = HMMSimulator(f, parallel=EAGER).simulate(program)
    assert again.time == serial.time


def test_brent_failing_pool_falls_back_serial(monkeypatch):
    """brent has no per-host fan-out: ``parallel`` is accepted and
    ignored, so even a failing pool is never touched and nothing warns."""
    pool = _FailingPool()

    def shared_pool(jobs):
        pool.tasks_submitted += 1
        return pool

    monkeypatch.setattr("repro.parallel.pool.shared_pool", shared_pool)
    reset_fallback_warnings()
    g = resolve_access_function("x^0.5")
    program = build_program("sort", 16, 4)
    serial = BrentSimulator(g, v_host=4).simulate(program)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        par = BrentSimulator(g, v_host=4, parallel=EAGER).simulate(program)
    assert pool.tasks_submitted == 0
    assert par.time == serial.time
    assert par.counters == serial.counters


def test_fallback_false_raises(monkeypatch):
    monkeypatch.setattr(
        "repro.parallel.pool.shared_pool", lambda jobs: _FailingPool()
    )
    cfg = ParallelConfig(jobs=4, min_work_per_task=1, fallback=False)
    f = resolve_access_function("x^0.5")
    program = build_program("sort", 16, 4)
    with pytest.raises(PoolUnavailable):
        HMMSimulator(f, parallel=cfg).simulate(program)


def test_unpicklable_body_falls_back_serial():
    # lambda bodies cannot cross the process boundary: dumps_payload
    # raises PoolUnavailable before dispatch and the run stays serial
    reset_fallback_warnings()
    f = resolve_access_function("x^0.5")
    steps = [
        Superstep(4, lambda view: None, name="noop"),
        Superstep(0, None, name="sync"),
    ]
    program = Program(16, 4, steps, name="lambda-prog")
    serial = HMMSimulator(f).simulate(program)
    with pytest.warns(ParallelFallbackWarning):
        par = HMMSimulator(f, parallel=EAGER).simulate(program)
    assert par.time == serial.time


def test_min_work_gate_keeps_small_runs_inline(monkeypatch):
    sentinel = WorkerPool(2)
    monkeypatch.setattr(
        "repro.parallel.pool.shared_pool", lambda jobs: sentinel
    )
    f = resolve_access_function("x^0.5")
    program = build_program("sort", 16, 4)
    # default min_work_per_task (4096) dwarfs this program's segments
    cfg = ParallelConfig(jobs=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParallelFallbackWarning)
        par = HMMSimulator(f, parallel=cfg).simulate(program)
    assert sentinel.tasks_submitted == 0
    serial = HMMSimulator(f).simulate(program)
    assert par.time == serial.time


class _BoomBody:
    """Picklable body that blows up on processor 0."""

    def __call__(self, view):
        if view.pid == 0:
            raise ValueError("boom from the program body")


def test_genuine_task_error_propagates_unchanged():
    # a ValueError raised by the simulated program must cross the pool
    # boundary as-is — never be eaten as an infrastructure failure
    f = resolve_access_function("x^0.5")
    steps = [
        Superstep(4, _BoomBody(), name="boom"),
        Superstep(0, None, name="sync"),
    ]
    program = Program(16, 4, steps, name="boom-prog")
    with pytest.raises(ValueError, match="boom from the program body"):
        HMMSimulator(f, parallel=EAGER).simulate(program)


# ------------------------------------------------------- config layer
def test_resolve_parallel_forms():
    assert resolve_parallel(None) is not None
    assert resolve_parallel(3).jobs == 3
    cfg = ParallelConfig(jobs=2, min_work_per_task=7)
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
def test_bench_header_schema_three():
    doc = bench_header(1.0, smoke=True, jobs=4)
    assert doc["schema"] == BENCH_SCHEMA == 3
    assert doc["cpu_count"] >= 1
    assert doc["jobs"] == 4
    assert "revision" in doc
    assert "--jobs 4" in doc["produced_by"]


def test_check_against_refuses_cross_schema():
    fresh = bench_header(1.0, smoke=True)
    baseline = {"schema": 1, "workloads": {}}
    with pytest.raises(ValueError, match="schema"):
        check_against(fresh, baseline)


def test_engine_workload_propagates_genuine_value_error():
    # v_host wider than the guest raises inside the engine; the trace
    # probe must not swallow it (the old bare `except ValueError` did)
    w = Workload(
        "bad", "brent", "sort", delivery_heavy=True, opts={"v_host": 64}
    )
    with pytest.raises(ValueError, match="host width"):
        _run_engine_workload(w, v=16, repeats=1)


def test_engine_workload_parallel_cell_matches_serial_counters():
    w = Workload("sort/hmm", "hmm", "sort", delivery_heavy=True)
    cell_serial = _run_engine_workload(w, v=16, repeats=1)
    cell_par = _run_engine_workload(
        w, v=16, repeats=1, parallel=ParallelConfig(jobs=2, min_work_per_task=1)
    )
    assert cell_par["model_time"] == cell_serial["model_time"]
    assert cell_par["charged_words"] == cell_serial["charged_words"]
    assert cell_par["rounds"] == cell_serial["rounds"]
