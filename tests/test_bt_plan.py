"""The BT charge plan and the shared body pass, against their inline forms.

* The BT engine records its round loop into a cached plan and folds it
  (the plan path); the same loop can run bodies and charges inline.  On
  generated programs the two must agree field by field: ``time``
  bitwise, counters and breakdown item by item, span JSON, contexts,
  rounds, block transfers and the layout trace.
* ``DBSPMachine`` runs array bodies when a program declares them; with
  the array bodies stripped it runs the scalar ones.  Both must give the
  same result, and the ``h <= mu`` degree error must come out unchanged.
* The one plan cache holds every cell of the benchmark's paper
  workload: a second pass over the cells compiles and evicts nothing
  and makes one lookup per cell (warm brent runs do not read vec's
  schedules); threads that record and read plans at once get the
  serial results.
"""

from __future__ import annotations

import re
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dbsp.machine import DBSPMachine
from repro.dbsp.program import Program, Superstep
from repro.engines import build_program
from repro.functions import LogarithmicAccess, PolynomialAccess
from repro.sim.bt_sim import BTSimulator, _BTSimRun
from repro.sim.hmm_sim import HMMSimulator
from repro.sim.kernel import PlanCache, plan_cache_info
from repro.testing import random_program
from tests.hmm_oracle import HMMOracle

FUNCTIONS = [
    PolynomialAccess(0.3),
    PolynomialAccess(0.5),
    PolynomialAccess(0.7),
    LogarithmicAccess(),
]


def _inline(sim: BTSimulator, program: Program):
    with mock.patch.object(_BTSimRun, "_plannable", lambda self: False):
        return sim.simulate(program)


def _fields(res) -> dict:
    return {
        "time": res.time.hex(),
        "counters": list(res.counters.items()),
        "breakdown": [(k, v.hex()) for k, v in res.breakdown.items()],
        "spans": [span.to_json() for span in res.spans],
        "contexts": res.contexts,
        "rounds": res.rounds,
        "block_transfers": res.block_transfers,
        "layout_trace": res.layout_trace,
    }


class TestPlanMatchesInline:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        log_v=st.integers(min_value=0, max_value=6),
        n_steps=st.integers(min_value=1, max_value=10),
        mu=st.sampled_from([1, 2, 4, 8]),
        f=st.sampled_from(FUNCTIONS),
        sort=st.sampled_from(["ams", "transpose"]),
        trace=st.sampled_from(["off", "counters", "phases", "full"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_programs(self, seed, log_v, n_steps, mu, f, sort, trace):
        prog = random_program(1 << log_v, n_steps=n_steps, mu=mu, seed=seed)
        sim = BTSimulator(f, sort=sort, trace=trace, record_layout=True)
        want = _fields(_inline(sim, prog))
        # the first planned run may record the plan, the second reads it
        assert _fields(sim.simulate(prog)) == want
        assert _fields(sim.simulate(prog)) == want

    @pytest.mark.parametrize("name", ["sort", "fft-rec", "matmul", "reduce"])
    def test_bundled_programs(self, name):
        prog = build_program(name, 16)
        sim = BTSimulator(PolynomialAccess(0.5), trace="full")
        assert _fields(sim.simulate(prog)) == _fields(_inline(sim, prog))

    def test_plan_is_recorded_once_per_key(self):
        prog = random_program(8, n_steps=5, seed=11)
        sim = BTSimulator(PolynomialAccess(0.41))
        before = plan_cache_info()
        sim.simulate(prog)
        BTSimulator(PolynomialAccess(0.41), trace="full").simulate(prog)
        after = plan_cache_info()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1

    def test_unhashable_access_function_runs_uncached(self):
        class Unhashable(PolynomialAccess):
            __hash__ = None

        prog = random_program(8, n_steps=4, seed=13)
        sim = BTSimulator(Unhashable(0.5), trace="full")
        want = _fields(_inline(sim, prog))
        assert _fields(sim.simulate(prog)) == want
        assert _fields(sim.simulate(prog)) == want
        vec = HMMSimulator(Unhashable(0.5)).simulate(prog)
        scalar = HMMOracle(Unhashable(0.5)).simulate(prog)
        assert vec.time.hex() == scalar.time.hex()

    def test_ablations_run_inline(self):
        prog = random_program(8, n_steps=4, seed=12)
        before = plan_cache_info()
        BTSimulator(PolynomialAccess(0.5), sort="mergesort").simulate(prog)
        BTSimulator(PolynomialAccess(0.5), chunked_compute=False).simulate(prog)
        after = plan_cache_info()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]


def _run_in_threads(work, n_threads: int) -> None:
    """Run ``work(i)`` for ``i < n_threads`` on as many threads, with a
    tiny switch interval so that an interleaving losing an update is
    likely, and check that every thread finished."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_runs_share_the_plan_cache():
    """Threads recording and reading plans at once get the serial
    results, and the cache counts every lookup exactly once."""
    f = PolynomialAccess(0.37)
    progs = [random_program(16, n_steps=6, seed=seed) for seed in range(4)]
    want = [_fields(_inline(BTSimulator(f), prog)) for prog in progs]
    got: list[tuple[int, dict]] = []
    errors: list[Exception] = []

    def work(i: int) -> None:
        try:
            for k in range(5):
                j = (i + k) % len(progs)
                got.append((j, _fields(BTSimulator(f).simulate(progs[j]))))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    before = plan_cache_info()
    _run_in_threads(work, 8)
    after = plan_cache_info()
    assert not errors
    assert len(got) == 40
    for j, fields in got:
        assert fields == want[j]
    lookups = (after["hits"] + after["misses"]) - (before["hits"] + before["misses"])
    assert lookups == 40


def test_plan_cache_counts_every_lookup_under_threads():
    cache = PlanCache(4)
    n_threads, n_gets = 8, 5000

    def work(i: int) -> None:
        for k in range(n_gets):
            cache.get((i + k) % 6, lambda: object())

    _run_in_threads(work, n_threads)
    info = cache.info()
    assert info["hits"] + info["misses"] == n_threads * n_gets
    assert info["size"] == 4


def _strip_array_bodies(prog: Program) -> Program:
    return prog.replace_supersteps(
        [Superstep(s.label, s.body, s.name) for s in prog.supersteps]
    )


class TestDirectArrayMode:
    @given(
        name=st.sampled_from(["sort", "fft-rec", "fft-dag"]),
        log_v=st.integers(min_value=1, max_value=6),
        f=st.sampled_from(FUNCTIONS),
    )
    @settings(max_examples=30, deadline=None)
    def test_array_mode_equals_per_processor_mode(self, name, log_v, f):
        try:
            prog = build_program(name, 1 << log_v).with_global_sync()
        except ValueError:
            return  # the program needs another machine width
        assert prog.array_schema is not None
        array = DBSPMachine(f).run(prog)
        scalar = DBSPMachine(f).run(_strip_array_bodies(prog))
        assert array.total_time.hex() == scalar.total_time.hex()
        assert array.records == scalar.records
        assert list(array.breakdown.items()) == list(scalar.breakdown.items())
        assert list(array.counters.items()) == list(scalar.counters.items())
        assert array.contexts == scalar.contexts


def _gather_program(v: int, mu: int, array: bool) -> Program:
    """Every processor sends to P0 in superstep 1: P0 receives v > mu."""

    def quiet(view):
        view.charge(1)

    def gather(view):
        view.send(0, view.pid)

    def array_quiet(view):
        view.charge(1)

    def array_gather(view):
        view.send(view.pids * 0, view.pids)

    steps = [
        Superstep(0, quiet, name="quiet",
                  array_body=array_quiet if array else None),
        Superstep(0, gather, name="gather",
                  array_body=array_gather if array else None),
    ]
    return Program(
        v, mu, steps, make_context=lambda pid: {"x": pid},
        array_schema={"x": "i8"} if array else None,
    )


class TestDegreeCheck:
    MESSAGE = re.escape(
        "superstep 1 ('gather'): processor 0 receives 8 messages > mu = 2 "
        "(buffers are part of the context, so h cannot exceed mu)"
    )

    @pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
    def test_degree_violation_error_unchanged(self, array):
        prog = _gather_program(8, 2, array)
        with pytest.raises(ValueError, match=self.MESSAGE):
            DBSPMachine(PolynomialAccess(0.5)).run(prog)

    def test_unvalidated_run_routes_the_relation(self):
        prog = _gather_program(8, 2, array=False)
        res = DBSPMachine(PolynomialAccess(0.5), validate=False).run(prog)
        assert res.records[1].h == 8
        assert res.counters["messages"] == 8


#: the benchmark's paper workload: three engines x three programs x two
#: access functions, each program at its own machine width
PAPER_WIDTHS = {"sort": 64, "fft-rec": 64, "matmul": 16}
PAPER_CELLS = [
    (engine, program, f)
    for engine in ("vec", "bt", "brent")
    for program in PAPER_WIDTHS
    for f in ("x^0.5", "log")
]


def test_paper_cells_stay_resident_in_the_plan_caches():
    def run_all():
        for engine, program, f in PAPER_CELLS:
            repro.run(program, engine, f, v=PAPER_WIDTHS[program])

    run_all()  # warm-up: record whatever is not resident yet
    before = plan_cache_info()
    run_all()
    after = plan_cache_info()
    assert after["max"] == 128 and after["size"] <= 128
    assert after["misses"] == before["misses"]
    assert after["evictions"] == before["evictions"]
    # one hit per cell: brent's fine runs take their Section 3
    # schedules from the cache only when brent's own plan misses
    assert after["hits"] - before["hits"] == len(PAPER_CELLS)
