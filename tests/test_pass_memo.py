"""The body pass memoized on the program (``kernel.program_pass``).

What the guest computes depends on neither the access function nor the
engine, so ``vec``, ``bt`` and ``brent`` take a program's body pass from
a memo on the program they run, keyed by its initial contexts and kept
from the program's second run on (a program run once keeps nothing).  On
generated programs (``test_array_pass``'s generator, in both body
forms, and ``repro.testing.random_program``), runs under both engines'
functions, interleaved and repeated, must give exactly what a run of a
freshly built program gives.  What a run hands back is its own: changing
it does not change the next run.  A pass that raises stores nothing, and
a memoized pass cannot be written to.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dbsp.program import Program, Superstep
from repro.engines import build_program
from repro.sim import kernel
from repro.testing import random_program
from tests.test_array_pass import build, specs

ENGINES = ("vec", "bt", "brent")
FUNCTIONS = ("x^0.5", "log")
#: every (engine, f) cell, interleaved, three times over: a program's
#: pass is kept from its second run on, so every cell also makes a hit
ORDER = [(e, f) for f in FUNCTIONS for e in ENGINES] * 3


def check_against_fresh(make) -> None:
    """Each run of one program object equals a run of a fresh ``make()``."""
    program = make()
    for engine, f in ORDER:
        got = repro.run(program, engine, f)
        want = repro.run(make(), engine, f)
        assert got.to_json() == want.to_json(), (engine, f)
        assert got.contexts == want.contexts, (engine, f)


@settings(max_examples=30, deadline=None)
@given(spec=specs(), array=st.booleans())
def test_generated_programs_run_as_fresh_builds(spec, array):
    check_against_fresh(lambda: build(spec, array))


@settings(max_examples=20, deadline=None)
@given(
    log_v=st.integers(1, 5),
    n_steps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_random_programs_run_as_fresh_builds(log_v, n_steps, seed):
    check_against_fresh(
        lambda: random_program(1 << log_v, n_steps, mu=2, seed=seed)
    )


@pytest.mark.parametrize("name", ("sort", "fft-rec", "matmul"))
def test_bundled_programs_run_as_fresh_builds(name):
    check_against_fresh(lambda: build_program(name, 16))


# ------------------------------------------------- what a run hands back
def in_flight_program() -> Program:
    """Every processor sends its ``x`` to its neighbour in the last
    superstep, so the run ends with a message in every inbox."""

    def step(view):
        view.ctx["x"] += view.pid
        view.send(view.pid ^ 1, view.ctx["x"])

    return Program(
        8, 2, [Superstep(0, step, name="step")],
        make_context=lambda pid: {"x": pid, "seen": []},
    )


def boxes(pending) -> list:
    return [[(m.src, m.payload) for m in box] for box in pending]


def test_the_first_run_keeps_nothing():
    program = in_flight_program()
    first, _, _ = kernel.program_pass(program)
    assert program._pass_memo == ()
    assert first.local.flags.writeable
    second, _, _ = kernel.program_pass(program)
    assert second is not first and not second.local.flags.writeable
    assert program._pass_memo[1] is second
    assert kernel.program_pass(program)[0] is second


def test_changing_what_a_pass_returns_does_not_reach_the_memo():
    program = in_flight_program()
    kernel.program_pass(program)  # the first run keeps nothing
    bodies, contexts, pending = kernel.program_pass(program)
    want = ([dict(ctx, seen=[]) for ctx in contexts], boxes(pending))
    assert any(pending)
    for _ in range(3):  # the miss's state, then two hits' own copies
        contexts[0]["x"] = -1
        contexts[1]["seen"].append("changed")
        contexts.append({})
        pending[0].clear()
        pending[1][0].payload = "changed"
        again, contexts, pending = kernel.program_pass(program)
        assert again is bodies  # a memo hit
        assert (contexts, boxes(pending)) == want


@pytest.mark.parametrize("engine", ENGINES)
def test_changing_a_result_does_not_change_the_next_run(engine):
    program = build_program("sort", 16)
    first = repro.run(program, engine, "log")
    want = [dict(ctx) for ctx in first.contexts]
    res = first
    for _ in range(4):  # the unkept run's result, the miss's, two hits'
        for ctx in res.contexts:
            ctx["key"] = -1
        if engine == "vec":
            res.native.pending[0].append("changed")
        res = repro.run(program, engine, "log")
        assert res.contexts == want
        assert res.to_json() == first.to_json()
        if engine == "vec":
            assert res.native.pending == [[] for _ in range(16)]


# ----------------------------------------------------------- no memo
def overflow_program(array: bool) -> Program:
    """Step 1 sends two messages per processor over a ``mu = 1`` buffer."""

    def twice(view):
        view.send(view.pid ^ 1, 0)
        view.send(view.pid ^ 1, 1)

    def array_twice(view):
        view.send(view.pids ^ 1, 0)
        view.send(view.pids ^ 1, 1)

    def quiet(view):
        view.charge(1)

    return Program(
        8, 1,
        [Superstep(0, quiet, name="quiet", array_body=quiet),
         Superstep(0, twice, name="twice", array_body=array_twice)],
        make_context=lambda pid: {"x": pid},
        array_schema={"x": "i8"} if array else None,
    )


@pytest.mark.parametrize("array", (False, True), ids=("scalar", "array"))
def test_a_pass_that_overflows_mu_raises_every_time_and_stores_nothing(array):
    program = overflow_program(array)
    message = "exceeded (its|the) mu=1 outgoing message buffer"
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            kernel.program_pass(program)
        assert not hasattr(program, "_pass_memo")
        for engine in ENGINES:
            with pytest.raises(ValueError, match=message):
                repro.run(program, engine, "x^0.5")
    assert not hasattr(program, "_pass_memo")


def test_contexts_that_cannot_be_compared_run_uncached():
    def step(view):
        view.ctx["x"] = view.ctx["x"] + view.pid
        view.charge(1)

    program = Program(
        4, 2, [Superstep(0, step, name="step")],
        make_context=lambda pid: {"x": np.arange(3)},
    )
    for _ in range(3):
        bodies, contexts, _ = kernel.program_pass(program)
        assert bodies.local.flags.writeable
        assert [ctx["x"].tolist() for ctx in contexts] == [
            [pid, pid + 1, pid + 2] for pid in range(4)
        ]
        assert program._pass_memo == ()  # marked as run, nothing kept


# ----------------------------------------------------- a frozen pass
@pytest.mark.parametrize("engine", ENGINES)
def test_a_memoized_pass_cannot_be_written(engine):
    program = build_program("sort", 16)
    repro.run(program, engine, "x^0.5")  # the first run keeps nothing
    for _ in range(2):
        res = repro.run(program, engine, "x^0.5")
        ran = (
            program.with_global_sync() if engine == "brent"
            else res.native.smoothed.program
        )
        # the pass the engine folded, as kept on the result (its
        # selection onto the original steps), and as memoized
        for bodies in (res.native.body_pass, kernel.program_pass(ran)[0]):
            sent = next(src for src in bodies.src if src is not None)
            for arr in (bodies.local, sent):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0
            with pytest.raises(TypeError):
                bodies.src[0] = None
