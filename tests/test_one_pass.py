"""One body pass per ``repro.run`` call.

``vec``, ``bt`` and ``brent`` run every processor body once, in the
shared superstep-major pass, and ``repro.run`` folds the direct
baseline from that pass instead of running the bodies again.  These
tests count the passes (``run_bodies`` wrapped where each module looks
it up, and the bodies themselves), check that the folded baseline is
the one the separate direct run charges, that every case without a
usable pass still makes the separate run, and that the errors of the
direct run come out of ``repro.run`` unchanged.
"""

from __future__ import annotations

import re

import pytest

import repro
from repro.dbsp import machine as dbsp_machine
from repro.dbsp.machine import DBSPMachine
from repro.dbsp.program import Program, Superstep
from repro.engines import ENGINES, build_program, resolve_access_function
from repro.obs.trace import Tracer
from repro.sim import brent, bt_sim, hmm_vec, kernel

PASS_MODULES = {"vec": hmm_vec, "bt": bt_sim, "brent": brent}
PROGRAMS = ("sort", "fft-rec", "matmul", "listrank", "random")


@pytest.fixture
def passes(monkeypatch):
    """Names of the modules that ran a ``run_bodies`` pass, in order."""
    calls: list[str] = []
    for module in (*PASS_MODULES.values(), dbsp_machine):
        def counted(*args, _name=module.__name__, **kwargs):
            calls.append(_name)
            return kernel.run_bodies(*args, **kwargs)

        monkeypatch.setattr(module, "run_bodies", counted)
    return calls


@pytest.fixture
def tracer_calls(monkeypatch):
    """Every ``Tracer.open``/``add_leaf``/``close`` call, by name."""
    calls: list[str] = []
    for name in ("open", "add_leaf", "close"):
        original = getattr(Tracer, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Tracer, name, counted)
    return calls


def separate_run(program, engine, f, **opts):
    """What ``repro.run`` returned before it folded baselines: the
    engine's result with the direct run's time made separately."""
    f = resolve_access_function(f)
    if isinstance(program, str):
        program = build_program(program, 16)
    result = ENGINES[engine].run(program, f, **opts)
    guest = DBSPMachine(f).run(program.with_global_sync())
    result.baseline_time = guest.total_time
    result.slowdown = (
        result.time / guest.total_time if guest.total_time > 0 else None
    )
    return result


@pytest.mark.parametrize("engine", sorted(PASS_MODULES))
@pytest.mark.parametrize("program", PROGRAMS)
def test_default_run_makes_one_body_pass(engine, program, passes, tracer_calls):
    res = repro.run(program, engine, "x^0.5", v=16)
    assert passes == [PASS_MODULES[engine].__name__]
    assert tracer_calls == []
    assert res.to_json() == separate_run(program, engine, "x^0.5").to_json()


@pytest.mark.parametrize("engine", sorted(PASS_MODULES))
@pytest.mark.parametrize("program", ("sort", "fft-rec", "matmul"))
def test_full_trace_makes_no_tracer_call(engine, program, tracer_calls):
    """At ``full`` the spans are read from the tape's span table over
    the folded clock, not walked through a tracer span by span."""
    res = repro.run(program, engine, "x^0.5", v=16, trace="full")
    assert res.trace
    assert tracer_calls == []


@pytest.mark.parametrize("engine", sorted(PASS_MODULES))
@pytest.mark.parametrize("f", ("x^0.5", "log"))
@pytest.mark.parametrize("trace", ("off", "counters", "phases", "full"))
def test_folded_baseline_equals_the_direct_run(engine, f, trace):
    for program in PROGRAMS:
        folded = repro.run(program, engine, f, v=16, trace=trace)
        separate = separate_run(program, engine, f, trace=trace)
        assert folded.to_json() == separate.to_json()
        assert folded.baseline_time.hex() == separate.baseline_time.hex()


def test_fold_is_the_run_without_contexts():
    g = resolve_access_function("log")
    for name in PROGRAMS:
        prog = build_program(name, 16).with_global_sync()
        machine = DBSPMachine(g)
        direct = machine.run(prog)
        pass_ = kernel.run_bodies(
            prog, prog.initial_contexts(), [[] for _ in range(prog.v)]
        )
        folded = machine.fold(prog, pass_)
        assert folded.contexts == []
        folded.contexts = direct.contexts
        assert folded == direct


def test_fold_charges_the_larger_of_send_and_receive_degree():
    """h is the most messages any processor sends *or* receives."""

    def scatter(view):
        if view.pid == 0:
            for dest in range(1, 5):
                view.send(dest, dest)

    def gather(view):
        if view.pid < 3:
            view.send(7, view.pid)

    prog = Program(8, 8, [
        Superstep(0, scatter, name="scatter"),
        Superstep(0, gather, name="gather"),
    ])
    g = resolve_access_function("x^0.5")
    res = DBSPMachine(g).run(prog)
    assert [rec.h for rec in res.records] == [4, 3]
    assert res.counters["max_h"] == 4
    assert res.records[0].cost == 1.0 + 4 * g(8 * 8)


# ----------------------------------------------------------- fallbacks
def counting_program(v: int = 16) -> tuple[Program, list[int]]:
    """The bundled sort with scalar bodies that count their calls."""
    base = build_program("sort", v)
    calls = [0]

    def counted(body):
        def run(view):
            calls[0] += 1
            body(view)
        return run

    steps = [
        Superstep(s.label, counted(s.body) if s.body is not None else None,
                  name=s.name)
        for s in base.supersteps
    ]
    prog = Program(v, base.mu, steps, make_context=base.make_context,
                   name=base.name)
    return prog, calls


FALLBACKS = {
    "bt-mergesort": ("bt", {"sort": "mergesort"}),
    "bt-unchunked": ("bt", {"chunked_compute": False}),
    "brent-vh-v": ("brent", {"v_host": 16}),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallbacks_make_the_separate_direct_run(case, passes):
    engine, opts = FALLBACKS[case]
    prog, calls = counting_program()
    n_body = sum(1 for s in prog.supersteps if s.body is not None)
    res = repro.run(prog, engine, "x^0.5", **opts)
    assert res.native.body_pass is None
    assert calls[0] == 2 * n_body * prog.v  # two body passes
    assert passes[-1] == dbsp_machine.__name__
    calls[0] = 0
    assert res.to_json() == separate_run(prog, engine, "x^0.5", **opts).to_json()


@pytest.mark.parametrize("engine", sorted(PASS_MODULES))
def test_default_run_executes_each_body_once(engine):
    prog, calls = counting_program()
    n_body = sum(1 for s in prog.supersteps if s.body is not None)
    repro.run(prog, engine, "x^0.5")
    assert calls[0] == n_body * prog.v


# ------------------------------------------------------- error parity
def gather_program(v: int, mu: int, array: bool) -> Program:
    """Every processor sends to P0 in superstep 1: P0 receives v > mu."""

    def quiet(view):
        view.charge(1)

    def gather(view):
        view.send(0, view.pid)

    def array_gather(view):
        view.send(view.pids * 0, view.pids)

    steps = [
        Superstep(0, quiet, name="quiet",
                  array_body=quiet if array else None),
        Superstep(0, gather, name="gather",
                  array_body=array_gather if array else None),
    ]
    return Program(
        v, mu, steps, make_context=lambda pid: {"x": pid},
        array_schema={"x": "i8"} if array else None,
    )


def crossing_program(label: int, array: bool, v: int = 16) -> Program:
    """A ``label``-superstep whose sends leave their ``label``-cluster
    but stay inside the enclosing ``(label - 1)``-cluster."""
    flip = v >> label

    def cross(view):
        view.send(view.pid ^ flip, view.ctx["x"])

    def array_cross(view):
        view.send(view.pids ^ flip, view.ctx["x"])

    def absorb(view):
        for x in view.received():
            view.ctx["x"] += x

    def array_absorb(view):
        if view.inbox_src is not None:
            view.ctx["x"] = view.ctx["x"] + view.inbox_payload

    steps = [
        Superstep(label, cross, name="cross",
                  array_body=array_cross if array else None),
        Superstep(0, absorb, name="absorb",
                  array_body=array_absorb if array else None),
    ]
    return Program(
        v, 8, steps, make_context=lambda pid: {"x": pid},
        array_schema={"x": "i8"} if array else None,
    )


#: a label outside each engine's label set at v=16 under x^0.5 (vec
#: {0, 3, 4}, bt {0, 2, 4}): smoothing coarsens it, so the engine's own
#: pass lets the crossing send through.  Brent's pass runs the original
#: labels and raises by itself.
CROSS_LABEL = {"vec": 2, "bt": 3, "brent": 2}

GATHER_ERROR = (
    ValueError,
    "superstep 1 ('gather'): processor 0 receives 8 messages > mu = 2 "
    "(buffers are part of the context, so h cannot exceed mu)",
)
#: array inboxes hold one message: the engine's own pass refuses first
GATHER_ARRAY_ERROR = (
    RuntimeError,
    "array step 'gather' delivered multiple messages to one processor — "
    "aligned array inboxes require at most one; use the scalar body for "
    "this program",
)


def cross_error(label: int, array: bool) -> tuple[type, str]:
    if array:
        return ValueError, f"send crosses a {label}-cluster boundary"
    flip = 16 >> label
    return ValueError, (
        f"processor 0 cannot reach {flip} in a {label}-superstep "
        f"(different {label}-clusters)"
    )


@pytest.mark.parametrize("engine", sorted(PASS_MODULES))
@pytest.mark.parametrize("array", (False, True), ids=("scalar", "array"))
def test_degree_error_is_the_direct_runs(engine, array):
    error, message = GATHER_ARRAY_ERROR if array else GATHER_ERROR
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        repro.run(gather_program(8, 2, array), engine, "x^0.5")


@pytest.mark.parametrize("engine", sorted(PASS_MODULES))
@pytest.mark.parametrize("array", (False, True), ids=("scalar", "array"))
def test_crossing_error_is_the_direct_runs(engine, array):
    label = CROSS_LABEL[engine]
    prog = crossing_program(label, array)
    if engine != "brent":
        # the simulation alone accepts the send: only the baseline's
        # separate direct run raises
        repro.run(prog, engine, "x^0.5", baseline=False)
    error, message = cross_error(label, array)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        repro.run(prog, engine, "x^0.5")


def test_unvalidated_machine_accepts_a_degree_above_mu():
    prog = gather_program(8, 2, array=False).with_global_sync()
    pass_ = kernel.run_bodies(
        prog, prog.initial_contexts(), [[] for _ in range(prog.v)]
    )
    g = resolve_access_function("x^0.5")
    assert not DBSPMachine(g).reproduces(prog, pass_)
    assert DBSPMachine(g, validate=False).reproduces(prog, pass_)
