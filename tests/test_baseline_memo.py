"""The direct baseline's send side, memoized per send pattern.

``DBSPMachine.fold`` and ``reproduces`` count a pass's messages once
per pattern and keep the last one on the (normalized) program.  One
program here sends a data-dependent pattern: its initial contexts are
read from a box the test refills, so consecutive runs of the same
program object alternate patterns.  Every baseline, on a first or a
repeat call of its pattern, must equal a separate direct run of a
fresh build field for field; a pass that breaks a rule must raise on
every call.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dbsp import machine as dbsp_machine
from repro.dbsp.machine import DBSPMachine
from repro.dbsp.program import Program, Superstep
from repro.engines import resolve_access_function
from tests.test_one_pass import crossing_program, gather_program

V, MU = 16, 4
#: the label of the data-dependent step: its 2-clusters hold 4
#: processors, and vec's label sets at v=16 leave it out, so vec's own
#: pass coarsens it and lets a crossing send through
LABEL = 2
FUNCTIONS = ("x^0.5", "log")


def pattern_program(box: list) -> Program:
    """Processor ``p`` sends to ``p ^ d`` (``d = box[0][p]``; ``0``
    sends nothing) in a ``LABEL``-superstep, then everyone adds up what
    it got and sends one more message inside its 3-cluster."""

    def scatter(view):
        d = view.ctx["d"]
        if d:
            view.send(view.pid ^ d, view.pid)
        view.charge(d)

    def absorb(view):
        view.ctx["s"] = sum(view.received())
        view.charge(len(view.inbox))
        view.send(view.pid ^ 1, view.ctx["s"])

    def close(view):
        view.ctx["s"] += sum(view.received())

    return Program(V, MU, [
        Superstep(LABEL, scatter, name="scatter"),
        Superstep(3, absorb, name="absorb"),
        Superstep(0, close, name="close"),
    ], make_context=lambda pid: {"d": box[0][pid], "s": 0})


def breaks_a_rule(pattern: list[int]) -> bool:
    """A send leaving its 2-cluster, or more than MU to one processor."""
    if any(d >= V >> LABEL for d in pattern):
        return True
    received = [0] * V
    for pid, d in enumerate(pattern):
        if d:
            received[pid ^ d] += 1
    return max(received) > MU


def direct_baseline(program: Program, f, bodies) -> dbsp_machine.DBSPRunResult:
    """The full direct run whose total ``repro.run`` keeps as the
    baseline: folded from ``bodies`` when the pass stands for one, else
    run separately."""
    normalized = program.with_global_sync()
    machine = DBSPMachine(f)
    if bodies is not None and machine.reproduces(normalized, bodies):
        return machine.fold(normalized, bodies)
    return machine.run(normalized)


def fields(res) -> tuple:
    return res.total_time, res.records, res.breakdown, res.counters


patterns = st.lists(
    st.lists(st.integers(0, V - 1), min_size=V, max_size=V),
    min_size=1, max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(drawn=patterns, legal=st.booleans())
def test_memoized_baseline_is_the_direct_run(drawn, legal):
    if legal:  # fold each offset into the 2-cluster and under the cap
        drawn = [[d % (V >> LABEL) for d in p] for p in drawn]
        drawn = [p if not breaks_a_rule(p) else [0] * V for p in drawn]
    box = [drawn[0]]
    program = pattern_program(box)
    for f_spec in FUNCTIONS:
        f = resolve_access_function(f_spec)
        # each pattern twice in a row (a repeat call), the list twice
        # (patterns alternate, so the one resident memo is replaced)
        for pattern in [p for p in drawn for _ in range(2)] * 2:
            box[0] = pattern
            fresh = pattern_program([pattern]).with_global_sync()
            if breaks_a_rule(pattern):
                with pytest.raises(ValueError) as direct:
                    DBSPMachine(f).run(fresh)
                with pytest.raises(ValueError) as served:
                    repro.run(program, "vec", f)
                assert str(served.value) == str(direct.value)
                continue
            want = DBSPMachine(f).run(fresh)
            res = repro.run(program, "vec", f, baseline=False)
            got = direct_baseline(program, f, res.native.body_pass)
            assert fields(got) == fields(want)
            assert got.contexts == []  # folded, not run again


def test_a_repeat_pattern_is_not_counted_again(monkeypatch):
    counted: list[int] = []
    real = dbsp_machine._count_sends

    def count(counted_program, bodies):
        if counted_program is program:  # not the fresh builds below
            counted.append(1)
        return real(counted_program, bodies)

    monkeypatch.setattr(dbsp_machine, "_count_sends", count)
    a = [1, 1, 0, 0] * 4
    b = [2, 0, 2, 0] * 4
    box = [a]
    program = pattern_program(box)
    assert program.with_global_sync() is program
    for f_spec, pattern, expect in (
        ("x^0.5", a, 1), ("log", a, 1), ("x^0.5", b, 2), ("log", b, 2),
        ("x^0.5", a, 3),
    ):
        box[0] = pattern
        res = repro.run(program, "vec", f_spec)
        assert len(counted) == expect, (f_spec, pattern)
        want = repro.run(pattern_program([pattern]), "vec", f_spec)
        assert res.to_json() == want.to_json()


@pytest.mark.parametrize("engine", ("vec", "bt", "brent"))
@pytest.mark.parametrize("array", (False, True), ids=("scalar", "array"))
def test_rule_breaking_passes_raise_on_every_call(engine, array):
    crossing = crossing_program({"vec": 2, "bt": 3, "brent": 2}[engine], array)
    gather = gather_program(8, 2, array)
    for _ in range(3):
        for program in (crossing, gather):
            with pytest.raises((ValueError, RuntimeError)):
                repro.run(program, engine, "x^0.5")
