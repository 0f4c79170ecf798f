"""The ``phases`` breakdown folded from a compiled walk equals the live one.

At ``trace="phases"`` the ``vec``, ``bt`` and ``brent`` engines fold
their breakdown from the tape's compiled span table
(:func:`repro.obs.trace.fold_phases`); at ``trace="full"`` they also
read their spans from that table
(:func:`repro.obs.trace.span_records`).  A live
:class:`~repro.obs.trace.Tracer` keeps the same table over its own
clock samples.  On hand-driven walks and on generated programs with
data-dependent local times the levels must agree bit for bit, in key
order, ``"other"`` (the ±ulp self cost of round spans) included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dbsp.program import Program, Superstep
from repro.obs.trace import Tracer
from repro.sim.kernel import EventRecorder, fold_phases
from repro.testing import random_program


#: one tracer call: ("open", category) | ("leaf", category, n) | ("close",)
_CATEGORIES = st.sampled_from((None, "a", "b", "other"))
_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), _CATEGORIES),
        st.tuples(st.just("leaf"), st.sampled_from(("a", "b", "c")),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("close")),
    ),
    max_size=40,
)


@given(calls=_CALLS, charges=st.lists(
    st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_fold_equals_a_hand_driven_tracer(calls, charges):
    """Any well-nested walk, nested uncategorized spans included: the
    recorder's table folds to the tracer's totals."""
    clk = [0.0]
    for c in charges * 4:
        clk.append(clk[-1] + c)
    pos = 0
    tracer = Tracer(clock=lambda: clk[pos])
    rec = EventRecorder(clock=lambda: pos)
    depth = 0
    for call in calls + [("close",)] * 40:
        if call[0] == "close" and not depth:
            continue
        if call[0] == "leaf":
            end = min(pos + call[2], len(clk) - 1)
            tracer.add_leaf("leaf", call[1], clk[pos], clk[end])
            rec.add_leaf("leaf", call[1], pos, end)
            pos = end
        elif call[0] == "open":
            tracer.open("span", call[1])
            rec.open("span", call[1])
            depth += 1
        else:
            tracer.close()
            rec.close()
            depth -= 1
        pos = min(pos + 1, len(clk) - 1)
    events = rec.table()
    totals = fold_phases(events, clk)
    assert list(totals) == list(tracer.totals)
    assert [x.hex() for x in totals.values()] == [
        x.hex() for x in tracer.totals.values()
    ]


def jittered(prog: Program) -> Program:
    """``prog`` with a data-dependent fractional charge in every body,
    so that clocks and span costs round."""

    def wrap(body):
        def run(view):
            body(view)
            view.charge((view.ctx["w"] % 97) / 7.0)
        return run

    steps = [
        Superstep(s.label, wrap(s.body) if s.body is not None else None,
                  name=s.name)
        for s in prog.supersteps
    ]
    return Program(prog.v, prog.mu, steps, make_context=prog.make_context,
                   name=prog.name)


def breakdowns(engine: str, f: str, prog: Program) -> tuple[dict, dict]:
    phases, full = (
        repro.run(prog, engine, f, trace=trace, baseline=False).breakdown
        for trace in ("phases", "full")
    )
    return phases, full


def assert_same(phases: dict, full: dict) -> None:
    assert list(phases) == list(full)
    assert ("other" in phases) == ("other" in full)
    assert [x.hex() for x in phases.values()] == [
        x.hex() for x in full.values()
    ]


@given(
    engine=st.sampled_from(("vec", "bt", "brent")),
    f=st.sampled_from(("x^0.5", "log", "x^0.3")),
    log_v=st.integers(min_value=0, max_value=6),
    n_steps=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    mu=st.sampled_from((1, 2, 8)),
)
@settings(max_examples=80, deadline=None)
def test_phase_fold_equals_the_live_walk(engine, f, log_v, n_steps, seed, mu):
    prog = jittered(random_program(1 << log_v, n_steps=n_steps, mu=mu,
                                   seed=seed))
    assert_same(*breakdowns(engine, f, prog))


def test_other_is_exercised():
    """Some generated programs leave a nonzero ``other`` total and some
    do not: the property above covers both branches of the key."""
    seen = set()
    for seed in range(40):
        prog = jittered(random_program(16, n_steps=8, seed=seed))
        for engine in ("vec", "bt", "brent"):
            phases, full = breakdowns(engine, "x^0.5", prog)
            assert_same(phases, full)
            seen.add("other" in phases)
    assert seen == {True, False}
