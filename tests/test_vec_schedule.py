"""The ``vec`` kernel's schedule, compiled once and priced per function.

The Fig. 1 round schedule depends only on ``(v, mu)`` and the smoothed
label and dummy sequence; the access function only prices its charges.
So one cached schedule serves every function:

* generated programs (widths 2 to 64, several ``mu``, dummy steps,
  data-dependent local times and message counts), smoothed alike, run
  under ``f1``, ``f2`` and ``f1`` again on one schedule, each run ``==``
  the scalar kernel on time, contexts, counters and breakdown;
* a second function on a cached shape is one cache hit and builds no
  schedule;
* a function that cannot be hashed still reuses the cached schedule
  (its prices are computed on every call, never kept).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsp.program import Program, Superstep
from repro.functions import LogarithmicAccess, PolynomialAccess
from repro.sim import hmm_vec
from repro.sim.hmm_sim import HMMSimulator
from repro.sim.hmm_vec import plan_cache_info
from repro.sim.smoothing import smooth_program
from repro.testing import random_program

FUNCTIONS = [PolynomialAccess(0.3), PolynomialAccess(0.5), LogarithmicAccess()]
_MOD = (1 << 31) - 1


class _Scatter:
    """Absorb the inbox, charge a data-dependent local time, then send
    0 to 2 (at most ``mu``) messages inside the step's cluster."""

    def __init__(self, label: int, salt: int):
        self.label = label
        self.salt = salt

    def __call__(self, view) -> None:
        w = view.ctx["w"]
        for msg in view.inbox:
            w = (w * 31 + msg.payload + msg.src) % _MOD
        view.ctx["w"] = w
        view.charge((w % 11) / 3)  # inexact: the sums' order shows
        csize = view.v >> self.label
        base = view.pid - view.pid % csize
        for k in range((w + self.salt) % (min(2, view.mu) + 1)):
            view.send(base + (view.pid - base + 1 + k) % csize, (w + k) % _MOD)


@st.composite
def programs(draw) -> Program:
    log_v = draw(st.integers(1, 6))
    mu = draw(st.sampled_from([1, 2, 8]))
    shape = draw(
        st.lists(st.tuples(st.integers(0, log_v), st.booleans()),
                 min_size=1, max_size=8)
    )
    steps = [
        Superstep(label, None if dummy else _Scatter(label, idx))
        for idx, (label, dummy) in enumerate(shape)
    ]
    salt = draw(st.integers(0, 1000))
    return Program(
        1 << log_v, mu, steps,
        make_context=lambda pid: {"w": (pid * 2654435761 + salt) % _MOD},
    )


def _simulate(f, kernel, prog, trace):
    # every label kept: the smoothed program, and so the schedule, is
    # the same under every access function
    label_set = list(range(prog.v.bit_length()))
    return HMMSimulator(f, kernel=kernel, trace=trace).simulate(
        prog, label_set=label_set
    )


@given(
    prog=programs(),
    pair=st.permutations(FUNCTIONS).map(lambda fs: fs[:2]),
    trace=st.sampled_from(["counters", "phases", "full"]),
)
@settings(max_examples=60, deadline=None)
def test_one_schedule_priced_under_each_function(prog, pair, trace):
    f1, f2 = pair
    misses = []
    for f in (f1, f2, f1):
        scalar = _simulate(f, "scalar", prog, trace)
        vec = _simulate(f, "vec", prog, trace)
        misses.append(plan_cache_info()["misses"])
        assert vec.time == scalar.time
        assert vec.contexts == scalar.contexts
        assert vec.counters == scalar.counters
        assert vec.breakdown == scalar.breakdown
        assert vec.rounds == scalar.rounds
    # the first run may have compiled the schedule; the other two share it
    assert misses[2] == misses[1] == misses[0]


def _shape(seed: int) -> Program:
    return random_program(16, n_steps=6, seed=seed)


def _schedule_builds(monkeypatch) -> list:
    builds = []
    build = hmm_vec._build_schedule

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(hmm_vec, "_build_schedule", counted)
    return builds


def test_a_second_function_is_one_hit_and_no_build(monkeypatch):
    prog = _shape(901)
    _simulate(FUNCTIONS[0], "vec", prog, "counters")
    builds = _schedule_builds(monkeypatch)
    before = plan_cache_info()
    vec = _simulate(FUNCTIONS[1], "vec", prog, "counters")
    after = plan_cache_info()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]
    assert builds == []
    assert vec.time == _simulate(FUNCTIONS[1], "scalar", prog, "counters").time


def test_an_unhashable_function_reuses_the_schedule(monkeypatch):
    class Unhashable(PolynomialAccess):
        __hash__ = None

    prog = _shape(902)
    _simulate(FUNCTIONS[0], "vec", prog, "phases")
    builds = _schedule_builds(monkeypatch)
    f = Unhashable(0.4)
    want = _simulate(f, "scalar", prog, "phases")
    for _ in range(2):
        before = plan_cache_info()
        vec = _simulate(f, "vec", prog, "phases")
        assert plan_cache_info()["hits"] == before["hits"] + 1
        assert vec.time.hex() == want.time.hex()
        assert vec.breakdown == want.breakdown
    assert builds == []


@pytest.mark.parametrize("v", [4, 64, 256])
def test_schedule_arrays_are_compact(v):
    """Codes and slot triples take the smallest type that holds them."""
    prog = random_program(v, n_steps=6, seed=7)
    smoothed = smooth_program(prog, list(range(v.bit_length()))).program
    schedule = hmm_vec._build_schedule(v, prog.mu, smoothed.supersteps)
    assert schedule.swaps.shape[1] > 0
    assert schedule.a_code.dtype.itemsize == (1 if v + v.bit_length() < 256
                                              else 2)
    assert schedule.swaps.dtype.itemsize == (1 if v < 256 else 2)
