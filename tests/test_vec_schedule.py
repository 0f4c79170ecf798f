"""The HMM simulation's schedule, compiled once and priced per function.

The Fig. 1 round schedule depends only on ``(v, mu)`` and the smoothed
label and dummy sequence; the access function only prices its charges.
So one cached schedule serves every function:

* generated programs (widths 2 to 64, several ``mu``, dummy steps,
  data-dependent local times and message counts), smoothed alike, run
  under ``f1``, ``f2`` and ``f1`` again on one schedule, each run ``==``
  the per-charge oracle on time, contexts, counters and breakdown;
* a second function on a cached shape is one cache hit and builds no
  schedule;
* a function that cannot be hashed still reuses the cached schedule
  (its prices are computed on every call, never kept);
* the delivery stream, built in one pass over all of a run's messages,
  is the per-step construction's, charge for charge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsp.program import Program, Superstep
from repro.functions import LogarithmicAccess, PolynomialAccess
from repro.sim import hmm_vec
from repro.sim.hmm_sim import HMMSimulator
from repro.sim.hmm_vec import plan_cache_info
from repro.sim.kernel import interleave2, ranges_concat
from repro.sim.smoothing import smooth_program
from repro.testing import random_program
from tests.hmm_oracle import HMMOracle

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


def _simulate(f, sim, prog, trace):
    # every label kept: the smoothed program, and so the schedule, is
    # the same under every access function
    label_set = list(range(prog.v.bit_length()))
    return sim(f, trace=trace).simulate(prog, label_set=label_set)


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
        scalar = _simulate(f, HMMOracle, prog, trace)
        vec = _simulate(f, HMMSimulator, prog, trace)
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
    _simulate(FUNCTIONS[0], HMMSimulator, prog, "counters")
    builds = _schedule_builds(monkeypatch)
    before = plan_cache_info()
    vec = _simulate(FUNCTIONS[1], HMMSimulator, prog, "counters")
    after = plan_cache_info()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]
    assert builds == []
    assert vec.time == _simulate(FUNCTIONS[1], HMMOracle, prog, "counters").time


def test_an_unhashable_function_reuses_the_schedule(monkeypatch):
    class Unhashable(PolynomialAccess):
        __hash__ = None

    prog = _shape(902)
    _simulate(FUNCTIONS[0], HMMSimulator, prog, "phases")
    builds = _schedule_builds(monkeypatch)
    f = Unhashable(0.4)
    want = _simulate(f, HMMOracle, prog, "phases")
    for _ in range(2):
        before = plan_cache_info()
        vec = _simulate(f, HMMSimulator, prog, "phases")
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


# ----------------------------------------------------- delivery stream
def _delivery_stream_per_step(plan, wc, step_src, step_dest):
    """The per-step construction the one-pass stream replaced, kept as
    its oracle: charge each step's messages in step order, find every
    round's pid-range slice with two ``searchsorted``s, then gather the
    slices into round order."""
    b_len = np.zeros(plan.R, dtype=np.int64)
    b_start = np.zeros(plan.R, dtype=np.int64)
    parts = []
    base = 0
    for s in range(plan.n_steps):
        rounds_idx = np.flatnonzero((plan.step == s) & ~plan.dummy)
        src = step_src[s]
        if src is None or not len(rounds_idx):
            continue
        dest = step_dest[s]
        csize = int(plan.slot_mask[s]) + 1
        inter = interleave2(wc[src & (csize - 1)], wc[dest & (csize - 1)])
        firsts = plan.first[rounds_idx]
        lo = np.searchsorted(src, firsts)
        hi = np.searchsorted(src, firsts + csize)
        b_len[rounds_idx] = 2 * (hi - lo)
        b_start[rounds_idx] = base + 2 * lo
        parts.append(inter)
        base += len(inter)
    if not parts:
        return np.empty(0, dtype=np.float64), b_len
    return np.concatenate(parts)[ranges_concat(b_start, b_len)], b_len


@st.composite
def sent_schedules(draw):
    """A smoothed schedule (v up to 256, dummy steps) and one run's
    sends: per step, each processor sends 0 to ``mu`` messages inside
    its cluster, pid-major; some steps send nothing."""
    log_v = draw(st.integers(1, 8))
    v = 1 << log_v
    mu = draw(st.sampled_from([1, 2, 3]))
    shape = draw(
        st.lists(st.tuples(st.integers(0, log_v), st.booleans()),
                 min_size=1, max_size=8)
    )
    prog = Program(v, mu, [
        Superstep(label, None if dummy else _Scatter(label, 0))
        for label, dummy in shape
    ])
    steps = smooth_program(prog, list(range(v.bit_length()))).program.supersteps
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    silent = draw(st.lists(st.booleans(), min_size=len(steps),
                           max_size=len(steps)))
    step_src, step_dest = [], []
    for step, quiet in zip(steps, silent):
        counts = rng.integers(0, mu + 1, size=v)
        if step.body is None or quiet or not counts.any():
            step_src.append(None)
            step_dest.append(None)
            continue
        csize = v >> step.label
        src = np.repeat(np.arange(v, dtype=np.int64), counts)
        step_src.append(src)
        step_dest.append((src & -csize) + rng.integers(0, csize, len(src)))
    return hmm_vec._build_schedule(v, mu, steps), step_src, step_dest


@given(sent=sent_schedules())
@settings(max_examples=200, deadline=None)
def test_one_pass_delivery_stream_matches_per_step(sent):
    plan, step_src, step_dest = sent
    # distinct, inexact slot charges: any reordering shows
    wc = 1.0 + np.arange(plan.v) / 3.0
    got, got_len = hmm_vec._delivery_stream(plan, wc, step_src, step_dest)
    want, want_len = _delivery_stream_per_step(
        plan, wc, step_src, step_dest
    )
    assert np.array_equal(got_len, want_len)
    assert np.array_equal(got, want)
