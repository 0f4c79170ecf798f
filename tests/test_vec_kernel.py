"""The compiled Fig. 1 scheduler: bit-identity, composition, contract.

The HMM simulation's whole claim is *exact* equivalence with the round
loop that charges one access at a time (``tests/hmm_oracle.py``) —
``==`` on charged time, counters, breakdowns, contexts, spans and
round snapshots, not ``approx``.  These tests pin that claim across
trace levels, inside Brent fine runs, and with fault injection armed;
they also exercise the array-kernel contract errors and the primitives
(`deliver_sorted`, the plan cache, the access-function ufunc cache) the
kernel is built from.
"""

from __future__ import annotations

import warnings
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsp.machine import DBSPMachine
from repro.dbsp.program import Message
from repro.engines import ENGINES, build_program, run
from repro.functions import (
    AccessFunction,
    LogarithmicAccess,
    PolynomialAccess,
    VectorizationWarning,
)
from repro.sim.brent import BrentSimulator
from repro.sim.hmm_sim import HMMSimulator
from repro.sim.hmm_vec import plan_cache_info
from repro.sim.kernel import ArrayView, deliver_sorted, interleave2, ranges_concat
from repro.testing import random_program
from tests.conftest import ACCESS_FUNCTIONS, program_zoo
from tests.hmm_oracle import HMMOracle

F = PolynomialAccess(0.5)


def scalar_vs_vec(prog, f=F, trace="counters", **opts):
    """Run one program on the oracle and the simulator, same options."""
    s = HMMOracle(f, trace=trace, **opts).simulate(prog)
    v = HMMSimulator(f, trace=trace, **opts).simulate(prog)
    return s, v


def assert_identical(s, v):
    """``==`` everywhere — the simulator promises bit-identity."""
    assert v.time == s.time
    assert v.rounds == s.rounds
    assert v.contexts == s.contexts
    assert v.counters == s.counters
    assert v.breakdown == s.breakdown
    assert v.spans == s.spans
    assert v.trace == s.trace


# ------------------------------------------------------------ equivalence
class TestZooEquivalence:
    """Every library program, every trace level, several access functions."""

    @pytest.mark.parametrize("opts", [
        {"trace": "off"}, {"trace": "counters"}, {"trace": "phases"},
        {"trace": "full"},
        # Figure 2's data, with the contiguity check on every round
        {"record_trace": True, "check_invariants": "full"},
    ], ids=["off", "counters", "phases", "full", "snapshots"])
    def test_zoo_bit_identical(self, opts):
        for prog, _ in program_zoo(16):
            s, v = scalar_vs_vec(prog, **opts)
            assert_identical(s, v)

    @pytest.mark.parametrize("f", ACCESS_FUNCTIONS, ids=lambda f: f.name)
    def test_zoo_across_access_functions(self, f):
        for prog, _ in program_zoo(16)[:4]:  # the algorithmic programs
            s, v = scalar_vs_vec(prog, f=f)
            assert_identical(s, v)

    @pytest.mark.parametrize("name", ["sort", "fft-rec", "fft-dag"])
    def test_vec_engine_matches_all_scalar_engines(self, name):
        """The registry-level check: vec agrees with hmm exactly and
        with every other engine on the computed contexts."""
        vec = run(name, engine="vec", v=16, baseline=False)
        hmm = run(name, engine="hmm", v=16, baseline=False)
        assert vec.time == hmm.time
        assert vec.counters == hmm.counters
        assert vec.breakdown == hmm.breakdown
        assert vec.contexts == hmm.contexts
        for other in ("direct", "bt", "brent"):
            res = run(name, engine=other, v=16, baseline=False)
            assert vec.contexts == res.contexts, other


class TestPropertyEquivalence:
    """Seeded random programs (scalar bodies → the per-pid vec path)."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        log_v=st.integers(2, 5),
        n_steps=st.integers(1, 6),
    )
    def test_random_programs_bit_identical(self, seed, log_v, n_steps):
        prog = random_program(1 << log_v, n_steps=n_steps, seed=seed)
        s, v = scalar_vs_vec(prog, trace="full")
        assert_identical(s, v)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_programs_match_direct(self, seed):
        prog = random_program(16, n_steps=4, seed=seed)
        want = [c["w"] for c in DBSPMachine(F).run(prog.with_global_sync()).contexts]
        v = HMMSimulator(F).simulate(prog)
        assert [c["w"] for c in v.contexts] == want


class TestComposition:
    """The kernel composes with Brent fine runs."""

    @pytest.mark.parametrize("name", ["sort", "fft-rec", "matmul"])
    def test_one_host_brent_is_the_scalar_hmm_simulation(self, name):
        """At ``v' = 1`` the whole program is one fine run, folded from
        vec's tape: it must charge what the oracle charges."""
        prog = build_program(name, 16)
        brent = BrentSimulator(F, v_host=1).simulate(prog)
        hmm = HMMOracle(F).simulate(prog)
        assert brent.time.hex() == hmm.time.hex()
        assert brent.counters == hmm.counters
        assert brent.contexts == hmm.contexts
        assert brent.breakdown == {
            "compute": 0.0, "communication": 0.0, "filing": 0.0,
            "fine": hmm.time,
        }


class TestKernelSelection:
    """One simulator under two engine names, and its option checks."""

    @pytest.mark.parametrize("opts,fragment", [
        ({"trace": "count"}, "trace level"),
        ({"check_invariants": "ful"}, "check_invariants"),
    ], ids=["trace", "check_invariants"])
    def test_unknown_option_values_rejected(self, opts, fragment):
        with pytest.raises(ValueError, match=fragment):
            HMMSimulator(F, **opts)

    def test_vec_engine_registered(self):
        assert "vec" in ENGINES
        assert "vec" in ENGINES["vec"].description.lower()


class TestPlanCache:
    def test_plan_is_reused_and_bounded(self):
        prog = build_program("sort", 16)
        HMMSimulator(F).simulate(prog)
        size_after_first = plan_cache_info()["size"]
        HMMSimulator(F).simulate(prog)
        info = plan_cache_info()
        assert info["size"] == size_after_first  # second run hit the cache
        assert info["size"] <= info["max"]

    def test_cache_never_exceeds_max(self):
        for v in (4, 8, 16, 32):
            for seed in (1, 2, 3):
                prog = random_program(v, n_steps=2, seed=seed)
                HMMSimulator(F).simulate(prog)
        info = plan_cache_info()
        assert info["size"] <= info["max"]


# ----------------------------------------------------------------- chaos
class TestChaosCleanRuns:
    """REPRO_FAULTS armed: the simulator keeps its bit-identity promise
    (mirrors TestGuardsStayQuietOnCorrectEngine)."""

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_faults_env_does_not_perturb_results(
        self, seed, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", f"seed={seed},kill=1.0,dir={tmp_path / 'marks'}"
        )
        prog = random_program(16, n_steps=4, seed=seed)
        want = [c["w"] for c in DBSPMachine(F).run(prog.with_global_sync()).contexts]
        s, v = scalar_vs_vec(prog, trace="full")
        assert_identical(s, v)
        assert [c["w"] for c in v.contexts] == want


# ------------------------------------------------------------ primitives
class TestDeliverSorted:
    def _reference(self, n_pids, outgoing, pending=None):
        pending = pending or [[] for _ in range(n_pids)]
        for dest, msg in outgoing:
            insort(pending[dest], msg)
        return pending

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(0, 60),
        seed=st.integers(0, 2**16),
    )
    def test_matches_insort_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        n_pids = 8
        outgoing = [
            (int(rng.integers(n_pids)), Message(int(rng.integers(n_pids)), i))
            for i in range(n)
        ]
        want = self._reference(n_pids, outgoing)
        got = [[] for _ in range(n_pids)]
        deliver_sorted(got, list(outgoing))
        assert got == want

    def test_nonempty_inbox_fallback_keeps_tie_order(self):
        """Pre-existing messages with equal src sort before the batch,
        the insort_right tie order."""
        n_pids, src = 4, 2
        pending = [[Message(src, "old")] for _ in range(n_pids)]
        outgoing = [(d, Message(src, f"new{i}")) for i in range(20) for d in range(n_pids)]
        want = self._reference(
            n_pids, outgoing, [list(box) for box in pending]
        )
        deliver_sorted(pending, outgoing)
        assert pending == want

    def test_small_batch_uses_insort_path(self):
        pending = [[], []]
        deliver_sorted(pending, [(1, Message(0, "a")), (0, Message(1, "b"))])
        assert pending == [[Message(1, "b")], [Message(0, "a")]]


class TestArrayViewContract:
    def _view(self, n=4, v=4, mu=2, label=0):
        return ArrayView(
            np.arange(n),
            v,
            mu,
            label,
            {"key": np.zeros(n)},
            None,
            None,
        )

    def test_send_must_be_full_width(self):
        view = self._view()
        with pytest.raises(ValueError, match="full-width"):
            view.send(np.array([0, 1]), np.zeros(2))

    def test_send_rejects_out_of_range_dest(self):
        view = self._view()
        with pytest.raises(ValueError, match="destination outside"):
            view.send(np.array([0, 1, 2, 4]), np.zeros(4))

    def test_send_rejects_cross_cluster(self):
        view = self._view(label=1)  # clusters {0,1} and {2,3}
        with pytest.raises(ValueError, match="cluster boundary"):
            view.send(np.array([2, 3, 0, 1]), np.zeros(4))

    def test_send_respects_mu(self):
        view = self._view(mu=1)
        dest = np.array([1, 0, 3, 2])
        view.send(dest, np.zeros(4))
        with pytest.raises(ValueError, match="mu=1"):
            view.send(dest, np.zeros(4))

    def test_negative_charge_rejected(self):
        view = self._view()
        with pytest.raises(ValueError, match="negative"):
            view.charge(-1.0)
        with pytest.raises(ValueError, match="negative"):
            view.charge(np.array([1.0, 1.0, -0.5, 1.0]))

    @pytest.mark.parametrize(
        "t", [-1, np.float64(-0.5), np.int64(-1), np.array(-1.0)],
        ids=["int", "float64", "int64", "0-d array"],
    )
    def test_negative_charge_rejected_in_every_form(self, t):
        view = self._view()
        with pytest.raises(ValueError, match="negative"):
            view.charge(t)
        assert view.local_time.tolist() == [1.0] * 4

    def test_send_rejects_negative_dest(self):
        view = self._view()
        with pytest.raises(ValueError, match="destination outside"):
            view.send(np.array([1, 0, 3, -1]), np.zeros(4))

    def test_charge_forms_add_the_same_floats(self):
        """A plain scalar, a numpy scalar and an array of one amount
        leave the same local times, bit for bit."""
        amounts = [3, 0.1, 0.2, 2, 1e-17]
        forms = {
            "python": lambda a: a,
            "numpy scalar": lambda a: np.asarray(a)[()],
            "0-d array": np.asarray,
            "per-processor": lambda a: np.full(4, a),
        }
        want = 1.0
        for a in amounts:
            want += a
        for name, form in forms.items():
            view = self._view()
            for a in amounts:
                view.charge(form(a))
            assert [x.hex() for x in view.local_time.tolist()] == (
                [want.hex()] * 4
            ), name

    def test_ranges_concat_matches_python(self):
        starts = [3, 0, 7, 7]
        lengths = [2, 0, 3, 1]
        want = np.concatenate(
            [np.arange(s, s + l) for s, l in zip(starts, lengths)]
        )
        assert (ranges_concat(starts, lengths) == want).all()
        assert ranges_concat([], []).size == 0

    def test_interleave2(self):
        out = interleave2(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        assert out.tolist() == [1.0, 2.0, 3.0, 4.0]


# ------------------------------------------------- access-function ufunc
class TestEvaluateFallbackCache:
    class _Slow(AccessFunction):
        name = "slow"

        def __call__(self, x: float) -> float:
            return float(x) ** 0.5

    def test_warns_exactly_once_per_instance(self):
        f = self._Slow()
        xs = np.arange(4.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = f.evaluate(xs)
            second = f.evaluate(xs)
        vec_warnings = [
            w for w in caught if issubclass(w.category, VectorizationWarning)
        ]
        assert len(vec_warnings) == 1
        assert (first == second).all()
        assert (first == np.sqrt(xs)).all()

    def test_fresh_instance_warns_again(self):
        with pytest.warns(VectorizationWarning):
            self._Slow().evaluate(np.arange(3.0))

    def test_overriding_subclasses_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", VectorizationWarning)
            PolynomialAccess(0.5).evaluate(np.arange(8.0))
            LogarithmicAccess().evaluate(np.arange(1.0, 9.0))
