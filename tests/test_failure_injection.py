"""Failure injection: do the runtime invariant checks catch real bugs?

Each test plants a specific scheduling defect into an engine — a skipped
cluster swap, out-of-order delivery, corrupted slot bookkeeping — and
asserts that the corresponding guard (Theorem 4's Invariants 1/2, the BT
layout assertions, or the end-to-end equivalence check) trips.  This is
what makes the invariant machinery trustworthy rather than decorative.
"""

from __future__ import annotations

import pytest

import repro.sim.bt_sim as bt_sim_module
import repro.sim.hmm_vec as hmm_vec
import tests.hmm_oracle as oracle_module
from repro.dbsp.machine import DBSPMachine
from repro.functions import PolynomialAccess
from repro.sim import kernel
from repro.sim.bt_sim import BTSimulator, _BTSimRun
from repro.sim.hmm_sim import HMMSimulator
from repro.testing import random_program
from tests.hmm_oracle import HMMOracle, _OracleRun

F = PolynomialAccess(0.5)


@pytest.fixture
def fresh_plans(monkeypatch):
    """An empty plan cache for one case: the planted defect walks the
    schedule, and no schedule it built outlives the case."""
    monkeypatch.setattr(kernel, "PLANS", kernel.PlanCache(kernel.PLANS.maxsize))


@pytest.mark.usefixtures("fresh_plans")
class TestHMMSimInjection:
    """Defects planted in the schedule walk every HMM simulation runs
    (:func:`repro.sim.hmm_vec._build_schedule`)."""

    def test_skipped_cycle_swap_trips_invariant(self, monkeypatch):
        def buggy(labels, s, first, csize):
            j = first // csize & ((1 << labels[s] - labels[s + 1]) - 1)
            # BUG: the second swap (bring C_{j+1} up) is dropped
            return [(0, j * csize, csize)] if j > 0 else []

        monkeypatch.setattr(hmm_vec, "_step4_swaps", buggy)
        prog = random_program(16, labels=[2, 0], seed=1)
        with pytest.raises(AssertionError, match="Invariant"):
            HMMSimulator(F, check_invariants="top").simulate(
                prog, label_set=[0, 1, 2, 3, 4]
            )

    def test_skipped_first_swap_trips_invariant(self, monkeypatch):
        def buggy(labels, s, first, csize):
            # BUG: always swap with the adjacent home, never restore C0
            # (indistinguishable from correct behaviour in b=2 cycles,
            # so the label set below forces a b=4 cycle)
            return [(0, csize, csize)]

        monkeypatch.setattr(hmm_vec, "_step4_swaps", buggy)
        prog = random_program(16, labels=[2, 2, 0], seed=2)
        with pytest.raises(AssertionError, match="Invariant"):
            HMMSimulator(F, check_invariants="top").simulate(
                prog, label_set=[0, 2, 4]
            )

    def test_early_delivery_breaks_equivalence(self, monkeypatch):
        """Messages delivered within the same superstep (a classic BSP
        bug) silently change results — the equivalence check catches it.
        Planted in the per-charge oracle, whose loop delivers messages."""

        class Buggy(_OracleRun):
            def _simulate_superstep(self, s, csize):
                step = self.steps[s]
                if step.is_dummy:
                    return super()._simulate_superstep(s, csize)
                from repro.dbsp.program import ProcView

                for k in range(csize):
                    pid = self.slot_to_pid[k]
                    inbox = sorted(self.pending[pid])
                    self.pending[pid] = []
                    view = ProcView(pid, self.v, self.mu, step.label,
                                    self.contexts[pid], inbox)
                    step.body(view)
                    self.machine.charge(view.local_time)
                    for dest, msg in view.outbox:
                        # BUG: visible to later processors of the same round
                        self.pending[dest].append(msg)
                    self.next_step[pid] += 1

        monkeypatch.setattr(oracle_module, "_OracleRun", Buggy)
        prog = random_program(8, labels=[1, 1, 0], seed=3)
        want = [c["w"] for c in DBSPMachine(F).run(prog.with_global_sync()).contexts]
        got = [c["w"] for c in
               HMMOracle(F, check_invariants="off").simulate(prog).contexts]
        assert got != want

    def test_stale_cluster_trips_readiness_invariant(self, monkeypatch):
        end_round = hmm_vec._end_round

        def buggy(slot_to_pid, next_step, labels, s, first, csize):
            swaps = end_round(slot_to_pid, next_step, labels, s, first, csize)
            # BUG: half the cluster forgets it ran the superstep
            next_step[first : first + csize // 2] = [s] * (csize // 2)
            return swaps

        monkeypatch.setattr(hmm_vec, "_end_round", buggy)
        prog = random_program(8, labels=[1, 0], seed=4)
        with pytest.raises(AssertionError, match="Invariant 1"):
            HMMSimulator(F, check_invariants="top").simulate(prog)

    def test_split_parked_cluster_trips_contiguity_check(self, monkeypatch):
        end_round = hmm_vec._end_round

        def buggy(slot_to_pid, next_step, labels, s, first, csize):
            swaps = end_round(slot_to_pid, next_step, labels, s, first, csize)
            if s == first == 0:
                # BUG: two parked contexts of different pairs trade slots
                slot_to_pid[-3], slot_to_pid[-2] = slot_to_pid[-2], slot_to_pid[-3]
            return swaps

        monkeypatch.setattr(hmm_vec, "_end_round", buggy)
        prog = random_program(16, labels=[2, 0], seed=1)
        with pytest.raises(AssertionError, match="non-contiguous"):
            HMMSimulator(F, check_invariants="full").simulate(
                prog, label_set=[0, 1, 2, 3, 4]
            )


class TestBTSimInjection:
    def test_skipped_pack_trips_layout_check(self, monkeypatch):
        class Buggy(_BTSimRun):
            def pack(self, i):
                pass  # BUG: simulate straight on the interspersed layout

        monkeypatch.setattr(bt_sim_module, "_BTSimRun", Buggy)
        prog = random_program(8, n_steps=3, seed=5)
        with pytest.raises(AssertionError):
            BTSimulator(F, check_invariants=True).simulate(prog)

    def test_corrupted_slot_bookkeeping_is_detected(self, monkeypatch):
        class Buggy(_BTSimRun):
            def unpack(self, i):
                super().unpack(i)
                # BUG: clobber a parked context's slot record
                for k, pid in enumerate(self.slots):
                    if pid is not None and k > 0:
                        self.slots[k] = None
                        break

        monkeypatch.setattr(bt_sim_module, "_BTSimRun", Buggy)
        prog = random_program(8, n_steps=3, seed=6)
        with pytest.raises(AssertionError):
            BTSimulator(F, check_invariants=True).simulate(prog)

    def test_swap_to_occupied_destination_is_detected(self, monkeypatch):
        class Buggy(_BTSimRun):
            def _find_empty_run(self, near, n_blocks, forbid):
                return 0  # BUG: "scratch" that overlaps live contexts

        monkeypatch.setattr(bt_sim_module, "_BTSimRun", Buggy)
        prog = random_program(16, labels=[2, 0], seed=7)
        with pytest.raises(AssertionError):
            BTSimulator(F).simulate(prog)


class TestGuardsStayQuietOnCorrectEngine:
    """Control: with no injected bug, the same programs pass all guards."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7])
    def test_clean_runs(self, seed):
        prog = random_program(16, n_steps=4, seed=seed)
        want = [c["w"] for c in DBSPMachine(F).run(prog.with_global_sync()).contexts]
        hmm = HMMSimulator(F, check_invariants="full").simulate(prog)
        bt = BTSimulator(F, check_invariants=True).simulate(prog)
        assert [c["w"] for c in hmm.contexts] == want
        assert [c["w"] for c in bt.contexts] == want
