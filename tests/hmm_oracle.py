"""The Figure 1 round loop, one elementary charge at a time: the oracle.

:class:`repro.sim.hmm_sim.HMMSimulator` runs the scheduler compiled
(:mod:`repro.sim.hmm_vec`): the schedule is walked once per shape,
priced per access function and folded with one ``np.cumsum``.  This
module keeps the loop that compilation replaced, unchanged in what it
charges: every round checks Theorem 4's invariants, runs the cluster's
bodies on top of an :class:`~repro.hmm.machine.HMMMachine`, charges
each context cycle, message endpoint and Step 4 swap as it happens, and
drives a live :class:`~repro.obs.trace.Tracer` and counter registry.
The identity suites compare the simulator against it with ``==`` on
time, contexts, counters, breakdown, spans and round snapshots:
``HMMOracle(f, **options).simulate(program)`` takes the simulator's
options and returns its :class:`~repro.sim.hmm_sim.HMMSimResult`.
"""

from __future__ import annotations

from bisect import insort

from repro.dbsp.cluster import cluster_of, cluster_size
from repro.dbsp.program import Message, ProcView, Program
from repro.hmm.machine import HMMMachine
from repro.obs.counters import Counters
from repro.obs.trace import Tracer
from repro.sim.hmm_sim import HMM_PHASES, HMMSimResult, HMMSimulator, RoundSnapshot
from repro.sim.kernel import observed
from repro.sim.smoothing import SmoothedProgram, build_label_set_hmm, smooth_program


class HMMOracle(HMMSimulator):
    """:class:`~repro.sim.hmm_sim.HMMSimulator`'s options and results,
    charged one access at a time (``check_invariants="off"`` skips the
    per-round checks here)."""

    def simulate(
        self,
        program: Program,
        label_set: list[int] | None = None,
        initial_contexts: list[dict] | None = None,
        initial_pending: list[list[Message]] | None = None,
    ) -> HMMSimResult:
        if label_set is None:
            label_set = build_label_set_hmm(
                self.f, program.v, program.mu, self.c2
            )
        smoothed = smooth_program(program, label_set)
        run = _OracleRun(self, smoothed, initial_contexts, initial_pending)
        run.execute()
        run.tracer.assert_closed()
        breakdown, counters = observed(
            self.trace, run.tracer.totals, run.counters, HMM_PHASES,
            run.round_index,
        )
        return HMMSimResult(
            contexts=run.contexts,
            time=run.machine.time,
            rounds=run.round_index,
            smoothed=smoothed,
            f=self.f,
            trace=run.trace,
            pending=run.pending,
            breakdown=breakdown,
            counters=counters,
            spans=run.tracer.spans,
        )


class _OracleRun:
    """Mutable state of one simulation run."""

    def __init__(self, sim: HMMOracle, smoothed: SmoothedProgram,
                 initial_contexts: list[dict] | None,
                 initial_pending: list[list[Message]] | None):
        self.sim = sim
        self.smoothed = smoothed
        program = smoothed.program
        self.v = program.v
        self.mu = program.mu
        self.steps = program.supersteps
        # a live registry and tracer at every level: observed() reports
        # what the level keeps
        self.counters = Counters()
        self.machine = HMMMachine(
            sim.f, self.v * self.mu, op_cost=0.0, counters=self.counters
        )
        machine = self.machine
        self.tracer = Tracer(
            clock=lambda: machine.time, record=(sim.trace == "full")
        )
        # block layout: slot k holds the context of slot_to_pid[k]
        self.slot_to_pid = list(range(self.v))
        self.pid_to_slot = list(range(self.v))
        self.contexts = (
            initial_contexts
            if initial_contexts is not None
            else program.initial_contexts()
        )
        # inboxes are kept ordered at delivery time (insort), so consumers
        # read them without a per-superstep re-sort; caller-supplied boxes
        # are sorted once here
        self.pending: list[list[Message]] = (
            [sorted(box) for box in initial_pending]
            if initial_pending is not None
            else [[] for _ in range(self.v)]
        )
        self.next_step = [0] * self.v
        self.round_index = 0
        self.trace: list[RoundSnapshot] = []
        table = self.machine.table
        #: per slot: the cost of its context block (every cycling charge)
        #: and of its first word (the delivery scan's endpoint charge)
        self.block_cost = [
            table.range_cost(k * self.mu, (k + 1) * self.mu)
            for k in range(self.v)
        ]
        self.word_cost = [table.access(k * self.mu) for k in range(self.v)]

    def _swap_slot_ranges(self, a: int, b: int, length: int) -> None:
        """Swap the contents of block slots [a, a+length) and [b, b+length)."""
        t0 = self.machine.time
        self.machine.swap_ranges(a * self.mu, b * self.mu, length * self.mu)
        self.tracer.add_leaf("swap", "swaps", t0, self.machine.time)
        self.counters.add("context_swaps", 2 * length)
        # slot bookkeeping via slice exchange (host-side only, no charging)
        pids_a = self.slot_to_pid[a : a + length]
        pids_b = self.slot_to_pid[b : b + length]
        self.slot_to_pid[a : a + length] = pids_b
        self.slot_to_pid[b : b + length] = pids_a
        for k, pid in enumerate(pids_a):
            self.pid_to_slot[pid] = b + k
        for k, pid in enumerate(pids_b):
            self.pid_to_slot[pid] = a + k

    def execute(self) -> None:
        """Run rounds until the program ends."""
        steps = self.steps
        n_steps = len(steps)
        tracer = self.tracer
        slot_to_pid = self.slot_to_pid
        next_step = self.next_step
        while True:
            top_pid = slot_to_pid[0]
            s = next_step[top_pid]
            if s >= n_steps:
                break
            label = steps[s].label
            csize = cluster_size(self.v, label)
            first_pid = cluster_of(top_pid, self.v, label) * csize

            if self.sim.check_invariants != "off":
                self._check_invariants(s, first_pid, csize)
            if self.sim.record_trace and len(self.trace) < self.sim.max_trace_rounds:
                self.trace.append(RoundSnapshot(
                    self.round_index, s, label, tuple(slot_to_pid), tuple(next_step)
                ))
            self.round_index += 1
            attrs = {"superstep": s, "label": label, "cluster": first_pid // csize}
            tracer.open("round", None, attrs if tracer.record else None)

            self._simulate_superstep(s, csize)

            done = next_step[slot_to_pid[0]] >= n_steps
            if not done and s + 1 < n_steps:
                next_label = steps[s + 1].label
                if next_label < label:
                    self._cycle_swaps(label, next_label, first_pid, csize)
            tracer.close()
            if done:
                break

    # ------------------------------------------------- step 2 of the round
    def _simulate_superstep(self, s: int, csize: int) -> None:
        """Simulate superstep ``s`` for the cluster on top of memory."""
        step = self.steps[s]
        machine = self.machine
        tracer = self.tracer
        counters = self.counters

        if step.is_dummy:
            # no computation, no communication: only the unit sync charge
            t0 = machine.time
            machine.charge(float(csize))
            tracer.add_leaf("dummy", "dummies", t0, machine.time)
            counters.add("dummy_supersteps")
            for k in range(csize):
                self.next_step[self.slot_to_pid[k]] += 1
            return

        outgoing: list[tuple[int, Message]] = []
        top_cost = self.block_cost[0]
        for k in range(csize):
            pid = self.slot_to_pid[k]
            # bring the context to the top of memory and back: the paper
            # charges a constant number of accesses to blocks k and 0
            # (two touches of block k, two of block 0, in touch_range's
            # order)
            if k > 0:
                t0 = machine.time
                bc = self.block_cost[k]
                t = t0 + bc
                t += bc
                t += top_cost
                t += top_cost
                machine.time = t
                tracer.add_leaf("cycle-context", "cycling", t0, t)
            view = ProcView(
                pid, self.v, self.mu, step.label, self.contexts[pid],
                self.pending[pid],  # kept ordered at delivery time
            )
            self.pending[pid] = []
            step.body(view)
            t0 = machine.time
            machine.time = t0 + view.local_time
            tracer.add_leaf("local", "local", t0, machine.time)
            outgoing.extend(view.outbox)
            self.next_step[pid] += 1
        if csize > 1:
            counters.add("words_touched", 4 * self.mu * (csize - 1))

        # message exchange: scan outgoing buffers and deliver each message
        # to the destination's incoming buffer; both endpoints live in the
        # topmost |C| blocks, located via the sorted-by-pid invariant, and
        # each endpoint costs its slot's first word, in message order
        t0 = t = machine.time
        for dest, msg in outgoing:
            insort(self.pending[dest], msg)
            t += self.word_cost[self.pid_to_slot[msg.src]]
            t += self.word_cost[self.pid_to_slot[dest]]
        machine.time = t
        tracer.add_leaf("delivery", "delivery", t0, t)
        counters.add("words_touched", 2 * len(outgoing))
        counters.add("messages", len(outgoing))

    # ------------------------------------------------- step 4 of the round
    def _cycle_swaps(
        self, label: int, next_label: int, first_pid: int, csize: int
    ) -> None:
        """Context swaps preparing the next phase of the current cycle."""
        b = 1 << (label - next_label)
        parent_size = cluster_size(self.v, next_label)
        parent_first = cluster_of(first_pid, self.v, next_label) * parent_size
        j = (first_pid - parent_first) // csize

        self.tracer.open("cycle-swaps", "swaps")
        if j > 0:
            # C (on top) <-> C0 (parked at C's home, slot range j)
            self._swap_slot_ranges(0, j * csize, csize)
        if j < b - 1:
            # C0 (now on top) <-> C_{j+1} (at its home, slot range j+1)
            self._swap_slot_ranges(0, (j + 1) * csize, csize)
        self.tracer.close()

    # ---------------------------------------------------------- invariants
    def _check_invariants(self, s: int, first_pid: int, csize: int) -> None:
        r, top = self.round_index, self.slot_to_pid[:csize]
        assert top == list(range(first_pid, first_pid + csize)), (
            f"Invariant 2 violated at round {r}: top slots hold {top}"
        )
        assert [self.next_step[pid] for pid in top] == [s] * csize, (
            f"Invariant 1 violated at round {r}: cluster not {s}-ready"
        )
        if self.sim.check_invariants == "full":
            self._check_contiguity()

    def _check_contiguity(self) -> None:
        """Invariant 2, second part: parked clusters occupy consecutive
        blocks, at every level of the smoothed label set."""
        for i in self.smoothed.label_set:
            size = cluster_size(self.v, i)
            for j in range(1 << i):
                slots = sorted(
                    self.pid_to_slot[pid] for pid in range(j * size, (j + 1) * size)
                )
                if slots[-1] - slots[0] != size - 1:
                    raise AssertionError(
                        f"Invariant 2 violated: cluster C_{j}^({i}) occupies "
                        f"non-contiguous slots {slots}"
                    )
