"""Simulation of D-BSP programs on the HMM (Section 3, Figure 1).

The guest is a fine-grained ``D-BSP(v, mu, g(x))`` program; the host is an
``f(x)``-HMM whose memory is divided into ``v`` blocks of ``mu`` words,
block 0 at the top.  Block ``j`` initially holds the context of processor
``P_j``; the association changes as the simulation proceeds.

Each *round* simulates one superstep ``s`` for one s-ready ``i_s``-cluster
``C`` and then performs the context swaps that schedule the next round.
The scheduler deliberately advances different clusters unevenly — a cluster
is kept on top of memory through whole runs of fine-grained supersteps, so
the submachine locality of the guest becomes temporal locality on the host.

Two invariants hold at the start of every round (proved by Theorem 4 and
checked here, optionally, at runtime):

1. the cluster about to be simulated is s-ready (all its processors have
   simulated exactly supersteps ``0 .. s-1``);
2. its contexts occupy the topmost ``|C|`` blocks sorted by processor id,
   and every other cluster's contexts are contiguous in memory.

Theorem 5: a program with per-processor computation time ``O(tau)`` and
``lambda_i`` i-supersteps is simulated in time
``O(v (tau + mu sum_i lambda_i f(mu v / 2^i)))``.  With ``g = f`` this is
an optimal ``Theta(T v)`` (Corollary 6).
"""

from __future__ import annotations

import os
from bisect import insort
from dataclasses import dataclass, field
from typing import Literal

from repro.dbsp.cluster import cluster_of, cluster_size
from repro.dbsp.program import Message, ProcView, Program
from repro.functions import AccessFunction
from repro.hmm.machine import HMMMachine
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.sim.kernel import BodyPass, observed
from repro.sim.smoothing import SmoothedProgram, build_label_set_hmm, smooth_program

__all__ = [
    "HMMSimulator",
    "HMMSimResult",
    "RoundSnapshot",
    "HMM_PHASES",
]

#: phase categories of the Fig. 1 scheme (the breakdown key set)
HMM_PHASES = ("local", "cycling", "delivery", "swaps", "dummies")


@dataclass(frozen=True)
class RoundSnapshot:
    """State captured at the start of a round (drives the Figure 2 rendering)."""

    round_index: int
    superstep: int
    label: int
    #: pid occupying each block slot, top of memory first
    slot_to_pid: tuple[int, ...]
    #: next superstep to simulate, per processor
    next_step: tuple[int, ...]


@dataclass
class HMMSimResult:
    """Outcome of simulating a D-BSP program on the ``f(x)``-HMM."""

    contexts: list[dict]
    time: float
    rounds: int
    smoothed: SmoothedProgram
    f: AccessFunction
    trace: list[RoundSnapshot] = field(default_factory=list)
    #: messages left undelivered when the program ended (a caller chaining
    #: runs of supersteps passes them on as ``initial_pending``)
    pending: list[list[Message]] = field(default_factory=list)
    #: charged time attributed to each phase of the scheme:
    #: ``local`` (guest computation), ``cycling`` (contexts to/from the
    #: top inside Step 2), ``delivery`` (message exchange), ``swaps``
    #: (Step 4 cluster swaps), ``dummies`` (smoothing overhead).
    #: A view over the span trace: per-category self-cost totals.
    breakdown: dict[str, float] = field(default_factory=dict)
    #: event counters (words touched/moved, messages, context swaps,
    #: rounds, ...) — empty when observability is off
    counters: dict[str, int | float] = field(default_factory=dict)
    #: recorded spans (``trace="full"`` only)
    spans: list[SpanRecord] = field(default_factory=list)
    #: the run's body pass, indexed by the steps of
    #: ``program.with_global_sync()`` — ``None`` unless the ``vec``
    #: kernel ran the whole program from its initial state
    body_pass: BodyPass | None = None

    def slowdown(self, dbsp_time: float) -> float | None:
        """Measured slowdown w.r.t. the guest D-BSP running time.

        ``None`` when the guest time is zero (no meaningful ratio) — the
        same convention as :class:`repro.engines.EngineResult.slowdown`.
        """
        return self.time / dbsp_time if dbsp_time > 0 else None


class HMMSimulator:
    """Figure 1's round-based scheduler, operational and fully charged.

    Parameters
    ----------
    f:
        Host access function (must be (2, c)-uniform).
    c2:
        Smoothing constant for the label-set construction (§3).
    check_invariants:
        ``"top"`` verifies Invariants 1-2 for the cluster about to be
        simulated on every round (cheap); ``"full"`` additionally verifies
        the contiguity of *every* parked cluster (quadratic — tests only);
        ``"off"`` disables checking.
    record_trace:
        Capture a :class:`RoundSnapshot` per round (Figure 2 data).
    trace:
        Observability level (:mod:`repro.obs`): ``"phases"`` (default)
        aggregates per-phase cost totals and event counters — this is
        what fills ``breakdown``/``counters`` on the result; ``"full"``
        additionally records every span for export/profiling;
        ``"counters"`` keeps the event counters but drops the span
        layer (what ``python -m repro bench`` measures under);
        ``"off"`` disables the layer entirely (no-op hooks;
        ``breakdown`` and ``counters`` come back empty).
    kernel:
        ``"scalar"`` runs the round loop one charge at a time (the
        reference path); ``"vec"`` compiles the schedule into a
        :class:`~repro.sim.hmm_vec.ChargePlan` and executes whole
        supersteps as array programs — charged time, counters,
        breakdowns and spans stay **bit-identical** (only wall clock
        changes).  ``None`` reads ``REPRO_ENGINE`` from the environment
        (``vec`` selects the vectorized kernel; anything else, or
        unset, selects scalar).  Modes the vectorized kernel does not
        cover (``record_trace``, ``check_invariants="full"``) silently
        run scalar.
    """

    def __init__(
        self,
        f: AccessFunction,
        c2: float = 0.5,
        check_invariants: Literal["top", "full", "off"] = "top",
        record_trace: bool = False,
        max_trace_rounds: int = 4096,
        trace: Literal["off", "counters", "phases", "full"] = "phases",
        kernel: Literal["scalar", "vec"] | None = None,
    ):
        self.f = f
        self.c2 = c2
        self.check_invariants = check_invariants
        self.record_trace = record_trace
        self.max_trace_rounds = max_trace_rounds
        if trace not in ("off", "counters", "phases", "full"):
            raise ValueError(f"unknown trace level {trace!r}")
        self.trace = trace
        if kernel is None:
            kernel = "vec" if os.environ.get("REPRO_ENGINE") == "vec" else "scalar"
        if kernel not in ("scalar", "vec"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.kernel = kernel
        # per-(v, mu) charged-cost lists shared by every run on this
        # simulator (repeated simulate() calls reuse them)
        self._run_artifacts: dict[tuple[int, int], tuple[list, list]] = {}

    # ------------------------------------------------------------ frontend
    def simulate(
        self,
        program: Program,
        label_set: list[int] | None = None,
        initial_contexts: list[dict] | None = None,
        initial_pending: list[list[Message]] | None = None,
    ) -> HMMSimResult:
        """Simulate ``program``; return final contexts, charged time, trace.

        ``initial_contexts`` / ``initial_pending`` override the program's
        own initial state — to chain runs of supersteps while preserving
        in-flight messages.
        """
        if label_set is None:
            label_set = build_label_set_hmm(
                self.f, program.v, program.mu, self.c2
            )
        smoothed = smooth_program(program, label_set)
        run = _HMMSimRun(self, smoothed, initial_contexts, initial_pending)
        run.execute()
        run.tracer.assert_closed()
        breakdown, counters = observed(
            self.trace, run.tracer, run.counters, HMM_PHASES, run.round_index
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
            body_pass=run.body_pass
            if initial_contexts is None and initial_pending is None
            else None,
        )


class _HMMSimRun:
    """Mutable state of one simulation run."""

    def __init__(
        self,
        sim: HMMSimulator,
        smoothed: SmoothedProgram,
        initial_contexts: list[dict] | None = None,
        initial_pending: list[list[Message]] | None = None,
    ):
        self.sim = sim
        self.smoothed = smoothed
        program = smoothed.program
        self.program = program
        self.v = program.v
        self.mu = program.mu
        self.steps = program.supersteps
        if sim.trace == "off":
            self.counters = NULL_COUNTERS
        else:
            self.counters = Counters()
        self.machine = HMMMachine(
            sim.f, self.v * self.mu, op_cost=0.0, counters=self.counters
        )
        if sim.trace in ("off", "counters"):
            self.tracer = NULL_TRACER
        else:
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
        # recycled per-body view (see _simulate_superstep); pid/ctx/inbox/
        # label/local_time are reset before every body call
        self._view = ProcView(0, self.v, self.mu, 0, {}, [])
        self.next_step = [0] * self.v
        self.round_index = 0
        self.trace: list[RoundSnapshot] = []
        #: the ``vec`` kernel's body pass (see ``HMMSimResult.body_pass``)
        self.body_pass: BodyPass | None = None

    # ------------------------------------------------------------- helpers
    def _slot_costs(self) -> tuple[list, list]:
        """Per slot: the cost of its context block, reused by every
        cycling charge instead of re-deriving it from the prefix table,
        and the cost of touching its first word, the message-endpoint
        charge of the delivery scan (the float the prefix fold would
        gather for address ``k * mu``).  Same floats, same order of
        addition: charged time is bit-identical.  Built when the scalar
        loop or a price miss of the ``vec`` kernel first needs them,
        and kept on the simulator per ``(v, mu)``."""
        key = (self.v, self.mu)
        costs = self.sim._run_artifacts.get(key)
        if costs is None:
            table, mu = self.machine.table, self.mu
            costs = self.sim._run_artifacts[key] = (
                [table.range_cost(k * mu, (k + 1) * mu) for k in range(self.v)],
                [table.access(k * mu) for k in range(self.v)],
            )
        return costs

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
        pid_to_slot = self.pid_to_slot
        for k, pid in enumerate(pids_a):
            pid_to_slot[pid] = b + k
        for k, pid in enumerate(pids_b):
            pid_to_slot[pid] = a + k

    # --------------------------------------------------------------- main
    def execute(self) -> None:
        """Run rounds until the program ends.

        On a ``kernel="vec"`` simulator the run is dispatched to the
        vectorized kernel (:mod:`repro.sim.hmm_vec`); the modes the
        kernel does not cover fall through to the scalar loop.  Both
        produce the identical charge sequence, so the choice is
        invisible to everything downstream.
        """
        sim = self.sim
        if (
            sim.kernel == "vec"
            and not sim.record_trace
            and sim.check_invariants != "full"
        ):
            from repro.sim.hmm_vec import execute_vec

            execute_vec(self)
            return
        self._execute_scalar()

    def _execute_scalar(self) -> None:
        """The reference round loop, one elementary charge at a time."""
        steps = self.steps
        n_steps = len(steps)
        tracer = self.tracer
        tracing = tracer.enabled
        slot_to_pid = self.slot_to_pid
        next_step = self.next_step
        v = self.v
        checking = self.sim.check_invariants != "off"
        recording = self.sim.record_trace
        while True:
            top_pid = slot_to_pid[0]
            s = next_step[top_pid]
            if s >= n_steps:
                break
            label = steps[s].label
            # cluster_size / cluster_of, inlined: clusters are aligned
            # power-of-two blocks, so first_pid is top_pid rounded down
            csize = v >> label
            first_pid = top_pid & -csize

            if checking:
                self._check_invariants(s, label, first_pid, csize)
            if recording and len(self.trace) < self.sim.max_trace_rounds:
                self.trace.append(
                    RoundSnapshot(
                        self.round_index,
                        s,
                        label,
                        tuple(slot_to_pid),
                        tuple(next_step),
                    )
                )
            self.round_index += 1
            if tracing:
                tracer.open(
                    "round",
                    None,
                    {"superstep": s, "label": label, "cluster": first_pid // csize}
                    if tracer.record
                    else None,
                )

            self._simulate_superstep(s, first_pid, csize)

            done = next_step[slot_to_pid[0]] >= n_steps
            if not done and s + 1 < n_steps:
                next_label = steps[s + 1].label
                if next_label < label:
                    self._cycle_swaps(label, next_label, first_pid, csize)
            if tracing:
                tracer.close()
            if done:
                break

    # ------------------------------------------------- step 2 of the round
    def _simulate_superstep(self, s: int, first_pid: int, csize: int) -> None:
        """Simulate superstep ``s`` for the cluster on top of memory."""
        step = self.steps[s]
        machine = self.machine
        tracer = self.tracer
        mu = self.mu

        if step.is_dummy:
            # no computation, no communication: only the unit sync charge
            t0 = machine.time
            machine.charge(float(csize))
            tracer.add_leaf("dummy", "dummies", t0, machine.time)
            self.counters.add("dummy_supersteps")
            for k in range(csize):
                self.next_step[self.slot_to_pid[k]] += 1
            return

        outgoing: list[tuple[int, Message]] = []
        block_cost, word_cost = self._slot_costs()
        top_cost = block_cost[0]
        counters = self.counters
        tracing = tracer.enabled
        slot_to_pid = self.slot_to_pid
        pending = self.pending
        contexts = self.contexts
        next_step = self.next_step
        label = step.label
        body = step.body
        extend = outgoing.extend
        # one ProcView is recycled across the loop: the engine owns it for
        # exactly the duration of one body call, and bodies must not
        # retain views past their superstep (the documented discipline)
        view = self._view
        view.label = label
        outbox = view.outbox
        clear = outbox.clear
        # the charged clock is kept in a local and written back once: no
        # span opens inside this loop, so nothing reads machine.time until
        # the delivery fold below
        t = machine.time
        for k in range(csize):
            pid = slot_to_pid[k]
            # bring the context to the top of memory and back: the paper
            # charges a constant number of accesses to blocks k and 0
            # (two touches of block k, two of block 0 — charged from the
            # cached per-slot costs in the same order as touch_range)
            if k > 0:
                t0 = t
                bc = block_cost[k]
                t = t0 + bc
                t += bc
                t += top_cost
                t += top_cost
                if tracing:
                    tracer.add_leaf("cycle-context", "cycling", t0, t)
            view.pid = pid
            view.ctx = contexts[pid]
            view.inbox = pending[pid]  # kept ordered at delivery time
            pending[pid] = []
            view.local_time = 1.0
            body(view)
            t0 = t
            t = t0 + view.local_time
            if tracing:
                tracer.add_leaf("local", "local", t0, t)
            extend(outbox)
            clear()
            next_step[pid] += 1
        if csize > 1:
            # integer sum over the loop, batched (addition is associative)
            counters.add("words_touched", 4 * mu * (csize - 1))

        # message exchange: scan outgoing buffers and deliver each message
        # to the destination's incoming buffer; both endpoints live in the
        # topmost |C| blocks, located via the sorted-by-pid invariant.
        # Charging folds the per-endpoint word costs in message order —
        # the same float sequence as per-message pairs of length-1
        # touch_range calls (and as a touch_addresses gather over the
        # interleaved src/dst addresses).
        t0 = t
        pid_to_slot = self.pid_to_slot
        for dest, msg in outgoing:
            insort(pending[dest], msg)
            t += word_cost[pid_to_slot[msg.src]]
            t += word_cost[pid_to_slot[dest]]
        machine.time = t
        if tracing:
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
    def _check_invariants(
        self, s: int, label: int, first_pid: int, csize: int
    ) -> None:
        # slice comparisons run at C speed; the scalar loop is only
        # revisited on failure, to name the offending slot/processor
        ok = self.slot_to_pid[:csize] == list(
            range(first_pid, first_pid + csize)
        ) and self.next_step[first_pid : first_pid + csize] == [s] * csize
        if not ok:
            for k in range(csize):
                pid = self.slot_to_pid[k]
                if pid != first_pid + k:
                    raise AssertionError(
                        f"Invariant 2 violated at round {self.round_index}: slot {k} "
                        f"holds P{pid}, expected P{first_pid + k}"
                    )
                if self.next_step[pid] != s:
                    raise AssertionError(
                        f"Invariant 1 violated at round {self.round_index}: P{pid} "
                        f"is at superstep {self.next_step[pid]}, cluster expects {s}"
                    )
        if self.sim.check_invariants == "full":
            self._check_contiguity()

    def _check_contiguity(self) -> None:
        """Invariant 2, second part: parked clusters occupy consecutive blocks.

        Only levels in the smoothed label set matter: an L-smooth program
        never addresses clusters at other levels, and the cycle schedule
        legitimately splits levels strictly between ``i_{s+1}`` and ``i_s``
        while a cycle is in flight (cf. Figure 2's intermediate snapshots).
        """
        v = self.v
        for i in self.smoothed.label_set:
            size = cluster_size(v, i)
            for j in range(1 << i):
                slots = sorted(
                    self.pid_to_slot[pid] for pid in range(j * size, (j + 1) * size)
                )
                if slots[-1] - slots[0] != size - 1:
                    raise AssertionError(
                        f"Invariant 2 violated: cluster C_{j}^({i}) occupies "
                        f"non-contiguous slots {slots}"
                    )
