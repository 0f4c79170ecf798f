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
from array import array
from bisect import insort
from dataclasses import dataclass, field
from typing import Literal

from repro.dbsp.cluster import cluster_of, cluster_size
from repro.dbsp.program import Message, ProcView, Program, Superstep
from repro.functions import AccessFunction
from repro.hmm.machine import HMMMachine
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.parallel.config import ParallelConfig, resolve_parallel, warn_fallback_once
from repro.sim.smoothing import SmoothedProgram, build_label_set_hmm, smooth_program

__all__ = [
    "HMMSimulator",
    "HMMSimResult",
    "RoundSnapshot",
    "HMM_PHASES",
    "FlatTape",
    "SpanTape",
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


class FlatTape:
    """Charge tape without span structure.

    Recorded by worker processes when the parent runs at trace level
    ``off`` or ``counters``: just the elementary charges (every single
    ``time += c`` the simulation performs), in execution order.  The
    parent re-folds them onto its own clock — float addition is not
    associative, so shipping per-cluster *totals* would not reproduce the
    serial clock bit-for-bit, but re-folding the identical charge
    sequence from the identical starting value does.
    """

    __slots__ = ("charges",)

    def __init__(self):
        self.charges = array("d")

    def leaf(self, name: str, category: str, charges) -> None:
        self.charges.extend(charges)

    def open(self, name: str, category: str | None) -> None:
        pass

    def close(self) -> None:
        pass

    def data(self):
        return self.charges


class SpanTape:
    """Charge tape with span markers (parent trace level ``phases``).

    Besides the elementary charges (grouped per leaf), records the
    open/close structure of the worker's spans so the parent can replay
    them into its own tracer: entries are ``("o", name, category)`` /
    ``("c",)`` markers and ``("l", name, category, charges)`` leaves.
    Replaying reproduces the parent tracer's totals, counts and
    child-cost attribution exactly as the serial run would have produced
    them — including the ±ulp self-cost that round spans attribute to
    the ``other`` category.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple] = []

    def leaf(self, name: str, category: str, charges) -> None:
        self.entries.append(("l", name, category, tuple(charges)))

    def open(self, name: str, category: str | None) -> None:
        self.entries.append(("o", name, category))

    def close(self) -> None:
        self.entries.append(("c",))

    def data(self):
        return self.entries


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
    parallel:
        Host-parallelism policy (:mod:`repro.parallel`): a
        :class:`~repro.parallel.config.ParallelConfig`, a worker-process
        count, or ``None`` to read ``REPRO_JOBS`` from the environment.
        With ``jobs > 1``, independent per-cluster simulations within a
        round are dispatched to worker processes — charged time,
        counters and breakdowns stay **bit-identical** to the serial
        path (only wall clock changes).  Incompatible observability
        modes (``trace="full"``, ``record_trace``,
        ``check_invariants="full"``) silently run serially.
    kernel:
        ``"scalar"`` runs the round loop one charge at a time (the
        reference path); ``"vec"`` compiles the schedule into a
        :class:`~repro.sim.hmm_vec.ChargePlan` and executes whole
        supersteps as array programs — charged time, counters,
        breakdowns and spans stay **bit-identical** (only wall clock
        changes).  ``None`` reads ``REPRO_ENGINE`` from the environment
        (``vec`` selects the vectorized kernel; anything else, or
        unset, selects scalar).  Modes the vectorized kernel does not
        cover (``record_trace``, ``check_invariants="full"``, the
        parallel driver's inline serial bursts) silently run scalar.
    """

    def __init__(
        self,
        f: AccessFunction,
        c2: float = 0.5,
        check_invariants: Literal["top", "full", "off"] = "top",
        record_trace: bool = False,
        max_trace_rounds: int = 4096,
        trace: Literal["off", "counters", "phases", "full"] = "phases",
        parallel: "ParallelConfig | int | None" = None,
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
        self.parallel = resolve_parallel(parallel)
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
        in-flight messages (the parallel segment workers do).
        """
        if label_set is None:
            label_set = build_label_set_hmm(
                self.f, program.v, program.mu, self.c2
            )
        smoothed = smooth_program(program, label_set)
        run = _HMMSimRun(self, smoothed, initial_contexts, initial_pending)
        cfg = self.parallel
        if (
            cfg.enabled
            and self.trace != "full"
            and not self.record_trace
            and self.check_invariants != "full"
        ):
            run.execute_parallel(cfg)
        else:
            run.execute()
        run.tracer.assert_closed()
        if self.trace == "off":
            breakdown: dict[str, float] = {}
            counters: dict[str, int | float] = {}
        else:
            breakdown = {}
            if self.trace != "counters":
                breakdown = dict.fromkeys(HMM_PHASES, 0.0)
                breakdown.update(run.tracer.phase_totals())
            run.counters.add("rounds", run.round_index)
            counters = run.counters.snapshot()
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
        # per-slot context-block cost, reused every cycling charge instead
        # of re-deriving it from the prefix table (same floats, same order
        # of addition — charged time is bit-identical)
        mu = self.mu
        cached = sim._run_artifacts.get((self.v, mu))
        if cached is None:
            table = self.machine.table
            cached = (
                [table.range_cost(k * mu, (k + 1) * mu) for k in range(self.v)],
                # cost of touching the first word of each slot's block —
                # the message-endpoint charge of the delivery scan (same
                # float the prefix fold would gather for address k * mu)
                [table.access(k * mu) for k in range(self.v)],
            )
            sim._run_artifacts[(self.v, mu)] = cached
        self._block_cost, self._slot_word_cost = cached
        # recycled per-body view (see _simulate_superstep); pid/ctx/inbox/
        # label/local_time are reset before every body call
        self._view = ProcView(0, self.v, mu, 0, {}, [])
        self.next_step = [0] * self.v
        self.round_index = 0
        self.trace: list[RoundSnapshot] = []
        #: charge tape (:class:`FlatTape` / :class:`SpanTape`), set by
        #: worker processes only; ``None`` on the serial/parent path
        self.tape_rec: "FlatTape | SpanTape | None" = None

    # ------------------------------------------------------------- helpers
    def _word(self, slot: int, offset: int = 0) -> int:
        return slot * self.mu + offset

    def _block_range(self, slot: int) -> tuple[int, int]:
        return slot * self.mu, (slot + 1) * self.mu

    def _swap_slot_ranges(self, a: int, b: int, length: int) -> None:
        """Swap the contents of block slots [a, a+length) and [b, b+length)."""
        t0 = self.machine.time
        charge = self.machine.swap_ranges(
            self._word(a), self._word(b), length * self.mu
        )
        self.tracer.add_leaf("swap", "swaps", t0, self.machine.time)
        if self.tape_rec is not None:
            self.tape_rec.leaf("swap", "swaps", (charge,))
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
    def execute(self, stop: int | None = None) -> None:
        """Run rounds until the program ends.

        With ``stop``, run only until the cluster on top of memory
        reaches superstep ``stop`` (exclusive).  The parallel driver uses
        this to advance the simulation in serial bursts that end exactly
        at cluster boundaries: all in-round logic (including the
        inter-cluster context swaps of a round whose *next* superstep is
        at or past ``stop``) still runs, so the state at the cut is
        bit-identical to a full serial run paused at the same point.

        Full runs on a ``kernel="vec"`` simulator are dispatched to the
        vectorized kernel (:mod:`repro.sim.hmm_vec`); partial runs
        (``stop``) and the modes the kernel does not cover fall through
        to the scalar loop.  Both produce the identical charge sequence,
        so the choice is invisible to everything downstream.
        """
        if stop is None and self.sim.kernel == "vec" and self._vec_ok():
            from repro.sim.hmm_vec import execute_vec

            execute_vec(self)
            return
        self._execute_scalar(stop)

    def _vec_ok(self) -> bool:
        sim = self.sim
        return (
            not sim.record_trace
            and sim.check_invariants != "full"
            and not isinstance(self.tape_rec, SpanTape)
            and self.round_index == 0
        )

    def _execute_scalar(self, stop: int | None = None) -> None:
        """The reference round loop, one elementary charge at a time."""
        steps = self.steps
        n_steps = len(steps)
        limit = n_steps if stop is None else min(stop, n_steps)
        tracer = self.tracer
        tracing = tracer.enabled
        rec = self.tape_rec
        slot_to_pid = self.slot_to_pid
        next_step = self.next_step
        v = self.v
        checking = self.sim.check_invariants != "off"
        recording = self.sim.record_trace
        while True:
            top_pid = slot_to_pid[0]
            s = next_step[top_pid]
            if s >= limit:
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
            if rec is not None:
                rec.open("round", None)

            self._simulate_superstep(s, first_pid, csize)

            done = next_step[slot_to_pid[0]] >= n_steps
            if not done and s + 1 < n_steps:
                next_label = steps[s + 1].label
                if next_label < label:
                    self._cycle_swaps(label, next_label, first_pid, csize)
            if tracing:
                tracer.close()
            if rec is not None:
                rec.close()
            if done:
                break

    # ------------------------------------------------- step 2 of the round
    def _simulate_superstep(self, s: int, first_pid: int, csize: int) -> None:
        """Simulate superstep ``s`` for the cluster on top of memory."""
        step = self.steps[s]
        machine = self.machine
        tracer = self.tracer
        mu = self.mu

        rec = self.tape_rec
        if step.is_dummy:
            # no computation, no communication: only the unit sync charge
            t0 = machine.time
            machine.charge(float(csize))
            tracer.add_leaf("dummy", "dummies", t0, machine.time)
            if rec is not None:
                rec.leaf("dummy", "dummies", (float(csize),))
            self.counters.add("dummy_supersteps")
            for k in range(csize):
                self.next_step[self.slot_to_pid[k]] += 1
            return

        outgoing: list[tuple[int, Message]] = []
        block_cost = self._block_cost
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
                if rec is not None:
                    rec.leaf(
                        "cycle-context", "cycling", (bc, bc, top_cost, top_cost)
                    )
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
            if rec is not None:
                rec.leaf("local", "local", (view.local_time,))
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
        word_cost = self._slot_word_cost
        if rec is None:
            for dest, msg in outgoing:
                insort(pending[dest], msg)
                t += word_cost[pid_to_slot[msg.src]]
                t += word_cost[pid_to_slot[dest]]
        else:
            charges: list[float] = []
            append = charges.append
            for dest, msg in outgoing:
                insort(pending[dest], msg)
                c_src = word_cost[pid_to_slot[msg.src]]
                c_dst = word_cost[pid_to_slot[dest]]
                t += c_src
                t += c_dst
                append(c_src)
                append(c_dst)
            rec.leaf("delivery", "delivery", charges)
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
        rec = self.tape_rec
        if rec is not None:
            rec.open("cycle-swaps", "swaps")
        if j > 0:
            # C (on top) <-> C0 (parked at C's home, slot range j)
            self._swap_slot_ranges(0, j * csize, csize)
        if j < b - 1:
            # C0 (now on top) <-> C_{j+1} (at its home, slot range j+1)
            self._swap_slot_ranges(0, (j + 1) * csize, csize)
        self.tracer.close()
        if rec is not None:
            rec.close()

    # ------------------------------------------------ parallel round driver
    def execute_parallel(self, cfg: ParallelConfig) -> None:
        """Run the schedule, fanning independent clusters out to workers.

        The smoothed schedule decomposes into maximal *segments* of
        supersteps with nonzero labels; within a segment the ``1 << l1``
        top-level clusters (``l1 = label_set[1]``) evolve independently,
        so each is simulated in a worker process and the charged costs
        are re-folded here **in cluster order** — bit-identical to the
        serial path (each worker returns a charge tape of the elementary
        ``time +=`` operands, replayed in sequence on the parent clock).

        Label-0 supersteps, undersized segments (per the
        ``min_work_per_task`` gate) and any segment whose dispatch fails
        run inline via :meth:`execute`, whose ``stop`` parameter pauses
        exactly at segment boundaries.
        """
        from repro.parallel.pool import PoolUnavailable, shared_pool

        steps = self.steps
        n_steps = len(steps)
        label_set = self.smoothed.label_set
        if len(label_set) < 2 or label_set[1] < 1:
            # degenerate schedule (v == 1): nothing to fan out
            self.execute()
            return
        l1 = label_set[1]
        v_sub = self.v >> l1
        pool = None
        pos = 0
        while pos < n_steps:
            if steps[pos].label == 0:
                self.execute(stop=pos + 1)
                pos += 1
                continue
            end = pos
            while end < n_steps and steps[end].label != 0:
                end += 1
            # smoothed programs end with a global sync, so end < n_steps
            if (end - pos) * v_sub < cfg.min_work_per_task:
                self.execute(stop=end)
                pos = end
                continue
            try:
                if pool is None:
                    pool = shared_pool(cfg.jobs)
                self._run_segment_parallel(
                    pool, pos, end, l1, v_sub, cfg.retry
                )
            except PoolUnavailable as exc:
                if not cfg.fallback:
                    raise
                warn_fallback_once(
                    f"parallel round scheduling degraded to serial: {exc}"
                )
                self.execute(stop=end)
            pos = end

    def _run_segment_parallel(
        self, pool, pos: int, end: int, l1: int, v_sub: int, policy=None
    ) -> None:
        """Dispatch one segment's clusters to the pool and merge in order.

        The shifted sub-program (labels ``- l1``, bodies wrapped to see
        global pids) is pickled once; each cluster's task adds only its
        context/pending slices.  Raises ``PoolUnavailable`` before any
        state is mutated, so the caller can rerun the segment serially.
        """
        from repro.parallel.pool import dumps_payload

        sim = self.sim
        counters_on = self.counters is not NULL_COUNTERS
        want_spans = self.tracer is not NULL_TRACER
        steps = self.steps
        sub_steps = [
            Superstep(
                s.label - l1, s.body, name=s.name, array_body=s.array_body
            )
            for s in steps[pos:end]
        ]
        sub_label_set = [
            lab - l1 for lab in self.smoothed.label_set if lab >= l1
        ]
        common = dumps_payload(
            (
                sim.f,
                sim.c2,
                sim.check_invariants,
                v_sub,
                self.mu,
                l1,
                sub_steps,
                sub_label_set,
                counters_on,
                self.v,
                self.program.array_schema,
                sim.kernel,
            )
        )
        payloads = []
        for j in range(1 << l1):
            offset = j * v_sub
            args = (
                common,
                offset,
                self.contexts[offset : offset + v_sub],
                self.pending[offset : offset + v_sub],
                want_spans,
            )
            payloads.append(dumps_payload(("hmm-segment", args)))
        futures = pool.submit_many("hmm-segment", payloads)
        results = pool.gather_ordered(
            futures, kind="hmm-segment", payloads=payloads, policy=policy
        )
        for j, result in enumerate(results):
            self._merge_segment_result(
                j, v_sub, l1, end, result, want_spans, counters_on
            )

    def _merge_segment_result(
        self,
        j: int,
        v_sub: int,
        l1: int,
        end: int,
        result,
        want_spans: bool,
        counters_on: bool,
    ) -> None:
        """Fold cluster ``j``'s worker result back into the parent run.

        The worker's final round closed without the inter-cluster swaps
        (its sub-program simply ends); serially those swaps happen
        *inside* that round's span.  So the tape replay stops before the
        final close, the parent performs the swaps against its real slot
        layout (the only parent-side slot mutation — worker-internal
        swaps net to identity by segment end), then closes the span.
        """
        w_contexts, w_pending, tape, rounds, w_counters = result
        offset = j * v_sub
        self.contexts[offset : offset + v_sub] = w_contexts
        if offset:
            pending = self.pending
            for k, box in enumerate(w_pending):
                pending[offset + k] = [
                    Message(m.src + offset, m.payload) for m in box
                ]
        else:
            self.pending[:v_sub] = w_pending
        next_step = self.next_step
        for pid in range(offset, offset + v_sub):
            next_step[pid] = end
        self.round_index += rounds
        if counters_on and w_counters:
            self.counters.merge(w_counters)
        if want_spans:
            self._replay_span_tape(tape)
        else:
            machine = self.machine
            t = machine.time
            for c in tape:
                t += c
            machine.time = t
        self._cycle_swaps(l1, 0, offset, v_sub)
        if want_spans:
            self.tracer.close()

    def _replay_span_tape(self, entries) -> None:
        """Re-fold a worker's span tape onto the parent clock and tracer.

        Leaves carry their elementary charge operands; markers re-open
        and re-close the worker's spans so the phase breakdown (including
        per-span self-cost rounding into ``other``) matches the serial
        trace exactly.  The final close is skipped — the caller supplies
        the deferred inter-cluster swaps and then closes the round span.
        """
        machine = self.machine
        tracer = self.tracer
        assert entries and entries[-1] == ("c",)
        for entry in entries[:-1]:
            kind = entry[0]
            if kind == "l":
                t = t0 = machine.time
                for c in entry[3]:
                    t += c
                machine.time = t
                tracer.add_leaf(entry[1], entry[2], t0, t)
            elif kind == "o":
                tracer.open(entry[1], entry[2])
            else:
                tracer.close()

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
