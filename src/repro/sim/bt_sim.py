"""Simulation of D-BSP programs on the BT machine (Section 5, Figs. 4-7).

The overall schedule is the one of Section 3 (one round simulates one
superstep for one cluster; cycles sweep sibling clusters), but every bulk
move is restructured to use block transfer:

* **Buffers** (Fig. 4): the memory holds ``2v`` blocks — ``v`` contexts
  interspersed with ``v`` empty buffer blocks.  ``UNPACK(i)`` /``PACK(i)``
  create/consume buffer space along the path from level ``i`` to the
  leaves, each with one block transfer per level (cost ``O(mu v / 2^i)``);
  buffer presence at most doubles any context's address, which is harmless
  for (2, c)-uniform access functions.
* **Local computation** (Fig. 6): ``COMPUTE(n)`` brings contexts to the
  top in chunks of size ``c(n) ~ f(mu n)/mu``, recursively — overhead
  ``O(mu n c*(n)) = O(mu n log log(mu n))`` for any ``f(x) = O(x^alpha)``.
* **Communication** (Fig. 7): message delivery sorts the ``Theta(mu |C|)``
  constant-size elements of the cluster by destination tag.  The paper
  uses Approx-Median-Sort [2] (``O(m log m)`` time, ``Theta(m log log m)``
  space); we either charge that bound directly (``sort="ams"``, the
  default — the paper, too, imports the routine as a black box) or run the
  fully operational chunked merge sort of :mod:`repro.bt.sorting`
  (``sort="mergesort"``, an extra ``f*`` factor — see the ablation bench).
  ``ALIGN`` then restores one context per block in ``O(mu n log(mu n))``.

Theorem 12: a fine-grained program with ``lambda_i`` i-supersteps and
local computation ``O(tau)`` is simulated on ``f(x)``-BT, for any
(2, c)-uniform ``f(x) = O(x^alpha)``, in time
``O(v (tau + mu sum_i lambda_i log(mu v / 2^i)))`` — *independent of f*:
block transfer hides the access costs almost completely.

**Execution.**  With ``sort="ams"`` or ``"transpose"`` and chunked
compute, every charge of the scheme is fixed by the schedule except the
bodies' local times, and the schedule depends only on
``(f, v, mu, labels, sort)``.  The round loop is therefore run once per
such key in *recording* mode: no bodies run, and every charge, every
local-time hole, every span event (by stream position), every counter
add and every layout snapshot goes into a
:class:`~repro.sim.kernel.Tape` and its plan, with the Theorem 12
invariants asserted on the way.  Plans live in the kernel's one plan
cache (:func:`repro.sim.kernel.cached_plan`, under ``"bt"``).  A run
then executes the bodies in the shared superstep-major pass
(:func:`repro.sim.kernel.run_bodies`), lays their local times into the
tape's pool and folds it with one ``np.cumsum``
(:func:`~repro.sim.kernel.fold`) — the serial ``t += c`` sums bit for
bit, intermediate clocks included.  The recorded span table is the
one a live :class:`~repro.obs.trace.Tracer` writes, read over the
folded clock: at ``phases``, compiled once per plan, it folds to the
breakdown with two ``np.bincount`` calls
(:func:`~repro.obs.trace.fold_phases`); at ``full`` it also gives the
spans (:func:`~repro.obs.trace.span_records`).  The pass, mapped
back onto the original supersteps, is kept on the result
(``BTSimResult.body_pass``) for :func:`repro.run` to fold the direct
baseline from.  The two ablations run the same round loop *inline*:
bodies at their round, charges straight onto the machine clock, spans
into a live tracer.  ``sort="mergesort"`` must, because its merge sort
charges the machine directly, on the tags of the messages the bodies
send; ``chunked_compute=False`` charges fixed addresses, but through
``machine.touch_range``, past the recording sink.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from repro.bt.machine import BTMachine
from repro.bt.sorting import bt_merge_sort
from repro.dbsp.cluster import cluster_of, cluster_size
from repro.dbsp.program import Message, ProcView, Program
from repro.functions import AccessFunction
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.trace import NULL_TRACER, EventRecorder, SpanRecord, Tracer
from repro.sim.kernel import (
    BodyPass,
    Tape,
    cached_plan,
    deliver_sorted,
    fold,
    observed,
    run_bodies,
)
from repro.sim.smoothing import SmoothedProgram, build_label_set_bt, smooth_program

__all__ = [
    "BTSimulator",
    "BTSimResult",
    "LayoutSnapshot",
    "BT_PHASES",
]

#: phase categories of the Fig. 5 scheme (the breakdown key set)
BT_PHASES = ("pack_unpack", "compute", "delivery", "swaps", "dummies")

@dataclass(frozen=True)
class LayoutSnapshot:
    """Block-level memory layout (drives the Figure 4 rendering).

    ``slots[k]`` is the processor whose context block ``k`` holds, or
    ``None`` for an empty buffer block.
    """

    stage: str
    slots: tuple[int | None, ...]


@dataclass
class BTSimResult:
    """Outcome of simulating a D-BSP program on the ``f(x)``-BT machine."""

    contexts: list[dict]
    time: float
    rounds: int
    smoothed: SmoothedProgram
    f: AccessFunction
    block_transfers: int
    layout_trace: list[LayoutSnapshot] = field(default_factory=list)
    #: charged time attributed to each phase: ``pack_unpack`` (Fig. 4
    #: buffer management), ``compute`` (Fig. 6 chunked local execution,
    #: including the guest's local time), ``delivery`` (Fig. 7 sort +
    #: ALIGN + space dance), ``swaps`` (step 4 cluster swaps), ``dummies``.
    #: A view over the span trace: per-category self-cost totals.
    breakdown: dict[str, float] = field(default_factory=dict)
    #: event counters (block transfers, words moved, messages, ...) —
    #: empty when observability is off
    counters: dict[str, int | float] = field(default_factory=dict)
    #: recorded spans (``trace="full"`` only)
    spans: list[SpanRecord] = field(default_factory=list)
    #: the run's body pass, indexed by the steps of
    #: ``program.with_global_sync()`` — ``None`` for the two ablations,
    #: which run each body at its round
    body_pass: BodyPass | None = None

    def slowdown(self, dbsp_time: float) -> float | None:
        """``None`` when the guest time is zero (no meaningful ratio)."""
        return self.time / dbsp_time if dbsp_time > 0 else None


class BTSimulator:
    """Figure 5's revised round scheduler on an operational BT machine.

    Parameters
    ----------
    f:
        Host access function; the analysis requires ``f(x) = O(x^alpha)``
        for some constant ``alpha < 1``.
    sort:
        ``"ams"`` charges Approx-Median-Sort's ``O(m log m)`` bound for
        each delivery sort (the paper's accounting); ``"mergesort"`` runs
        the operational chunked merge sort of :mod:`repro.bt.sorting`;
        ``"transpose"`` charges the rational-permutation routine of [2]
        (``Theta(m f*(m))``) instead of sorting — valid ONLY for programs
        whose supersteps route fixed regular permutations known in
        advance, e.g. the recursive FFT's transposes (the Section 6
        improvement; the engine cannot check this precondition).
    chunked_compute:
        Disable to replace ``COMPUTE``'s chunked recursion with one
        context at a time brought to the top by direct accesses — the
        ablation showing why Fig. 6 matters.
    """

    def __init__(
        self,
        f: AccessFunction,
        sort: Literal["ams", "mergesort", "transpose"] = "ams",
        chunked_compute: bool = True,
        c2: float = 0.75,
        check_invariants: bool = True,
        record_layout: bool = False,
        max_layout_snapshots: int = 512,
        trace: Literal["off", "counters", "phases", "full"] = "phases",
    ):
        self.f = f
        self.sort = sort
        self.chunked_compute = chunked_compute
        self.c2 = c2
        self.check_invariants = check_invariants
        self.record_layout = record_layout
        self.max_layout_snapshots = max_layout_snapshots
        if trace not in ("off", "counters", "phases", "full"):
            raise ValueError(f"unknown trace level {trace!r}")
        self.trace = trace

    def simulate(
        self, program: Program, label_set: list[int] | None = None
    ) -> BTSimResult:
        if label_set is None:
            label_set = build_label_set_bt(self.f, program.v, program.mu, self.c2)
        smoothed = smooth_program(program, label_set)
        run = _BTSimRun(self, smoothed)
        totals, spans = run.execute()
        breakdown, counters = observed(
            self.trace, totals, run.counters, BT_PHASES, run.round_index
        )
        return BTSimResult(
            contexts=run.contexts,
            time=run.machine.time,
            rounds=run.round_index,
            smoothed=smoothed,
            f=self.f,
            block_transfers=run.machine.block_transfers,
            layout_trace=run.layout_trace,
            breakdown=breakdown,
            counters=counters,
            spans=spans,
            body_pass=run.body_pass,
        )


# ---------------------------------------------------------------- sinks
# The round loop reports every charge and counter add to a sink, and
# every span to the sink's tracer.  The run itself is the inline sink
# (charges straight onto the machine clock, spans and counters to its
# live tracer and registry); _Recorder writes them into a tape.

class _Recorder:
    """Writes the round loop's charges into a tape, by stream position.

    ``now()`` is the number of operands emitted so far: the spans go to
    an :class:`~repro.obs.trace.EventRecorder` over positions.  A round
    replays the same few dozen distinct charges, so the stream is kept
    as codes into its distinct values, and ``-1`` for a hole (the next
    local time of ``hole_src``).  Everything is appended to flat typed
    arrays: recording a long run creates no Python object per charge.
    """

    recording = True

    def __init__(self) -> None:
        self.values: dict[float, int] = {}
        self.codes = array("i")
        self.hole_src: list[np.ndarray] = []
        self.tracer = EventRecorder(clock=self.now)
        self.counts = Counters()
        self.count = self.counts.add

    def charge(self, cost: float) -> None:
        code = self.values.get(cost)
        if code is None:
            code = self.values[cost] = len(self.values)
        self.codes.append(code)

    def now(self) -> int:
        return len(self.codes)

    def bodies(self, flat: list, src: np.ndarray) -> None:
        """A COMPUTE stream ``flat`` whose ``None`` entries are the
        local times of ``local[src]``, in order."""
        self.hole_src.append(src)
        for cost in flat:
            if cost is None:
                self.codes.append(-1)
            else:
                self.charge(cost)


class _BTPlan(NamedTuple):
    """The recorded, body-independent part of one BT simulation run.

    The tape's pool is ``values`` followed by the body pass's local
    times at ``hole_src``; its counts leave ``messages`` at zero (the
    pass's send count is added per run).
    """

    tape: Tape
    values: np.ndarray
    hole_src: np.ndarray
    block_transfers: int
    rounds: int
    layout: tuple


class _BTSimRun:
    """Mutable state of one BT simulation run."""

    #: memory provisioning in blocks, as a multiple of v (contexts + buffers
    #: + sorting workspace; the paper assumes Theta(v log log v) memory)
    SLOT_FACTOR = 4

    def __init__(self, sim: BTSimulator, smoothed: SmoothedProgram):
        self.sim = sim
        self.smoothed = smoothed
        program = smoothed.program
        self.program = program
        self.v = program.v
        self.mu = program.mu
        self.steps = program.supersteps
        self.n_slots = self.SLOT_FACTOR * self.v
        if sim.trace == "off":
            self.counters = NULL_COUNTERS
        else:
            self.counters = Counters()
        self.machine = BTMachine(
            sim.f, self.n_slots * self.mu, op_cost=0.0, counters=self.counters
        )
        # the live tracer serves the inline ablations; a planned run
        # reads its spans from the plan's tape
        if sim.trace in ("off", "counters") or self._plannable():
            self.tracer = NULL_TRACER
        else:
            machine = self.machine
            self.tracer = Tracer(
                clock=lambda: machine.time, record=(sim.trace == "full")
            )
        #: slots[k]: pid whose context occupies block k, or None if empty
        self.slots: list[int | None] = list(range(self.v)) + [None] * (
            self.n_slots - self.v
        )
        self.pid_to_slot = list(range(self.v))
        self.contexts = program.initial_contexts()
        self.pending: list[list[Message]] = [[] for _ in range(self.v)]
        self.next_step = [0] * self.v
        self.round_index = 0
        self.layout_trace: list[LayoutSnapshot] = []
        # the Fig. 5/6 recursion replays the same (src, dst, n_blocks)
        # moves every round: memoize each triple's charged cost (the table
        # is immutable, so the cached float is the exact value
        # block_copy_cost would recompute), and batch the per-move counter
        # updates into one flush at the end of the round loop
        self._move_cost: dict[tuple[int, int, int], float] = {}
        self._n_moves = 0
        self._moved_words = 0
        #: COMPUTE(n) charging plans, keyed by n (see _build_compute_plan)
        self._compute_plans: dict[int, tuple] = {}
        self.sink: _BTSimRun | _Recorder = self
        self.count = self.counters.add
        self._checking = sim.check_invariants
        #: the planned path's body pass (see ``BTSimResult.body_pass``)
        self.body_pass: BodyPass | None = None
        self._snapshot("initial")

    # ----------------------------------------------------- the inline sink
    recording = False

    def charge(self, cost: float) -> None:
        self.machine.time += cost

    def now(self) -> float:
        return self.machine.time

    # ------------------------------------------------------------- helpers
    def _word(self, slot: int) -> int:
        return slot * self.mu

    def _snapshot(self, stage: str) -> None:
        if self.sim.record_layout and len(self.layout_trace) < self.sim.max_layout_snapshots:
            self.layout_trace.append(
                LayoutSnapshot(stage, tuple(self.slots[: 2 * self.v]))
            )

    def _charged_block_move(self, src: int, dst: int, n_blocks: int) -> None:
        """Move ``n_blocks`` context blocks ``src -> dst`` (one transfer).

        The destination blocks must be empty and disjoint from the source.
        Source blocks become empty.
        """
        if n_blocks <= 0:
            return
        machine = self.machine
        key = (src, dst, n_blocks)
        cost = self._move_cost.get(key)
        if cost is None:
            cost = machine.block_copy_cost(
                self._word(src), self._word(dst), n_blocks * self.mu
            )
            self._move_cost[key] = cost
        self.sink.charge(cost)
        machine.block_transfers += 1
        self._n_moves += 1
        self._moved_words += n_blocks * self.mu
        # slot bookkeeping via slice exchange (host-side only, no charging)
        slots = self.slots
        moved = slots[src : src + n_blocks]
        if slots[dst : dst + n_blocks].count(None) != n_blocks:
            for k in range(n_blocks):
                if slots[dst + k] is not None:
                    raise AssertionError(
                        f"block move {src}+{n_blocks}->{dst}: destination "
                        f"block {dst + k} is not empty"
                    )
        slots[dst : dst + n_blocks] = moved
        slots[src : src + n_blocks] = [None] * n_blocks
        pid_to_slot = self.pid_to_slot
        for k, pid in enumerate(moved):
            if pid is not None:
                pid_to_slot[pid] = dst + k

    def _swap_blocks_via_scratch(self, a: int, b: int, n_blocks: int) -> None:
        """Swap block ranges a/b using a nearby empty run: 3 block transfers."""
        scratch = self._find_empty_run(b, n_blocks, forbid=[(a, n_blocks), (b, n_blocks)])
        self._charged_block_move(a, scratch, n_blocks)
        self._charged_block_move(b, a, n_blocks)
        self._charged_block_move(scratch, b, n_blocks)

    def _find_empty_run(
        self, near: int, n_blocks: int, forbid: list[tuple[int, int]]
    ) -> int:
        """Nearest run of ``n_blocks`` empty slots to slot ``near``.

        The buffer layout (Fig. 4) guarantees an empty run of the needed
        size within O(near) blocks of any parked cluster, so the scratch
        the swap uses costs the same order as the swap itself.
        """

        def usable(start: int) -> bool:
            if start < 0 or start + n_blocks > self.n_slots:
                return False
            for flo, fn in forbid:
                if start < flo + fn and flo < start + n_blocks:
                    return False
            return all(
                self.slots[k] is None for k in range(start, start + n_blocks)
            )

        for dist in range(self.n_slots):
            if usable(near + dist):
                return near + dist
            if dist and usable(near - dist):
                return near - dist
        raise AssertionError(
            f"no empty run of {n_blocks} blocks available for a swap"
        )

    # ------------------------------------------------------ PACK / UNPACK
    def _leaf(self, name: str, category: str, start) -> None:
        """A leaf span from ``start`` to the sink's clock now."""
        self.sink.tracer.add_leaf(name, category, start, self.sink.now())

    def unpack(self, i: int) -> None:
        """Fig. 4: intersperse buffers through the topmost i-cluster."""
        t0 = self.sink.now()
        log_v = self.program.log_v
        level = i
        while level < log_v:
            n = cluster_size(self.v, level)
            self._charged_block_move(n // 2, n, n // 2)
            level += 1
        self._leaf("UNPACK", "pack_unpack", t0)

    def pack(self, i: int) -> None:
        """Reverse of :meth:`unpack`: compact the topmost i-cluster."""
        t0 = self.sink.now()
        log_v = self.program.log_v
        for level in range(log_v - 1, i - 1, -1):
            n = cluster_size(self.v, level)
            self._charged_block_move(n, n // 2, n // 2)
        self._leaf("PACK", "pack_unpack", t0)

    # --------------------------------------------------------------- main
    def _plannable(self) -> bool:
        """Whether every charge but the bodies' local times is fixed by
        the schedule (not so for the two ablations)."""
        return self.sim.sort != "mergesort" and self.sim.chunked_compute

    def execute(self) -> tuple[dict[str, float], list[SpanRecord]]:
        """Run the simulation; returns its phase totals and spans."""
        if not self._plannable():
            self._rounds()
            self.tracer.assert_closed()
            return self.tracer.totals, self.tracer.spans
        return self._run_plan(self._plan())

    def _plan(self) -> _BTPlan:
        """The cached plan of this run's key, recorded on a miss."""
        sim = self.sim
        key = (
            # an instrumented subclass records its own plans
            type(self),
            sim.f,
            self.v,
            self.mu,
            tuple((s.label, s.body is None) for s in self.steps),
            sim.sort,
            sim.max_layout_snapshots if sim.record_layout else None,
        )
        return cached_plan("bt", key, self._record)

    def _record(self) -> _BTPlan:
        """Run the round loop without bodies, into a new plan."""
        rec = self.sink = _Recorder()
        self._checking = True  # the Thm 12 invariants, once per plan
        self._rounds()
        # the hole operands follow the distinct values in the pool
        gather = np.array(rec.codes, dtype=np.int64)
        holes = gather < 0
        n_pool = len(rec.values) + int(holes.sum())
        gather[holes] = np.arange(len(rec.values), n_pool)
        return _BTPlan(
            Tape(
                gather.astype(np.min_scalar_type(n_pool)),
                rec.tracer.walk(),
                rec.counts.snapshot(),
            ),
            np.array(list(rec.values), dtype=np.float64),
            np.concatenate(rec.hole_src or [np.empty(0, dtype=np.int64)]),
            self.machine.block_transfers,
            self.round_index,
            tuple(self.layout_trace),
        )

    def _run_plan(
        self, plan: _BTPlan
    ) -> tuple[dict[str, float], list[SpanRecord]]:
        """Run the bodies in the shared pass and fold the plan's tape;
        returns the phase totals and spans read from its span table."""
        bodies = run_bodies(self.program, self.contexts, self.pending)
        self.body_pass = bodies.select(self.smoothed.original_steps)
        machine = self.machine
        pool = np.concatenate((plan.values, bodies.local[plan.hole_src]))
        clk = fold(plan.tape.gather, pool, machine.time)
        machine.block_transfers = plan.block_transfers
        self.round_index = plan.rounds
        self.layout_trace = list(plan.layout)
        plan.tape.add_counts(
            self.counters,
            messages=sum(len(s) for s in bodies.src if s is not None),
        )
        machine.time = float(clk[-1])
        return plan.tape.trace(clk, self.sim.trace)

    def _rounds(self) -> None:
        """The Fig. 5 round loop, reporting every charge to the sink."""
        n_steps = len(self.steps)
        sink = self.sink
        tracer = sink.tracer
        self.unpack(0)  # step 0 of Fig. 5
        self._snapshot("unpack(0)")
        while True:
            top_pid = self.slots[0]
            assert top_pid is not None
            s = self.next_step[top_pid]
            if s >= n_steps:
                break
            label = self.steps[s].label
            csize = cluster_size(self.v, label)
            first_pid = cluster_of(top_pid, self.v, label) * csize

            self.round_index += 1
            tracer.open(
                "round",
                None,
                {"superstep": s, "label": label, "cluster": first_pid // csize}
                if tracer.record
                else None,
            )
            self.pack(label)  # step 1.a
            if self._checking:
                self._check_invariants(s, first_pid, csize)

            self._simulate_superstep(s, first_pid, csize)  # step 2

            if self.next_step[self.slots[0]] >= n_steps:  # step 3
                tracer.close()
                break
            if s + 1 < n_steps:
                next_label = self.steps[s + 1].label
                if next_label < label:  # step 4
                    self._cycle_swaps(label, next_label, first_pid, csize)
            self.unpack(label)  # step 5: UNPACK(is)
            tracer.close()
            self._snapshot(f"round {self.round_index} end")
        if self._n_moves:
            sink.count("block_transfers", self._n_moves)
            sink.count("words_moved", self._moved_words)
            self._n_moves = 0
            self._moved_words = 0

    # ---------------------------------------------------- step 2 (Fig. 7)
    def _simulate_superstep(self, s: int, first_pid: int, csize: int) -> None:
        sink = self.sink
        # the cluster stays on top through the superstep (COMPUTE
        # restores the layout)
        for k in range(csize):
            self.next_step[self.slots[k]] += 1
        if self.steps[s].is_dummy:
            t0 = sink.now()
            sink.charge(float(csize))
            self._leaf("dummy", "dummies", t0)
            sink.count("dummy_supersteps")
            return

        outgoing: list[tuple[int, Message]] = []
        t0 = sink.now()
        self._compute(csize, s, outgoing)
        self._leaf("COMPUTE", "compute", t0)
        sink.tracer.open("DELIVER", "delivery")
        self._deliver_messages(csize, outgoing)
        sink.tracer.close()
        # recording runs no bodies (outgoing stays empty): the plan adds
        # the body pass's send count instead
        sink.count("messages", len(outgoing))

    # ------------------------------------------------------------- Fig. 6
    def _chunk_size(self, n: int) -> int:
        """``c(n)``: greatest power of two <= min(f(mu n)/mu, n/2)."""
        bound = min(self.machine.f(self.mu * n) / self.mu, n / 2)
        if bound < 1.0:
            return 1
        return 1 << (int(bound).bit_length() - 1)

    def _compute(self, n: int, s: int, outgoing: list) -> None:
        """Run superstep ``s``'s bodies for the packed top ``n`` blocks."""
        if not self.sim.chunked_compute:
            # ablation: access each context at its resting depth directly
            for k in range(n):
                lo = self._word(k)
                self.machine.touch_range(lo, lo + self.mu)
                self.machine.touch_range(lo, lo + self.mu)
                self._run_body(self.slots[k], s, outgoing)
            return
        plan = self._compute_plans.get(n)
        if plan is None:
            plan = self._build_compute_plan(n)
            self._compute_plans[n] = plan
        flat, order, n_moves, moved_words = plan
        machine = self.machine
        slots = self.slots
        if self.sink.recording:
            self.sink.bodies(
                flat,
                np.array([s * self.v + slots[k] for k in order], dtype=np.int64),
            )
        else:
            origins = iter(order)
            t = machine.time
            for cost in flat:
                if cost is None:  # the next body runs here
                    machine.time = t
                    self._run_body(slots[next(origins)], s, outgoing)
                    t = machine.time
                else:
                    t += cost
            machine.time = t
        machine.block_transfers += n_moves
        self._n_moves += n_moves
        self._moved_words += moved_words
        self.sink.count("words_touched", 2 * self.mu * len(order))

    def _build_compute_plan(self, n: int) -> tuple[list, list[int], int, int]:
        """Precompute COMPUTE(n)'s charged move/touch sequence (Fig. 6).

        The chunked recursion's block moves depend only on ``n`` — the
        identical geometry replays every round — so it is simulated once
        on a virtual slot array, producing (a) the charge stream: the
        charged floats, each exactly what ``block_copy_cost`` /
        ``touch_range`` would charge, in the same order (replaying keeps
        the charged time bit-identical to running the recursion), with
        ``None`` where a body executes; (b) the *order*: for the k-th
        body executed, the slot its context occupies at round start.
        The recursion returns every block to its starting slot (asserted
        below), so replays skip the per-move slot bookkeeping entirely.
        """
        mu = self.mu
        machine = self.machine
        vslots: list[int | None] = list(range(n)) + [None] * (self.n_slots - n)
        flat: list[float | None] = []
        order: list[int] = []
        counts = [0, 0]  # block transfers, words moved
        top_touch = machine.table.range_cost(0, mu)

        def move(src: int, dst: int, n_blocks: int) -> None:
            if n_blocks <= 0:
                return
            if any(x is not None for x in vslots[dst : dst + n_blocks]):
                raise AssertionError(
                    f"compute plan {n}: move {src}+{n_blocks}->{dst} hits "
                    f"a non-empty destination block"
                )
            flat.append(
                machine.block_copy_cost(src * mu, dst * mu, n_blocks * mu)
            )
            counts[0] += 1
            counts[1] += n_blocks * mu
            vslots[dst : dst + n_blocks] = vslots[src : src + n_blocks]
            vslots[src : src + n_blocks] = [None] * n_blocks

        def shift(lo: int, hi: int, delta: int) -> None:
            # shift blocks [lo, hi) by delta in chunks of |delta|
            if delta == 0 or hi <= lo:
                return
            step = abs(delta)
            if delta > 0:
                pos = hi
                while pos > lo:
                    length = min(step, pos - lo)
                    move(pos - length, pos - length + delta, length)
                    pos -= length
            else:
                pos = lo
                while pos < hi:
                    length = min(step, hi - pos)
                    move(pos, pos + delta, length)
                    pos += length

        def swap_partial(a: int, b: int, length: int, c: int) -> None:
            # swap `length` blocks at a/b through the free run at [c, 2c)
            if length:
                move(a, c, length)
            move(b, a, length)
            move(c, b, length)

        def rec(m: int) -> None:
            if m == 1:
                # context at block 0: run the body with near-top accesses
                flat.extend((top_touch, top_touch, None))
                order.append(vslots[0])
                return
            c = self._chunk_size(m)
            # shift blocks [c, m) right by c, freeing [c, 2c)
            shift(c, m, c)
            rec(c)
            n_chunks = -(-(m - c) // c)  # remaining chunks, now at [2c, m + c)
            for j in range(n_chunks):
                lo = 2 * c + j * c
                length = min(c, (m + c) - lo)
                swap_partial(0, lo, length, c)
                rec(length)
                swap_partial(lo, 0, length, c)
            shift(2 * c, m + c, -c)

        rec(n)
        assert vslots[:n] == list(range(n)), "COMPUTE must restore the layout"
        return flat, order, counts[0], counts[1]

    def _run_body(self, pid: int, s: int, outgoing: list) -> None:
        step = self.steps[s]
        inbox = self.pending[pid]  # kept ordered at delivery time
        self.pending[pid] = []
        view = ProcView(pid, self.v, self.mu, step.label, self.contexts[pid], inbox)
        step.body(view)
        self.machine.charge(view.local_time)
        outgoing.extend(view.outbox)

    # ------------------------------------------------------------- Fig. 7
    def _sort_space(self, m: int) -> int:
        """``L(i_s)``: workspace (in words) for the delivery sort of m elements."""
        if self.sim.sort == "mergesort":
            return 2 * m  # merge sort: data copy + scratch
        return int(m * max(1.0, math.log2(max(math.log2(max(m, 2)), 2))))

    def _deliver_messages(self, csize: int, outgoing: list) -> None:
        """Sort-based delivery of the superstep's messages (Fig. 7)."""
        machine = self.machine
        sink = self.sink
        mu = self.mu
        m = mu * csize  # elements to sort (constant-size context pieces)
        words_avail = (self.n_slots - csize) * mu
        space = min(self._sort_space(m), words_avail)

        # space dance (Fig. 7): UNPACK(is); PACK(ik); shift the blocks below
        # the cluster out of the way, opening an L(is)-word gap for sorting.
        # All of it is O(L(is)) block-transfer work, dominated by the sort.
        if space > csize * mu:
            t0 = sink.now()
            sink.charge(4.0 * space)
            self._leaf("space-dance", "delivery", t0)

        if self.sim.sort == "ams":
            # Approx-Median-Sort bound of [2]: O(m log m) for f = O(x^alpha)
            t0 = sink.now()
            sink.charge(m * math.log2(max(m, 2)))
            self._leaf("sort", "delivery", t0)
        elif self.sim.sort == "transpose":
            # Section 6: the superstep routes a known rational permutation,
            # delivered by [2]'s routine at Theta(m f*(m)); no ALIGN needed
            # since regular routing leaves context sizes unchanged
            t0 = sink.now()
            sink.charge(float(m) * self.sim.f.star(m))
            self._leaf("transpose-route", "delivery", t0)
            deliver_sorted(self.pending, outgoing)
            return
        else:
            # operational delivery sort: order the cluster's elements by
            # destination tag with the chunked BT merge sort
            sink.tracer.open("sort")
            base = csize * mu
            tags = [
                (self.pid_to_slot[dest], k)
                for k, (dest, _msg) in enumerate(outgoing)
            ]
            tags.extend((k // mu, mu + k % mu) for k in range(m - len(tags)))
            machine.mem[base : base + m] = tags
            bt_merge_sort(machine, base, m)
            sink.tracer.close()

        # ALIGN(|C|): restore one context per block
        t0 = sink.now()
        sink.charge(self._align_cost(csize))
        self._leaf("ALIGN", "delivery", t0)

        # semantics: file every message into its destination's buffer
        deliver_sorted(self.pending, outgoing)

    def _align_cost(self, n: int) -> float:
        """Cost recursion of ALIGN(n): T(n) = 2 T(n/2) + O(mu n)."""
        machine = self.machine
        total = 0.0
        size = n
        levels = []
        while size > 1:
            levels.append(size)
            size //= 2
        for idx, size in enumerate(levels):
            copies = 1 << idx  # 2^idx subproblems of this size at this depth
            per = (
                3.0 * machine.block_copy_cost(0, self._word(size), size * self.mu // 2)
                if size >= 2
                else float(self.mu)
            )
            # binary search to locate the median context: O(log) accesses
            per += math.log2(max(size * self.mu, 2)) * machine.f(self._word(2 * size))
            total += copies * per
        return total

    # ------------------------------------------------- step 4 of the round
    def _cycle_swaps(
        self, label: int, next_label: int, first_pid: int, csize: int
    ) -> None:
        b = 1 << (label - next_label)
        parent_size = cluster_size(self.v, next_label)
        parent_first = cluster_of(first_pid, self.v, next_label) * parent_size
        j = (first_pid - parent_first) // csize

        sink = self.sink
        t0 = sink.now()
        if j > 0:
            c0_first = parent_first  # pids of C0
            c0_slot = self.pid_to_slot[c0_first]
            self._check_parked(c0_first, c0_slot, csize)
            self._swap_blocks_via_scratch(0, c0_slot, csize)
            sink.count("context_swaps", 2 * csize)
        if j < b - 1:
            nxt_first = parent_first + (j + 1) * csize
            nxt_slot = self.pid_to_slot[nxt_first]
            self._check_parked(nxt_first, nxt_slot, csize)
            self._swap_blocks_via_scratch(0, nxt_slot, csize)
            sink.count("context_swaps", 2 * csize)
        self._leaf("cycle-swaps", "swaps", t0)

    def _check_parked(self, first_pid: int, slot: int, csize: int) -> None:
        if not self._checking:
            return
        if self.slots[slot : slot + csize] != list(
            range(first_pid, first_pid + csize)
        ):
            raise AssertionError(
                f"parked cluster starting at P{first_pid} is not "
                f"contiguous at slots [{slot}, {slot + csize})"
            )

    # ---------------------------------------------------------- invariants
    def _check_invariants(self, s: int, first_pid: int, csize: int) -> None:
        # slice comparisons run at C speed; the scalar loop is only
        # revisited on failure, to name the offending block/processor
        ok = self.slots[:csize] == list(
            range(first_pid, first_pid + csize)
        ) and self.next_step[first_pid : first_pid + csize] == [s] * csize
        if ok:
            return
        for k in range(csize):
            pid = self.slots[k]
            if pid != first_pid + k:
                raise AssertionError(
                    f"Invariant 2 violated at round {self.round_index}: block {k} "
                    f"holds {pid}, expected P{first_pid + k}"
                )
            if self.next_step[pid] != s:
                raise AssertionError(
                    f"Invariant 1 violated at round {self.round_index}: P{pid} at "
                    f"superstep {self.next_step[pid]}, cluster expects {s}"
                )
