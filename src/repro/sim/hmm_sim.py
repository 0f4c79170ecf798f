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

Two invariants hold at the start of every round (proved by Theorem 4;
the schedule walk of :mod:`repro.sim.hmm_vec` asserts the first and the
top-cluster half of the second on every round, and
``check_invariants="full"`` adds the contiguity half):

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

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.dbsp.program import Message, Program
from repro.functions import AccessFunction
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.trace import SpanRecord
from repro.sim.hmm_vec import execute
from repro.sim.kernel import BodyPass, observed, program_pass, run_bodies
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
    #: ``program.with_global_sync()`` — ``None`` when the run started
    #: from ``initial_contexts`` or ``initial_pending``
    body_pass: BodyPass | None = None

    def slowdown(self, dbsp_time: float) -> float | None:
        """Measured slowdown w.r.t. the guest D-BSP running time.

        ``None`` when the guest time is zero (no meaningful ratio) — the
        same convention as :class:`repro.engines.EngineResult.slowdown`.
        """
        return self.time / dbsp_time if dbsp_time > 0 else None


class HMMSimulator:
    """Figure 1's round-based scheduler, operational and fully charged.

    The schedule is walked once per machine shape and label sequence
    and kept compiled (:mod:`repro.sim.hmm_vec`); a run takes the
    bodies' superstep-major pass (kept on the program from its second
    run on) and folds the charged clock from the schedule priced under
    ``f``.  Time, counters, breakdown and spans
    are those of a round loop charging one access at a time, bit for
    bit (``tests/hmm_oracle.py`` keeps that loop, and the identity
    suites compare against it).

    Parameters
    ----------
    f:
        Host access function (must be (2, c)-uniform).
    c2:
        Smoothing constant for the label-set construction (§3).
    check_invariants:
        Theorem 4's Invariants 1-2 for the cluster about to be simulated
        are asserted on every round of the schedule walk, once per
        cached schedule, so every run on it is covered: ``"top"``
        (default) and ``"off"`` both keep that assertion.  ``"full"``
        walks the schedule afresh and also verifies, on every round,
        the contiguity of *every* cluster of the label set (quadratic —
        tests only).  Any other value raises :class:`ValueError`.
    record_trace:
        Capture a :class:`RoundSnapshot` per round (Figure 2 data), at
        most ``max_trace_rounds`` of them, from a fresh schedule walk.
    trace:
        Observability level (:mod:`repro.obs`): ``"phases"`` (default)
        aggregates per-phase cost totals and event counters — this is
        what fills ``breakdown``/``counters`` on the result; ``"full"``
        additionally records every span for export/profiling;
        ``"counters"`` keeps the event counters but drops the span
        layer (what ``python -m repro bench`` measures under);
        ``"off"`` disables the layer entirely (no-op hooks;
        ``breakdown`` and ``counters`` come back empty).

    >>> from repro import run
    >>> from repro.engines import build_program
    >>> from repro.functions import PolynomialAccess
    >>> prog = build_program("sort", 8)
    >>> res = HMMSimulator(PolynomialAccess(0.5), record_trace=True).simulate(prog)
    >>> len(res.trace) == res.rounds
    True
    >>> run(prog, "hmm").time == run(prog, "vec").time
    True
    """

    def __init__(
        self,
        f: AccessFunction,
        c2: float = 0.5,
        check_invariants: Literal["top", "full", "off"] = "top",
        record_trace: bool = False,
        max_trace_rounds: int = 4096,
        trace: Literal["off", "counters", "phases", "full"] = "phases",
    ):
        self.f = f
        self.c2 = c2
        if check_invariants not in ("top", "full", "off"):
            raise ValueError(f"unknown check_invariants {check_invariants!r}")
        self.check_invariants = check_invariants
        self.record_trace = record_trace
        self.max_trace_rounds = max_trace_rounds
        if trace not in ("off", "counters", "phases", "full"):
            raise ValueError(f"unknown trace level {trace!r}")
        self.trace = trace

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
        in-flight messages.  Such a run executes its bodies afresh;
        every other run takes the smoothed program's memoized pass
        (:func:`~repro.sim.kernel.program_pass`).
        """
        if label_set is None:
            label_set = build_label_set_hmm(
                self.f, program.v, program.mu, self.c2
            )
        smoothed = smooth_program(program, label_set)
        prog = smoothed.program
        counters = NULL_COUNTERS if self.trace == "off" else Counters()
        fresh = initial_contexts is None and initial_pending is None
        if fresh:
            bodies, contexts, pending = program_pass(prog)
        else:
            contexts = (
                initial_contexts
                if initial_contexts is not None
                else prog.initial_contexts()
            )
            # inboxes are kept ordered: caller-supplied boxes are sorted once
            pending = (
                [sorted(box) for box in initial_pending]
                if initial_pending is not None
                else [[] for _ in range(prog.v)]
            )
            bodies = run_bodies(prog, contexts, pending)
        snapshots: list[RoundSnapshot] = []
        time, rounds, (totals, spans) = execute(
            prog, self.f, bodies, counters, self.trace,
            self._round_hook(smoothed.label_set, snapshots),
        )
        breakdown, counters = observed(
            self.trace, totals, counters, HMM_PHASES, rounds
        )
        return HMMSimResult(
            contexts=contexts,
            time=time,
            rounds=rounds,
            smoothed=smoothed,
            f=self.f,
            trace=snapshots,
            pending=pending,
            breakdown=breakdown,
            counters=counters,
            spans=spans,
            body_pass=bodies.select(smoothed.original_steps) if fresh else None,
        )

    def _round_hook(self, label_set, snapshots: list[RoundSnapshot]):
        """The schedule walk's per-round hook: a :class:`RoundSnapshot`
        into ``snapshots`` (``record_trace``) and the contiguity check
        (``check_invariants="full"``); ``None`` when neither is asked,
        so the run takes the cached schedule."""
        record, full = self.record_trace, self.check_invariants == "full"
        if not (record or full):
            return None
        cap = self.max_trace_rounds

        def on_round(r, s, label, slot_to_pid, next_step):
            if full:
                _assert_contiguous(slot_to_pid, label_set)
            if record and len(snapshots) < cap:
                snapshots.append(RoundSnapshot(
                    r, s, label, tuple(slot_to_pid), tuple(next_step)
                ))

        return on_round


def _assert_contiguous(slot_to_pid: list[int], label_set) -> None:
    """Invariant 2, second part: parked clusters occupy consecutive blocks.

    Only levels in the smoothed label set matter: an L-smooth program
    never addresses clusters at other levels, and the cycle schedule
    legitimately splits levels strictly between ``i_{s+1}`` and ``i_s``
    while a cycle is in flight (cf. Figure 2's intermediate snapshots).
    """
    pid_to_slot = np.argsort(slot_to_pid)
    for i in label_set:
        size = len(slot_to_pid) >> i
        slots = pid_to_slot.reshape(-1, size)  # row j: cluster j's slots
        split = np.flatnonzero(np.ptp(slots, axis=1) != size - 1)
        if len(split):
            j = int(split[0])
            raise AssertionError(
                f"Invariant 2 violated: cluster C_{j}^({i}) occupies "
                f"non-contiguous slots {sorted(slots[j].tolist())}"
            )
