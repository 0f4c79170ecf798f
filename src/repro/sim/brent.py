"""D-BSP self-simulation — the analogue of Brent's lemma (Section 4).

Guest: a program for ``D-BSP(v, mu, g(x))``.  Host: a
``D-BSP(v', mu v / v', g(x))`` with ``v' <= v``, same aggregate memory,
whose individual processors are regarded as ``g(x)``-HMMs of size
``mu v / v'``.  Host processor ``P_j`` simulates guest cluster
``C_j^(log v')``, keeping the ``v / v'`` guest contexts as blocks of its
local hierarchical memory.

The program is split into maximal *runs* of supersteps whose labels are
either all ``< log v'`` (coarse runs — real host communication happens) or
all ``>= log v'`` (fine runs — entirely local to each host processor):

* each i-superstep of a coarse run becomes a host i-superstep (cycle the
  guest contexts through the top of the local memory, execute bodies, ship
  an ``h v/v'``-relation) followed by a host ``log v'``-superstep that
  files received messages into the destination guests' context blocks;
* a fine run is handed verbatim (labels shifted by ``log v'``) to the
  Section 3 HMM-simulation scheme running inside every host processor;
  the run costs what its slowest host charges.

Theorem 10: the host time is
``O((v/v')(tau + mu sum_i lambda_i g(mu v / 2^i)))``; for *full* programs
(every superstep routes a Theta(mu)-relation — fine-grained programs are
full) this is an optimal ``Theta(T v / v')`` slowdown (Corollary 11),
showing that D-BSP with hierarchical memory integrates network and memory
hierarchies seamlessly.

**Execution.**  Every charge of the scheme is fixed by the program's
label and dummy sequence, except what the bodies contribute: their local
times and the endpoints of the messages they send.  The schedule is
therefore compiled once per ``(g, v, mu, v', c2, labels, dummy flags)``
into a plan kept in the kernel's one plan cache
(:func:`repro.sim.kernel.cached_plan`, under ``"brent"``): the maximal
runs, each coarse superstep's message cost ``g(mu v / 2^i)``, the
per-guest cycling and filing costs, the host clock's
:class:`~repro.sim.kernel.Tape` (its gather, the scheme's span table and
counter amounts), and for every fine run the Section 3
:class:`~repro.sim.hmm_vec.ChargePlan` of its smoothed, shifted local
program — taken from the same cache under ``"vec"`` and priced with
``g``.  A run then

1. executes every body once, superstep-major, over the whole guest
   machine (:func:`repro.sim.kernel.run_bodies`) — the contexts and
   inboxes of any schedule that keeps each guest's supersteps in order,
   the host-by-host one included;
2. folds each coarse superstep: a host's local time is a row of one
   :func:`~repro.sim.kernel.fold` over its guests' interleaved
   (cycling, local) charges, ``h`` is the largest per-host send or
   receive count, and filing is a ``bincount`` of the destination
   blocks' access costs in sender order;
3. folds each fine run's per-host Section 3 charge streams as the rows
   of one tape from the ``vec`` kernel's assembler (padding at a row's
   end adds 0.0, leaving its sum unchanged) and charges the largest row;
4. folds the host clock's tape and, at ``phases``/``full``, reads the
   breakdown (and at ``full`` the spans) from its span table over the
   folded clock (:meth:`Tape.trace <repro.sim.kernel.Tape.trace>`).

The pass indexes the original program's supersteps, so it is kept on
the result (``BrentSimResult.body_pass``) and :func:`repro.run` folds
the direct baseline from it without running the bodies again.

What the folds take from the messages alone (each coarse superstep's
``h``-relation and filing charges, the fine runs' delivery charges and
stream layout) is kept with the plan for the last message pattern seen,
so a repeated run only gathers local times and folds.

Each fold adds the same floats in the same order as the host-by-host
scheme, so time, run records, counters, breakdowns and spans are exactly
those of running every host's simulation in turn.

With ``v' = 1`` the scheme is the Section 3 simulation itself, and with
``v' = v`` the host is the guest machine:

>>> from repro.dbsp.machine import DBSPMachine
>>> from repro.functions import PolynomialAccess
>>> from repro.sim.hmm_sim import HMMSimulator
>>> from repro.testing import random_program
>>> g = PolynomialAccess(0.5)
>>> prog = random_program(16, n_steps=6, seed=3)
>>> one = BrentSimulator(g, v_host=1).simulate(prog)
>>> hmm = HMMSimulator(g).simulate(prog)
>>> one.time == hmm.time and one.counters == hmm.counters
True
>>> guest = DBSPMachine(g).run(prog.with_global_sync())
>>> BrentSimulator(g, v_host=16).simulate(prog).time == guest.total_time
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from repro.dbsp.cluster import cluster_size, log2_exact
from repro.dbsp.program import Program, Superstep
from repro.functions import AccessFunction, CostTable
from repro.obs.counters import Counters
from repro.obs.trace import EventRecorder, SpanRecord
from repro.sim.hmm_vec import _assemble, _price, _schedule_for
from repro.sim.kernel import (
    BodyPass,
    Tape,
    cached_plan,
    fold,
    observed,
    run_bodies,
)
from repro.sim.smoothing import build_label_set_hmm, smooth_program

__all__ = [
    "BrentSimulator",
    "BrentSimResult",
    "RunRecord",
    "BRENT_PHASES",
]

#: phase categories of the Theorem 10 scheme: ``compute`` (cycling guest
#: contexts through the host HMMs + body execution), ``communication``
#: (the host (h v/v')-relations), ``filing`` (the extra log v'-superstep
#: filing received messages), ``fine`` (whole fine runs, simulated by the
#: embedded Section 3 scheme)
BRENT_PHASES = ("compute", "communication", "filing", "fine")


@dataclass(frozen=True)
class RunRecord:
    """Accounting for one maximal run of supersteps."""

    kind: str  #: "coarse" (labels < log v') or "fine" (labels >= log v')
    first_step: int
    n_steps: int
    host_time: float


@dataclass
class BrentSimResult:
    """Outcome of the self-simulation."""

    contexts: list[dict]
    time: float
    v_host: int
    runs: list[RunRecord] = field(default_factory=list)
    #: per-phase charged time (view over the span trace); empty when
    #: observability is off
    breakdown: dict[str, float] = field(default_factory=dict)
    #: event counters, including those of the embedded HMM simulations
    counters: dict[str, int | float] = field(default_factory=dict)
    #: recorded spans (``trace="full"`` only)
    spans: list[SpanRecord] = field(default_factory=list)
    #: the run's body pass, indexed by the steps of
    #: ``program.with_global_sync()`` — ``None`` at ``v' = v``, which
    #: is a direct run
    body_pass: BodyPass | None = None

    def slowdown(self, guest_time: float) -> float | None:
        """``None`` when the guest time is zero (no meaningful ratio)."""
        return self.time / guest_time if guest_time > 0 else None


class BrentSimulator:
    """Theorem 10's self-simulation engine: one body pass plus a few
    array folds."""

    def __init__(
        self,
        g: AccessFunction,
        v_host: int,
        c2: float = 0.5,
        trace: Literal["off", "counters", "phases", "full"] = "phases",
    ):
        self.g = g
        self.v_host = v_host
        self.c2 = c2
        log2_exact(v_host)  # raises unless v' is a power of two
        if trace not in ("off", "counters", "phases", "full"):
            raise ValueError(f"unknown trace level {trace!r}")
        self.trace = trace

    def simulate(self, program: Program) -> BrentSimResult:
        """Simulate ``program`` on ``D-BSP(v', mu v/v', g)``; charge host time."""
        v, v_host = program.v, self.v_host
        if v_host > v:
            raise ValueError(f"host width {v_host} exceeds guest width {v}")
        if v_host == v:
            # degenerate: the host *is* the guest machine
            from repro.dbsp.machine import DBSPMachine

            run = DBSPMachine(self.g).run(program.with_global_sync())
            breakdown: dict[str, float] = {}
            if self.trace in ("phases", "full"):
                breakdown = dict.fromkeys(BRENT_PHASES, 0.0)
                breakdown.update(run.breakdown)
            return BrentSimResult(
                run.contexts,
                run.total_time,
                v_host,
                breakdown=breakdown,
                counters=dict(run.counters) if self.trace != "off" else {},
            )

        normalized = program.with_global_sync()
        key = (
            self.g, v, normalized.mu, v_host, self.c2,
            tuple((s.label, s.body is None) for s in normalized.supersteps),
        )
        plan = cached_plan("brent", key, lambda: _BrentPlan(*key))
        contexts = normalized.initial_contexts()
        bodies = run_bodies(normalized, contexts, [[] for _ in range(v)])
        clk, messages = plan.fold(bodies)
        runs = [
            RunRecord(kind, first, n, float(clk[end] - clk[start]))
            for kind, first, n, start, end in plan.runs
        ]

        totals, spans = plan.tape.trace(clk, self.trace)
        coarse_messages, fine_messages = messages
        registry = Counters()
        plan.tape.add_counts(
            registry, messages=coarse_messages + fine_messages,
            words_touched=2 * fine_messages,
        )
        breakdown, counters = observed(self.trace, totals, registry, BRENT_PHASES)
        return BrentSimResult(
            contexts=contexts,
            time=float(clk[-1]),
            v_host=v_host,
            runs=runs,
            breakdown=breakdown,
            counters=counters,
            spans=spans,
            body_pass=bodies,
        )


def _planned_body(view) -> None:  # pragma: no cover - never executed
    raise AssertionError("plan programs are compiled, never run")


class _FineRun:
    """One fine run: its Section 3 plan, mapped onto the guest's pass.

    ``plan`` schedules the host-local program (``v/v'`` guests, labels
    shifted by ``log v'``, smoothed as the HMM simulation smooths it);
    it comes from the ``vec`` kernel's schedule cache, and ``prices``
    are its charges under ``g``.  Every host runs the same schedule;
    only the bodies' local times and messages differ, so the hosts'
    charge streams are the rows of one tape from ``vec``'s assembler.
    """

    __slots__ = ("op", "plan", "prices", "hole_src", "guest_step")

    def __init__(self, op: int, first: int, labels, v_host: int, v: int,
                 mu: int, g: AccessFunction, c2: float, table) -> None:
        self.op = op
        per_host = v // v_host
        local = Program(
            per_host, mu,
            [Superstep(label, None if dummy else _planned_body)
             for label, dummy in labels],
        )
        smoothed = smooth_program(
            local, build_label_set_hmm(g, per_host, mu, c2)
        )
        plan = self.plan = _schedule_for(
            per_host, mu, smoothed.program.supersteps
        )
        self.prices = _price(plan, table)
        # local step -> guest step; the closing global sync smoothing may
        # append is a dummy, so it never reaches a hole or a send
        guest_step = np.array(
            [-1 if o is None or o >= len(labels) else first + o
             for o in smoothed.origin],
            dtype=np.int64,
        )
        #: index into the pass's local times of every hole, host-major
        self.hole_src = (
            (guest_step[plan.local_src // per_host] * v
             + plan.local_src % per_host)
            + (np.arange(v_host) * per_host)[:, None]
        ).ravel()
        #: per local step: the guest step it runs (-1 for none)
        self.guest_step = guest_step.tolist()


class _Layout(NamedTuple):
    """The part of a fold that depends on which messages the bodies
    sent (repeated runs of one program send the same ones)."""

    ops: np.ndarray  #: the operand template, coarse message charges in
    #: per fine run: its hosts' tape (one row per host: round by round,
    #: the cycling template with holes for the local times, two endpoint
    #: charges per message the cluster sent, the swap charges) and its
    #: delivery charges
    fine: list[tuple[Tape, np.ndarray]]
    messages: tuple[int, int]  #: sent in coarse supersteps, in fine runs


class _BrentPlan:
    """The body-independent part of one self-simulation.

    ``tape`` folds the host clock: its pool is ``ops`` (per coarse
    superstep its compute, communication and filing charges, per fine
    run its slowest host — prefilled with what those charges are when
    no body sends or charges anything beyond the unit superstep cost),
    then each coarse superstep's compute charge and each fine run's
    charge, which its gather reads in their place.  Its spans are the
    scheme's: a ``coarse-superstep`` span with three leaves per coarse
    superstep, a ``fine-run`` span per fine run.
    """

    def __init__(self, g: AccessFunction, v: int, mu: int, v_host: int,
                 c2: float, steps: tuple[tuple[int, bool], ...]) -> None:
        log_vh = log2_exact(v_host)
        per_host = self.per_host = v // v_host
        self.v = v
        self.v_host = v_host
        mu_host = mu * per_host
        table = CostTable.shared(g, mu_host)  # one host's HMM
        block_cost = [table.range_cost(k * mu, (k + 1) * mu)
                      for k in range(per_host)]
        word_cost = [table.access(k * mu) for k in range(per_host)]
        #: bring guest k's context to the top of its host's HMM and back
        self.cycle_cost = np.array(
            [2.0 * (bc + block_cost[0]) for bc in block_cost]
        )
        #: file one message into guest k's context block
        self.file_cost = np.array(word_cost)

        ops: list[float] = []
        spans = EventRecorder()
        #: (kind, first step, n steps, first op, end op) per maximal run
        self.runs: list[tuple[str, int, int, int, int]] = []
        #: per coarse superstep: (step, its first op, message cost)
        self.coarse: list[tuple[int, int, float]] = []
        self.fine: list[_FineRun] = []
        body_steps, body_ops = [], []
        pos = 0
        while pos < len(steps):
            coarse = steps[pos][0] < log_vh
            end = pos
            while end < len(steps) and (steps[end][0] < log_vh) == coarse:
                end += 1
            start = len(ops)
            for s in range(pos, end) if coarse else ():
                label, dummy = steps[s]
                op = len(ops)
                if not dummy:
                    body_steps.append(s)
                    body_ops.append(op)
                self.coarse.append(
                    (s, op, g(mu_host * cluster_size(v_host, label)))
                )
                ops += [1.0, 0.0, 1.0]
                spans.open("coarse-superstep", None,
                           {"superstep": s, "label": label}, at=op)
                for k, phase in enumerate(("compute", "communication", "filing")):
                    spans.add_leaf(phase, phase, op + k, op + k + 1)
                spans.close(at=op + 3)
            if not coarse:
                self.fine.append(_FineRun(
                    start, pos,
                    [(label - log_vh, dummy) for label, dummy in steps[pos:end]],
                    v_host, v, mu, g, c2, table,
                ))
                ops.append(0.0)
                spans.open("fine-run", "fine",
                           {"first_step": pos, "n_steps": end - pos}, at=start)
                spans.close(at=start + 1)
            self.runs.append(
                ("coarse" if coarse else "fine", pos, end - pos,
                 start, len(ops))
            )
            pos = end
        self.ops = np.array(ops)
        n_ops, n_body = len(ops), len(body_steps)
        gather = np.arange(n_ops)
        gather[body_ops] = np.arange(n_ops, n_ops + n_body)
        gather[[fine.op for fine in self.fine]] = np.arange(
            n_ops + n_body, n_ops + n_body + len(self.fine)
        )
        # the scheme's counter amounts, in the scalar adds' key order:
        # coarse deliveries, then every host's embedded Section 3
        # counters (a run adds its messages, and two words touched per
        # message of a fine run)
        counts = dict.fromkeys(("messages",) if self.coarse else (), 0)
        if any("messages" in fine.plan.counts for fine in self.fine):
            counts.setdefault("words_touched", 0)
            counts.setdefault("messages", 0)
        for fine in self.fine:
            for name, amount in [*fine.plan.counts.items(), ("rounds", fine.plan.R)]:
                counts[name] = counts.get(name, 0) + v_host * amount
        self.tape = Tape(gather, spans.walk(), counts)
        #: every guest of every coarse body step, step-major
        self.body_guests = (
            np.array(body_steps, dtype=np.int64)[:, None] * v + np.arange(v)
        ).ravel()
        # one row per (coarse body step, host): guest by guest, cycle
        # its context to the top (cycle_cost[k]), then run it (its local
        # time, after the per_host cycle costs in the pool)
        guest = np.arange(n_body * v).reshape(n_body * v_host, per_host)
        self.compute = np.stack(
            (guest % per_host, per_host + guest), axis=2
        ).reshape(n_body * v_host, 2 * per_host)
        #: one message pattern's layout (see :meth:`BodyPass.pattern`)
        self._layouts: dict[bytes, _Layout] = {}
        self.pid_type = np.min_scalar_type(v - 1)

    # ------------------------------------------------------------- fold
    def fold(self, bodies: BodyPass) -> tuple[np.ndarray, tuple[int, int]]:
        """The host clock after each operand (``clk[0] = 0.0``), and the
        number of messages sent in coarse supersteps and in fine runs."""
        pattern = bodies.pattern(self.pid_type)
        layout = self._layouts.get(pattern)
        if layout is None:
            layout = self._layout(bodies)
            self._layouts = {pattern: layout}  # keep one pattern resident
        compute = fold(
            self.compute,
            np.concatenate((self.cycle_cost, bodies.local[self.body_guests])),
        )[:, -1].reshape(-1, self.v_host).max(axis=1)
        fine = [
            fold(tape.gather, np.concatenate((
                run.prices.values, bodies.local[run.hole_src], B,
                run.prices.C_all,
            )))[:, -1].max()
            for run, (tape, B) in zip(self.fine, layout.fine)
        ]
        pool = np.concatenate((layout.ops, compute, fine))
        return fold(self.tape.gather, pool), layout.messages

    def _layout(self, bodies: BodyPass) -> _Layout:
        """Charge what the messages cost: each coarse superstep's
        ``h``-relation and filing, and every fine run's host streams."""
        ops = self.ops.copy()
        v_host, per_host = self.v_host, self.per_host
        coarse_messages = 0
        for step, op, message_cost in self.coarse:
            src = bodies.src[step]
            if src is None:
                continue
            dest = bodies.dest[step]
            dest_host = dest // per_host
            h = max(
                np.bincount(src // per_host, minlength=v_host).max(),
                np.bincount(dest_host, minlength=v_host).max(),
            )
            ops[op + 1] = int(h) * message_cost
            ops[op + 2] = np.bincount(
                dest_host, weights=self.file_cost[dest % per_host],
                minlength=v_host,
            ).max() + 1.0
            coarse_messages += len(src)
        fine = []
        for run in self.fine:
            tape, B, _ = _assemble(
                run.plan, run.prices,
                [None if g < 0 else bodies.src[g] for g in run.guest_step],
                [None if g < 0 else bodies.dest[g] for g in run.guest_step],
                v_host,
            )
            fine.append((tape, B))
        fine_messages = sum(len(B) for _, B in fine) // 2
        return _Layout(ops, fine, (coarse_messages, fine_messages))
