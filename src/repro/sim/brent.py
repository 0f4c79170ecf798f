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
into a plan kept in an LRU of its own (:func:`plan_cache_info`): the
maximal runs, each coarse superstep's message cost ``g(mu v / 2^i)``, the
per-guest cycling and filing costs, and for every fine run the Section 3
:class:`~repro.sim.hmm_vec.ChargePlan` of its smoothed, shifted local
program — taken from the ``vec`` kernel's schedule cache and priced
with ``g``.  A run then

1. executes every body once, superstep-major, over the whole guest
   machine (:func:`repro.sim.kernel.run_bodies`) — the contexts and
   inboxes of any schedule that keeps each guest's supersteps in order,
   the host-by-host one included;
2. folds each coarse superstep: a host's local time is a row-wise
   ``cumsum`` over its guests' interleaved (cycling, local) charges,
   ``h`` is the largest per-host send or receive count, and filing is a
   ``bincount`` of the destination blocks' access costs in sender order;
3. folds each fine run's per-host Section 3 charge streams as the rows
   of one 2-D ``cumsum`` (zero padding at a row's end leaves its sum
   unchanged) and charges the largest row;
4. folds the host clock with one ``cumsum`` and, at ``phases``/``full``,
   replays the tracer's spans against it.

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
from repro.obs.trace import SpanRecord, Tracer
from repro.sim.hmm_vec import _price, _schedule_for
from repro.sim.kernel import BodyPass, PlanCache, ranges_concat, run_bodies
from repro.sim.smoothing import build_label_set_hmm, smooth_program

__all__ = [
    "BrentSimulator",
    "BrentSimResult",
    "RunRecord",
    "BRENT_PHASES",
    "plan_cache_info",
]

#: phase categories of the Theorem 10 scheme: ``compute`` (cycling guest
#: contexts through the host HMMs + body execution), ``communication``
#: (the host (h v/v')-relations), ``filing`` (the extra log v'-superstep
#: filing received messages), ``fine`` (whole fine runs, simulated by the
#: embedded Section 3 scheme)
BRENT_PHASES = ("compute", "communication", "filing", "fine")

_PLANS = PlanCache(8)


def plan_cache_info() -> dict:
    """Cached Brent plan count plus lifetime hit/miss/eviction counters
    (process-wide; the Brent counterpart of
    :func:`repro.sim.hmm_vec.plan_cache_info`)."""
    return _PLANS.info()


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
    """Theorem 10's self-simulation engine.

    ``kernel`` is accepted for call compatibility with the HMM engine
    and ignored: the whole simulation is one body pass plus a few array
    folds.
    """

    def __init__(
        self,
        g: AccessFunction,
        v_host: int,
        c2: float = 0.5,
        trace: Literal["off", "counters", "phases", "full"] = "phases",
        kernel: Literal["scalar", "vec"] | None = None,
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
        plan = _PLANS.get(key, lambda: _BrentPlan(*key))
        contexts = normalized.initial_contexts()
        bodies = run_bodies(normalized, contexts, [[] for _ in range(v)])
        clk, messages = plan.fold(bodies)
        runs = [
            RunRecord(kind, first, n, float(clk[end] - clk[start]))
            for kind, first, n, start, end in plan.runs
        ]

        breakdown: dict[str, float] = {}
        counters: dict[str, int | float] = {}
        spans: list[SpanRecord] = []
        if self.trace != "off":
            counters = plan.counters(messages).snapshot()
        if self.trace in ("phases", "full"):
            tracer = plan.replay_spans(
                clk.tolist(), record=(self.trace == "full")
            )
            breakdown = dict.fromkeys(BRENT_PHASES, 0.0)
            breakdown.update(tracer.phase_totals())
            spans = tracer.spans
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


def _ranges(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For groups of ``lengths`` elements laid end to end: each
    element's group and its offset within the group."""
    return (
        np.repeat(np.arange(len(lengths)), lengths),
        ranges_concat(np.zeros(len(lengths), dtype=np.int64), lengths),
    )


def _message_pattern(bodies: BodyPass, pid_type: np.dtype) -> bytes:
    """Every message the pass sent, as one compact byte string: the
    per-step send counts, then all endpoints in ``pid_type`` (the
    smallest type that holds a pid).  Everything a layout holds is a
    function of it."""
    counts = np.array([-1 if src is None else len(src) for src in bodies.src])
    ends = [
        end for src, dest in zip(bodies.src, bodies.dest) if src is not None
        for end in (src, dest)
    ]
    if not ends:
        return counts.tobytes()
    return counts.tobytes() + np.concatenate(ends).astype(pid_type).tobytes()


def _planned_body(view) -> None:  # pragma: no cover - never executed
    raise AssertionError("plan programs are compiled, never run")


class _FineRun:
    """One fine run: its Section 3 plan, mapped onto the guest's pass.

    ``plan`` schedules the host-local program (``v/v'`` guests, labels
    shifted by ``log v'``, smoothed as the HMM simulation smooths it);
    it comes from the ``vec`` kernel's schedule cache, and ``prices``
    are its charges under ``g``.  Every host runs the same schedule;
    only the bodies' local times and messages differ, so host ``j``'s
    charge stream is the plan's templates with host ``j``'s values
    scattered in.
    """

    __slots__ = (
        "op", "plan", "prices", "hole_src", "sends",
        "a_round", "a_rel", "c_round", "c_rel",
    )

    def __init__(self, op: int, first: int, labels, v_host: int, v: int,
                 mu: int, g: AccessFunction, c2: float, costs) -> None:
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
        self.prices = _price(plan, *costs)
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
        #: per non-dummy local step: (guest step, cluster size, the round
        #: simulating each of a host's clusters)
        self.sends = []
        for s, rounds in plan.rounds_of_step.items():
            csize = plan.csize_of_step[s]
            round_of = np.empty(per_host // csize, dtype=np.int64)
            round_of[plan.first[rounds] // csize] = rounds
            self.sends.append((int(guest_step[s]), csize, round_of))
        self.a_round, self.a_rel = _ranges(plan.a_len)
        self.c_round, c_rel = _ranges(plan.c_len)
        # swap charges close their round: offsets from the round's end
        self.c_rel = c_rel - plan.c_len[self.c_round]

    def streams(self, bodies: BodyPass, v_host: int
                ) -> tuple[np.ndarray, np.ndarray, int]:
        """Every host's Section 3 charge stream, local-time holes zero.

        A host's stream is, round by round, the plan's cycling template
        with holes for the local times, then two endpoint charges per
        message the cluster sent, then the round's swap charges — the
        scalar scheme's ``t += c`` sequence from ``t = 0``.  Returns the
        ``(v', width)`` streams (rows zero-padded at the end), the flat
        position of every hole (in :attr:`hole_src` order) and the
        number of messages the run's bodies sent.
        """
        plan, prices = self.plan, self.prices
        n_rounds = plan.R
        per_host = plan.v
        hosts = np.arange(v_host)
        keys, ranks, src_cost, dest_cost = [], [], [], []
        for step, csize, round_of in self.sends:
            src = bodies.src[step]
            if src is None:
                continue
            dest = bodies.dest[step]
            cluster = src // csize  # nondecreasing: sends are pid-major
            keys.append(
                (src // per_host) * n_rounds + round_of[cluster % len(round_of)]
            )
            ranks.append(
                np.arange(len(src)) - np.searchsorted(cluster, cluster)
            )
            # the cluster sits on top sorted by pid: slot = pid mod |C|
            src_cost.append(prices.wc[src & (csize - 1)])
            dest_cost.append(prices.wc[dest & (csize - 1)])
        key = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
        n_msgs = np.bincount(key, minlength=v_host * n_rounds)
        off = np.zeros((v_host, n_rounds + 1), dtype=np.int64)
        np.cumsum(
            plan.a_len + 2 * n_msgs.reshape(v_host, n_rounds) + plan.c_len,
            axis=1, out=off[:, 1:],
        )
        width = int(off[:, -1].max())
        row = (hosts * width)[:, None]
        buf = np.zeros((v_host, width), dtype=np.float64)
        flat = buf.reshape(-1)
        a_pos = row + off[:, self.a_round] + self.a_rel
        flat[a_pos] = prices.values[plan.a_code]
        if prices.C_all.size:
            flat[row + off[:, self.c_round + 1] + self.c_rel] = prices.C_all
        if keys:
            host, rnd = np.divmod(key, n_rounds)
            pos = (
                host * width + off[host, rnd] + plan.a_len[rnd]
                + 2 * np.concatenate(ranks)
            )
            flat[pos] = np.concatenate(src_cost)
            flat[pos + 1] = np.concatenate(dest_cost)
        return buf, a_pos[:, plan.local_pos].ravel(), len(key)


class _Layout(NamedTuple):
    """The part of a fold that depends on which messages the bodies
    sent (repeated runs of one program send the same ones)."""

    ops: np.ndarray  #: the operand template, coarse message charges in
    #: per fine run: its distinct host streams, each host's stream and
    #: the flat positions of the local-time holes in the hosts' streams
    streams: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    messages: tuple[int, int]  #: sent in coarse supersteps, in fine runs


class _BrentPlan:
    """The body-independent part of one self-simulation.

    ``ops`` is the template of the host clock's operand sequence (a
    leading 0.0, then per coarse superstep its compute, communication
    and filing charges, per fine run its slowest host), prefilled with
    what those charges are when no body sends or charges anything
    beyond the unit superstep cost.
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

        ops = [0.0]
        #: (kind, first step, n steps, first op, last op) per maximal run
        self.runs: list[tuple[str, int, int, int, int]] = []
        #: per coarse superstep: (step, label, first op, message cost)
        self.coarse: list[tuple[int, int, int, float]] = []
        self.fine: list[_FineRun] = []
        body_steps, body_ops = [], []
        pos = 0
        while pos < len(steps):
            coarse = steps[pos][0] < log_vh
            end = pos
            while end < len(steps) and (steps[end][0] < log_vh) == coarse:
                end += 1
            start = len(ops) - 1
            if coarse:
                for s in range(pos, end):
                    label, dummy = steps[s]
                    if not dummy:
                        body_steps.append(s)
                        body_ops.append(len(ops))
                    self.coarse.append((
                        s, label, len(ops),
                        g(mu_host * cluster_size(v_host, label)),
                    ))
                    ops += [1.0, 0.0, 1.0]
            else:
                self.fine.append(_FineRun(
                    len(ops), pos,
                    [(label - log_vh, dummy) for label, dummy in steps[pos:end]],
                    v_host, v, mu, g, c2, (block_cost, word_cost, table),
                ))
                ops.append(0.0)
            self.runs.append(
                ("coarse" if coarse else "fine", pos, end - pos,
                 start, len(ops) - 1)
            )
            pos = end
        self.ops = np.array(ops)
        self.body_steps = np.array(body_steps, dtype=np.int64)
        self.body_ops = np.array(body_ops, dtype=np.int64)
        #: one message pattern's layout (see :func:`_message_pattern`)
        self._layouts: dict[bytes, _Layout] = {}
        self.pid_type = np.min_scalar_type(v - 1)

    # ------------------------------------------------------------- fold
    def fold(self, bodies: BodyPass) -> tuple[np.ndarray, tuple[int, int]]:
        """The host clock after each operand (``clk[0] = 0.0``), and the
        number of messages sent in coarse supersteps and in fine runs."""
        pattern = _message_pattern(bodies, self.pid_type)
        layout = self._layouts.get(pattern)
        if layout is None:
            layout = self._layout(bodies)
            self._layouts = {pattern: layout}  # keep one pattern resident
        ops = layout.ops.copy()
        if self.body_steps.size:
            # guest by guest: cycle its context to the top, then run it
            v_host, per_host = self.v_host, self.per_host
            local = bodies.local[
                self.body_steps[:, None] * self.v + np.arange(self.v)
            ]
            inter = np.empty((len(self.body_steps), v_host, 2 * per_host))
            inter[..., 0::2] = self.cycle_cost
            inter[..., 1::2] = local.reshape(-1, v_host, per_host)
            ops[self.body_ops] = np.cumsum(inter, axis=2)[..., -1].max(axis=1)
        for fine, (distinct, stream_of, holes) in zip(self.fine, layout.streams):
            streams = distinct[stream_of]
            streams.reshape(-1)[holes] = bodies.local[fine.hole_src]
            ops[fine.op] = np.cumsum(streams, axis=1)[:, -1].max()
        return np.cumsum(ops), layout.messages

    def _layout(self, bodies: BodyPass) -> _Layout:
        """Charge what the messages cost: each coarse superstep's
        ``h``-relation and filing, and every fine run's host streams."""
        ops = self.ops.copy()
        v_host, per_host = self.v_host, self.per_host
        coarse_messages = 0
        for step, _label, op, message_cost in self.coarse:
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
        streams = []
        fine_messages = 0
        for fine in self.fine:
            buf, holes, n_msgs = fine.streams(bodies, v_host)
            # hosts whose guests send alike share one stream: keep each
            # distinct one once
            kind_of: dict[bytes, int] = {}
            first: list[int] = []
            stream_of = []
            for k, row in enumerate(buf):
                kind = kind_of.setdefault(row.tobytes(), len(first))
                if kind == len(first):
                    first.append(k)
                stream_of.append(kind)
            streams.append((buf[first], np.array(stream_of), holes))
            fine_messages += n_msgs
        return _Layout(ops, streams, (coarse_messages, fine_messages))

    # ---------------------------------------------------- observability
    def counters(self, messages: tuple[int, int]) -> Counters:
        """The counters of the scheme: coarse deliveries plus every
        host's embedded Section 3 counters (constants of each fine
        run's plan, plus two words touched per message)."""
        coarse_messages, fine_messages = messages
        counters = Counters()
        if self.coarse:
            counters.add("messages", coarse_messages)
        v_host = self.v_host
        if any(fine.plan.n_normal_rounds for fine in self.fine):
            counters.add("words_touched", 2 * fine_messages)
            counters.add("messages", fine_messages)
        for fine in self.fine:
            plan = fine.plan
            if plan.n_normal_rounds:
                counters.add("words_touched", v_host * plan.cycle_words)
            if plan.total_context_swaps:
                counters.add("context_swaps", v_host * plan.total_context_swaps)
                counters.add("words_touched", v_host * plan.total_swap_words)
                counters.add("words_moved", v_host * plan.total_swap_words)
            if plan.n_dummy_rounds:
                counters.add("dummy_supersteps", v_host * plan.n_dummy_rounds)
            counters.add("rounds", v_host * plan.R)
        return counters

    def replay_spans(self, clk: list[float], record: bool) -> Tracer:
        """A tracer driven through the scheme's span sequence, the clock
        placed where the host-by-host run had it at each call."""
        now = 0.0
        tracer = Tracer(clock=lambda: now, record=record)
        add_leaf = tracer.add_leaf
        coarse = iter(self.coarse)
        for kind, first, n, start, _end in self.runs:
            if kind == "fine":
                now = clk[start]
                tracer.open("fine-run", "fine",
                            {"first_step": first, "n_steps": n}
                            if record else None)
                now = clk[start + 1]
                tracer.close()
                continue
            for _ in range(n):
                s, label, op, _cost = next(coarse)
                now = clk[op - 1]
                tracer.open("coarse-superstep", None,
                            {"superstep": s, "label": label}
                            if record else None)
                add_leaf("compute", "compute", clk[op - 1], clk[op])
                add_leaf("communication", "communication", clk[op], clk[op + 1])
                add_leaf("filing", "filing", clk[op + 1], clk[op + 2])
                now = clk[op + 2]
                tracer.close()
        tracer.assert_closed()
        return tracer
