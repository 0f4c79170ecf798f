"""Direct (fully parallel) execution of D-BSP programs, with cost accounting.

The cost model is the paper's: an i-superstep in which every processor
computes for at most ``tau`` time and the messages form an h-relation costs

    ``tau + h * g(mu * v / 2^i)``

— each message delivery inside an i-cluster is priced like a remote access
just outside the cluster's aggregate memory.  The total running time ``T``
of a program is the sum over its supersteps.

This executor is the *guest-side ground truth*: the simulation theorems are
statements of the form "host time <= slowdown * T", and the equivalence
tests require every engine to reproduce this executor's final contexts
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.dbsp.cluster import cluster_size
from repro.dbsp.program import Program
from repro.functions import AccessFunction
from repro.sim.kernel import BodyPass, run_bodies

__all__ = ["DBSPMachine", "DBSPRunResult", "SuperstepRecord", "superstep_cost"]


def superstep_cost(
    g: AccessFunction, mu: int, v: int, label: int, tau: float, h: int
) -> float:
    """Cost of one i-superstep: ``tau + h * g(mu * v / 2^i)``."""
    return tau + h * g(mu * cluster_size(v, label))


@dataclass(frozen=True)
class SuperstepRecord:
    """Per-superstep accounting row."""

    index: int
    label: int
    name: str
    tau: float  #: max local computation time over processors
    h: int  #: degree of the h-relation routed
    cost: float  #: tau + h * g(mu v / 2^label)


#: phase categories of the direct execution: a superstep's cost splits
#: into ``compute`` (tau) and ``communication`` (h * g(mu v / 2^i))
DBSP_PHASES = ("compute", "communication")


@dataclass
class DBSPRunResult:
    """Outcome of a direct D-BSP run."""

    contexts: list[dict]
    total_time: float
    records: list[SuperstepRecord] = field(default_factory=list)
    #: per-phase charged time: ``compute`` = sum of tau, ``communication``
    #: = sum of h * g(mu v / 2^i) (a view over ``records``)
    breakdown: dict[str, float] = field(default_factory=dict)
    #: event counters: supersteps executed, messages routed, max h seen
    counters: dict[str, int | float] = field(default_factory=dict)

    def label_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for rec in self.records:
            counts[rec.label] = counts.get(rec.label, 0) + 1
        return counts

    def max_local_time(self) -> float:
        """Total per-processor local computation bound ``O(tau)`` of Thm 5."""
        return sum(rec.tau for rec in self.records)


class DBSPMachine:
    """A ``D-BSP(v, mu, g(x))`` executing programs at full parallelism.

    A simulation's ``baseline_time`` is this machine's time for the
    program, padded to end in a global sync — folded from the
    simulation's own body pass, not run again:

    >>> from repro.engines import build_program, resolve_access_function, run
    >>> f = resolve_access_function("x^0.5")
    >>> p = build_program("sort", 16)
    >>> sim = run(p, "vec", f)
    >>> sim.baseline_time == DBSPMachine(f).run(p.with_global_sync()).total_time
    True
    """

    def __init__(self, g: AccessFunction, validate: bool = True):
        self.g = g
        self.validate = validate

    def run(self, program: Program) -> DBSPRunResult:
        """Execute ``program``; return final contexts and charged time.

        Bodies run in the shared superstep-major pass
        (:func:`repro.sim.kernel.run_bodies`) — whole-machine array
        bodies when the program declares them, per-processor bodies
        otherwise — and :meth:`fold` charges it.
        """
        v, mu = program.v, program.mu
        contexts = program.initial_contexts()
        check = None
        if self.validate:
            steps = program.supersteps

            def check(s: int, dest: np.ndarray) -> None:
                self._check_degrees(
                    np.bincount(dest, minlength=v).tolist(), mu, s,
                    steps[s].name,
                )

        bodies = run_bodies(program, contexts, [[] for _ in range(v)], check)
        result = self.fold(program, bodies)
        result.contexts = contexts
        return result

    def fold(self, program: Program, bodies: BodyPass) -> DBSPRunResult:
        """Charge a body pass of ``program``: the result :meth:`run`
        returns, without contexts (``[]``), and nothing checked.

        Superstep ``s`` costs ``tau + h * g(mu |C|)``, with ``tau`` the
        largest local time (at least 1) and ``h`` the larger of the
        most messages one processor sends and receives; the totals add
        the supersteps in order (``np.cumsum`` adds one at a time, like
        the ``+=`` loop it replaces).  Any pass of ``program``'s bodies
        does — the simulations hand theirs over
        (:meth:`BodyPass.select <repro.sim.kernel.BodyPass.select>`)
        once :meth:`reproduces` has vouched for it.  The send side
        (``h``, the message count) is memoized per message pattern
        (:func:`_send_side`); ``tau`` and every price are worked out
        per call.
        """
        return self._fold(program, bodies, _send_side(program, bodies))

    def _fold(
        self, program: Program, bodies: BodyPass, sends: "_SendSide"
    ) -> DBSPRunResult:
        steps = program.supersteps
        n = len(steps)
        tau, cost = self._costs(program, bodies, sends)
        records = [
            SuperstepRecord(index, step.label, step.name, t, hs, c)
            for index, (step, t, hs, c) in enumerate(
                zip(steps, tau.tolist(), sends.h.tolist(), cost.tolist())
            )
        ]
        return DBSPRunResult(
            contexts=[],
            total_time=_total(cost),
            records=records,
            breakdown={
                "compute": _total(tau), "communication": _total(cost - tau),
            },
            counters={
                "supersteps": n,
                "dummy_supersteps": int(n - sends.body.sum()),
                "messages": sends.messages,
                "max_h": int(sends.h.max()) if n else 0,
            },
        )

    def _costs(
        self, program: Program, bodies: BodyPass, sends: "_SendSide"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per superstep: ``tau`` and the cost ``tau + h * g(mu |C|)``."""
        v, mu = program.v, program.mu
        n = len(program.supersteps)
        body = sends.body
        tau = np.ones(n)
        if body.any():
            top = bodies.local.reshape(n, v)[body].max(axis=1)
            tau[body] = np.where(top > 1.0, top, 1.0)
        prices = [self.g(mu * cluster_size(v, lab)) for lab in sends.levels]
        return tau, tau + sends.h * np.array(prices)[sends.level_of]

    def reproduces(self, program: Program, bodies: BodyPass) -> bool:
        """Whether :meth:`run` would have run ``program`` to this pass.

        A simulation's pass ran its *smoothed* program, whose labels
        are coarser than the original ones, so a send across the
        original label's cluster went through there; and it checks no
        degrees.  So the pass stands for a direct run only if every
        send stays inside its superstep's original-label cluster and,
        when validating, no processor receives more than ``mu``
        messages in a superstep.  Otherwise the caller runs ``program``
        directly, which raises the error.  Both facts are memoized with
        the send side (:func:`_send_side`).
        """
        return self._admits(program, _send_side(program, bodies))

    def fold_time(self, program: Program, bodies: BodyPass) -> float | None:
        """``fold(program, bodies).total_time`` of a pass that
        :meth:`reproduces` ``program``, else ``None``: all a simulation's
        ``baseline_time`` needs, without the records, breakdown and
        counters a full result builds."""
        sends = _send_side(program, bodies)
        if not self._admits(program, sends):
            return None
        return _total(self._costs(program, bodies, sends)[1])

    def _admits(self, program: Program, sends: "_SendSide") -> bool:
        if not sends.in_cluster:
            return False
        return not self.validate or sends.max_in <= program.mu

    @staticmethod
    def _check_degrees(
        recv_counts: list[int], mu: int, index: int, name: str
    ) -> None:
        worst = max(recv_counts)
        if worst > mu:
            pid = recv_counts.index(worst)
            raise ValueError(
                f"superstep {index} ({name!r}): processor {pid} receives "
                f"{worst} messages > mu = {mu} (buffers are part of the "
                f"context, so h cannot exceed mu)"
            )


def _total(x: np.ndarray) -> float:
    """The sum of ``x`` added one at a time, in order (``np.cumsum``),
    like the ``+=`` loop over supersteps; 0.0 for no supersteps."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


class _SendSide(NamedTuple):
    """What one message pattern of a pass of one program fixes: every
    field of a direct run's charge but ``tau`` and the prices."""

    body: np.ndarray  #: per step: whether it has a body
    levels: list  #: the distinct labels, ascending
    level_of: np.ndarray  #: per step: its label's index in ``levels``
    in_cluster: bool  #: every send stays in its step's label cluster
    h: np.ndarray  #: per step: most messages one processor sends or gets
    max_in: int  #: most messages one processor gets in one step
    messages: int


def _send_side(program: Program, bodies: BodyPass) -> _SendSide:
    """:func:`_count_sends` of ``bodies``, memoized on ``program`` for
    its last message pattern (:meth:`BodyPass.pattern`).

    A bundled or cached program sends the same messages on every run,
    so a repeat call skips the counting.  The memo is one
    ``(pattern, side)`` pair, replaced whole, so a thread reading it
    while another replaces it sees one pair or the other.  It holds no
    access function and no validation flag: :meth:`DBSPMachine.fold`
    prices per call, and :meth:`DBSPMachine.reproduces` compares
    ``max_in`` with ``mu`` per call.
    """
    pattern = bodies.pattern(np.min_scalar_type(program.v - 1))
    memo = getattr(program, "_send_memo", None)
    if memo is not None and memo[0] == pattern:
        return memo[1]
    side = _count_sends(program, bodies)
    program._send_memo = (pattern, side)  # type: ignore[attr-defined]
    return side


def _count_sends(program: Program, bodies: BodyPass) -> _SendSide:
    """Count the messages of a pass per step: ``h``, the largest
    receive count and whether every send stays inside the cluster of
    its step's label."""
    v = program.v
    steps = program.supersteps
    n = len(steps)
    labels = np.array([step.label for step in steps], dtype=np.int64)
    body = np.array([not step.is_dummy for step in steps], dtype=bool)
    levels, level_of = np.unique(labels, return_inverse=True)
    h = np.zeros(n, dtype=np.int64)
    in_cluster, max_in, messages = True, 0, 0
    sent = [
        s for s, src in enumerate(bodies.src) if src is not None and body[s]
    ]
    if sent:
        src = np.concatenate([bodies.src[s] for s in sent])
        dest = np.concatenate([bodies.dest[s] for s in sent])
        lens = [len(bodies.src[s]) for s in sent]
        in_cluster = not np.any(
            (src ^ dest) >= np.repeat(v >> labels[sent], lens)
        )
        key = np.repeat(np.array(sent, dtype=np.int64) * v, lens)
        out_deg = np.bincount(key + src, minlength=n * v).reshape(n, v)
        in_deg = np.bincount(key + dest, minlength=n * v).reshape(n, v)
        h[sent] = np.maximum(out_deg.max(axis=1), in_deg.max(axis=1))[sent]
        max_in, messages = int(in_deg.max()), len(src)
    return _SendSide(
        body, levels.tolist(), level_of, in_cluster, h, max_in, messages
    )
