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
    """A ``D-BSP(v, mu, g(x))`` executing programs at full parallelism."""

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
        once :meth:`reproduces` has vouched for it.
        """
        v, mu = program.v, program.mu
        steps = program.supersteps
        n = len(steps)
        labels = np.array([step.label for step in steps], dtype=np.int64)
        body = np.array([not step.is_dummy for step in steps], dtype=bool)
        tau = np.ones(n)
        if body.any():
            top = bodies.local.reshape(n, v)[body].max(axis=1)
            tau[body] = np.where(top > 1.0, top, 1.0)
        h = np.zeros(n, dtype=np.int64)
        sent, src, dest = _sends(bodies, body)
        if sent.size:
            key = np.repeat(sent * v, [len(bodies.src[s]) for s in sent])
            out_deg = np.bincount(key + src, minlength=n * v).reshape(n, v)
            in_deg = np.bincount(key + dest, minlength=n * v).reshape(n, v)
            h[sent] = np.maximum(out_deg.max(axis=1), in_deg.max(axis=1))[sent]
        per_label = {
            lab: self.g(mu * cluster_size(v, lab)) for lab in set(labels.tolist())
        }
        cost = tau + h * np.array([per_label[lab] for lab in labels.tolist()])
        records = [
            SuperstepRecord(index, step.label, step.name, t, hs, c)
            for index, (step, t, hs, c) in enumerate(
                zip(steps, tau.tolist(), h.tolist(), cost.tolist())
            )
        ]

        def total(x: np.ndarray) -> float:
            return float(np.cumsum(x)[-1]) if n else 0.0

        return DBSPRunResult(
            contexts=[],
            total_time=total(cost),
            records=records,
            breakdown={
                "compute": total(tau), "communication": total(cost - tau),
            },
            counters={
                "supersteps": n,
                "dummy_supersteps": int(n - body.sum()),
                "messages": len(src),
                "max_h": int(h.max()) if n else 0,
            },
        )

    def reproduces(self, program: Program, bodies: BodyPass) -> bool:
        """Whether :meth:`run` would have run ``program`` to this pass.

        A simulation's pass ran its *smoothed* program, whose labels
        are coarser than the original ones, so a send across the
        original label's cluster went through there; and it checks no
        degrees.  So the pass stands for a direct run only if every
        send stays inside its superstep's original-label cluster and,
        when validating, no processor receives more than ``mu``
        messages in a superstep.  Otherwise the caller runs ``program``
        directly, which raises the error.
        """
        v, mu = program.v, program.mu
        steps = program.supersteps
        body = np.array([not step.is_dummy for step in steps], dtype=bool)
        sent, src, dest = _sends(bodies, body)
        if not sent.size:
            return True
        lens = [len(bodies.src[s]) for s in sent]
        reach = np.repeat(
            [v >> steps[s].label for s in sent.tolist()], lens
        )
        if np.any((src ^ dest) >= reach):
            return False
        if not self.validate:
            return True
        key = np.repeat(sent * v, lens) + dest
        return int(np.bincount(key).max()) <= mu

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


def _sends(
    bodies: BodyPass, body: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The body steps that sent messages, and all their endpoints
    concatenated in step order."""
    sent = [
        s for s, src in enumerate(bodies.src) if src is not None and body[s]
    ]
    if not sent:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return (
        np.array(sent, dtype=np.int64),
        np.concatenate([bodies.src[s] for s in sent]),
        np.concatenate([bodies.dest[s] for s in sent]),
    )
