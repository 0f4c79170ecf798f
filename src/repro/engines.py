"""Unified engine API: one protocol, one result type, one registry.

The package has four execution engines under five names — direct
D-BSP, the D-BSP->HMM simulation (Thm 5; ``hmm``, also registered as
``vec``, the name the service defaults to), the D-BSP->BT simulation
(Thm 12) and the Brent-style self-simulation (Thm 10).  Each keeps its
native, fully-detailed result object, but they all speak one public
surface here:

* :class:`Engine` — the protocol: ``engine.run(program, f, trace=...)``;
* :class:`EngineResult` — the shared result: ``time``, ``slowdown``,
  ``counters``, ``breakdown``, ``trace`` (recorded spans), plus ``meta``
  and the ``native`` engine-specific result for power users;
* :data:`ENGINES` — the registry keyed by engine name;
* :func:`run` — convenience front end: build a bundled program by name,
  resolve the access function from a spec string, run the engine, and
  (for simulations) attach the measured slowdown against the direct run.

The CLI (``python -m repro run|profile``), the benchmarks and the tests
all consume engines through this module, so adding an engine means
writing one adapter and registering it — no per-engine special-casing
anywhere downstream.

>>> sorted(ENGINES)
['brent', 'bt', 'direct', 'hmm', 'vec']
>>> ENGINES["hmm"].description
'D-BSP -> HMM simulation, Fig. 1 scheduler (Thm 5)'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from repro.algorithms.convolution import convolution_program
from repro.algorithms.fft import fft_dag_program, fft_recursive_program
from repro.algorithms.listranking import list_ranking_program
from repro.algorithms.matmul import matmul_program
from repro.algorithms.primitives import (
    broadcast_program,
    prefix_sums_program,
    reduce_program,
)
from repro.algorithms.sorting import bitonic_sort_program
from repro.dbsp.machine import DBSPMachine, DBSPRunResult
from repro.dbsp.program import Program
from repro.functions import (
    AccessFunction,
    ConstantAccess,
    LinearAccess,
    LogarithmicAccess,
    PolynomialAccess,
    StaircaseAccess,
)
from repro.obs.trace import OTHER, SpanRecord
from repro.sim.brent import BrentSimulator
from repro.sim.bt_sim import BTSimulator
from repro.sim.hmm_sim import HMMSimulator
from repro.sim.kernel import BodyPass, PlanCache
from repro.testing import random_program

__all__ = [
    "Engine",
    "EngineResult",
    "ENGINES",
    "PROGRAMS",
    "FUNCTION_HELP",
    "run",
    "build_program",
    "cached_program",
    "PROGRAM_CACHE",
    "resolve_access_function",
]

#: bundled D-BSP programs: name -> (builder(v, mu=...), description)
PROGRAMS: dict[str, tuple[Callable[..., Program], str]] = {
    "sort": (bitonic_sort_program, "bitonic n-sorting (Prop. 9)"),
    "fft-dag": (fft_dag_program, "n-DFT, straight DAG schedule (Prop. 8)"),
    "fft-rec": (fft_recursive_program, "n-DFT, recursive schedule (Prop. 8)"),
    "matmul": (matmul_program, "n-MM, recursive quadrants (Prop. 7, Fig. 3)"),
    "broadcast": (broadcast_program, "tree broadcast from P0"),
    "reduce": (reduce_program, "tree reduction to P0"),
    "prefix": (prefix_sums_program, "Hillis-Steele prefix sums (locality-free)"),
    "listrank": (list_ranking_program, "pointer-jumping list ranking"),
    "conv": (convolution_program, "polynomial multiplication via FFT"),
    "random": (random_program, "pseudo-random mixing program"),
}

FUNCTION_HELP = (
    "x^A (0<A<1, e.g. x^0.5) | log | const | linear | staircase"
)


def resolve_access_function(spec: str) -> AccessFunction:
    """Resolve an access-function spec like ``x^0.5`` or ``log``.

    Raises :class:`ValueError` with an actionable message on bad specs —
    including the degenerate exponents ``x^0`` (that is the flat RAM:
    spell it ``const``) and ``x^1`` (the linear hierarchy: ``linear``).

    >>> resolve_access_function("x^0.5")
    PolynomialAccess('x^0.5')
    >>> resolve_access_function("log").name
    'log x'
    >>> resolve_access_function("x^0")
    Traceback (most recent call last):
        ...
    ValueError: 'x^0': the exponent must satisfy 0 < A < 1; x^0 is the \
flat RAM — spell it 'const'
    """
    spec = spec.strip().lower()
    if spec in ("log", "log x", "logx"):
        return LogarithmicAccess()
    if spec in ("const", "constant", "1", "ram"):
        return ConstantAccess()
    if spec in ("linear", "x"):
        return LinearAccess()
    if spec == "staircase":
        return StaircaseAccess()
    if spec.startswith("x^"):
        try:
            alpha = float(spec[2:])
        except ValueError:
            raise ValueError(
                f"bad polynomial exponent in {spec!r}: expected x^A with "
                f"a numeric A, e.g. x^0.5"
            ) from None
        if alpha <= 0.0:
            raise ValueError(
                f"{spec!r}: the exponent must satisfy 0 < A < 1; "
                f"x^0 is the flat RAM — spell it 'const'"
            )
        if alpha >= 1.0:
            raise ValueError(
                f"{spec!r}: the exponent must satisfy 0 < A < 1 (the paper "
                f"assumes sublinear access cost); for a linear hierarchy "
                f"spell it 'linear'"
            )
        return PolynomialAccess(alpha)
    raise ValueError(
        f"unknown access function {spec!r}; expected {FUNCTION_HELP}"
    )


def build_program(name: str, v: int, mu: int = 8) -> Program:
    """Build the bundled program ``name`` for a ``(v, mu)`` machine.

    >>> build_program("sort", v=8).v
    8
    """
    if name not in PROGRAMS:
        raise ValueError(
            f"unknown program {name!r}; try: {', '.join(sorted(PROGRAMS))}"
        )
    builder, _ = PROGRAMS[name]
    return builder(v, mu=mu)


#: built programs, shared by every run that names its program instead
#: of passing one: bundled programs keyed ``(name, v, mu)``
#: (:func:`cached_program`), DAG programs ``(spec_json, v, mu,
#: heuristic)`` (the ``run-dag`` worker task).  A program carries its
#: smoothings and its normalized form, and that form its direct
#: baseline's send side, so those are built once per shape too.  Kept
#: apart from the kernel's plan cache so that programs never evict
#: vec's schedules.
PROGRAM_CACHE = PlanCache(128)


def cached_program(name: str, v: int, mu: int = 8) -> Program:
    """:func:`build_program`'s program for ``(name, v, mu)``, built once
    and shared from :data:`PROGRAM_CACHE`.

    Programs and their bodies hold no state between runs (every run
    starts from ``initial_contexts()``), so one object serves every
    run of its shape.  Bodies are deterministic (see
    :class:`~repro.dbsp.program.Program`), so the body pass the
    simulations memoize on a program serves every run of it too.
    Callers that change a program build their own.

    >>> cached_program("sort", v=8) is cached_program("sort", v=8)
    True
    """
    return PROGRAM_CACHE.get((name, v, mu), lambda: build_program(name, v, mu))


@dataclass
class EngineResult:
    """Unified outcome of running a D-BSP program on any engine.

    The fields every engine fills identically:

    * ``time`` — total charged model time on the engine's host machine;
    * ``slowdown`` — ``time / baseline_time`` against the direct D-BSP
      run (``1.0`` for the direct engine; ``None`` when no baseline was
      computed or the baseline time is zero);
    * ``counters`` — event counters (ops, words touched/moved, block
      transfers, messages, context swaps, rounds, ...);
    * ``breakdown`` — charged time per phase of the engine's scheme, a
      view over the span trace (its values sum to ``time``);
    * ``trace`` — recorded :class:`~repro.obs.trace.SpanRecord` list
      (``trace="full"`` runs only; empty otherwise).

    ``meta`` carries engine/program identification for reports, and
    ``native`` the engine's own result object (e.g.
    :class:`~repro.sim.bt_sim.BTSimResult`) for anything
    engine-specific.

    >>> from repro import run
    >>> res = run("broadcast", v=8)
    >>> res.engine, res.slowdown
    ('direct', 1.0)
    >>> res.time == res.baseline_time > 0
    True
    >>> sorted(res.to_json())
    ['baseline_time', 'breakdown', 'counters', 'engine', 'meta', \
'slowdown', 'time', 'trace']
    """

    engine: str
    time: float
    contexts: list[dict]
    breakdown: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int | float] = field(default_factory=dict)
    trace: list[SpanRecord] = field(default_factory=list)
    slowdown: float | None = None
    baseline_time: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    native: Any = None

    # The pre-unification aliases (``total_time``, ``block_transfers``,
    # ``rounds``) were deprecated through the v0 line and are gone as of
    # the /v1 API redesign: use ``time`` and ``counters[...]``.

    def to_json(self, include_trace: bool = True) -> dict[str, Any]:
        """JSON-serializable document (contexts and ``native`` omitted)."""
        doc: dict[str, Any] = {
            "engine": self.engine,
            "time": self.time,
            "slowdown": self.slowdown,
            "baseline_time": self.baseline_time,
            "breakdown": self.breakdown,
            "counters": self.counters,
            "meta": self.meta,
        }
        if include_trace:
            doc["trace"] = [span.to_json() for span in self.trace]
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "EngineResult":
        """Rebuild a result from its :meth:`to_json` document.

        The inverse used by every replay path (the service result
        cache, ledger-backed restarts, trace files): all charged fields
        — ``time``, ``slowdown``, ``baseline_time``, ``breakdown``,
        ``counters``, recorded ``trace`` spans — round-trip exactly
        (JSON encodes floats shortest-repr and decodes them exactly),
        so ``EngineResult.from_json(res.to_json()).to_json() ==
        res.to_json()``.  ``contexts`` and ``native`` are not part of
        the document and come back empty.

        >>> from repro import run
        >>> res = run("broadcast", v=8)
        >>> EngineResult.from_json(res.to_json()).to_json() == res.to_json()
        True
        """
        return cls(
            engine=doc["engine"],
            time=doc["time"],
            contexts=[],
            breakdown=dict(doc.get("breakdown") or {}),
            counters=dict(doc.get("counters") or {}),
            trace=[
                SpanRecord.from_json(span) for span in doc.get("trace", [])
            ],
            slowdown=doc.get("slowdown"),
            baseline_time=doc.get("baseline_time"),
            meta=dict(doc.get("meta") or {}),
        )


@runtime_checkable
class Engine(Protocol):
    """What the registry holds: a named adapter running programs."""

    name: str
    description: str

    def run(
        self,
        program: Program,
        f: AccessFunction,
        trace: str = "phases",
        **opts: Any,
    ) -> EngineResult:
        """Run ``program`` on this engine under access function ``f``."""
        ...  # pragma: no cover - protocol


def _direct_spans(records) -> list[SpanRecord]:
    """Synthesize a span trace from direct-run superstep records.

    ``DBSPRunResult.records`` already *is* a per-superstep trace; this
    renders it in span form (one root span per superstep, compute /
    communication children) so the profile and export tooling treat the
    direct engine like any other.
    """
    spans: list[SpanRecord] = []
    clock = 0.0
    for rec in records:
        comm = rec.cost - rec.tau
        parent = len(spans)
        spans.append(SpanRecord(
            index=parent, parent=-1, depth=0,
            name=rec.name or f"superstep[{rec.label}]",
            category=OTHER,
            start=clock, end=clock + rec.cost, cost=rec.cost, self_cost=0.0,
            attrs={"superstep": rec.index, "label": rec.label, "h": rec.h},
        ))
        spans.append(SpanRecord(
            index=parent + 1, parent=parent, depth=1,
            name="compute", category="compute",
            start=clock, end=clock + rec.tau, cost=rec.tau, self_cost=rec.tau,
        ))
        spans.append(SpanRecord(
            index=parent + 2, parent=parent, depth=1,
            name="communication", category="communication",
            start=clock + rec.tau, end=clock + rec.cost,
            cost=comm, self_cost=comm,
        ))
        clock += rec.cost
    return spans


class DirectEngine:
    """Adapter for the guest-side ground truth executor."""

    name = "direct"
    description = "direct fully-parallel D-BSP execution (ground truth)"

    def run(
        self,
        program: Program,
        f: AccessFunction,
        trace: str = "phases",
        **opts: Any,
    ) -> EngineResult:
        res: DBSPRunResult = DBSPMachine(f, **opts).run(
            program.with_global_sync()
        )
        return EngineResult(
            engine=self.name,
            time=res.total_time,
            contexts=res.contexts,
            breakdown=dict(res.breakdown) if trace != "off" else {},
            counters=dict(res.counters) if trace != "off" else {},
            trace=_direct_spans(res.records) if trace == "full" else [],
            slowdown=1.0,
            baseline_time=res.total_time,
            meta={"program": program.name, "f": f.name,
                  "v": program.v, "mu": program.mu},
            native=res,
        )


class HMMEngine:
    """Adapter for the Section 3 D-BSP -> HMM simulation (Theorem 5)."""

    name = "hmm"
    description = "D-BSP -> HMM simulation, Fig. 1 scheduler (Thm 5)"

    def run(
        self,
        program: Program,
        f: AccessFunction,
        trace: str = "phases",
        **opts: Any,
    ) -> EngineResult:
        res = HMMSimulator(f, trace=trace, **opts).simulate(program)
        return EngineResult(
            engine=self.name,
            time=res.time,
            contexts=res.contexts,
            breakdown=res.breakdown,
            counters=res.counters,
            trace=res.spans,
            meta={"program": program.name, "f": f.name,
                  "v": program.v, "mu": program.mu,
                  "rounds": res.rounds,
                  # the compiled schedule is the one execution path;
                  # the key stays, as pinned result documents hold it
                  "kernel": "vec",
                  "label_set": list(res.smoothed.label_set)},
            native=res,
        )


class VecEngine(HMMEngine):
    """``hmm`` under the name the service defaults to: the same
    simulator, schedule and results (:mod:`repro.sim.hmm_vec`)."""

    name = "vec"
    description = "D-BSP -> HMM simulation, vectorized kernel (Thm 5)"


class BTEngine:
    """Adapter for the Section 5 D-BSP -> BT simulation (Theorem 12)."""

    name = "bt"
    description = "D-BSP -> BT simulation, Figs. 4-7 (Thm 12)"

    def run(
        self,
        program: Program,
        f: AccessFunction,
        trace: str = "phases",
        **opts: Any,
    ) -> EngineResult:
        res = BTSimulator(f, trace=trace, **opts).simulate(program)
        return EngineResult(
            engine=self.name,
            time=res.time,
            contexts=res.contexts,
            breakdown=res.breakdown,
            counters=res.counters,
            trace=res.spans,
            meta={"program": program.name, "f": f.name,
                  "v": program.v, "mu": program.mu,
                  "rounds": res.rounds,
                  "sort": opts.get("sort", "ams"),
                  "label_set": list(res.smoothed.label_set)},
            native=res,
        )


class BrentEngine:
    """Adapter for the Section 4 self-simulation (Theorem 10)."""

    name = "brent"
    description = "D-BSP(v) -> D-BSP(v') Brent-style self-simulation (Thm 10)"

    def run(
        self,
        program: Program,
        f: AccessFunction,
        trace: str = "phases",
        **opts: Any,
    ) -> EngineResult:
        opts = dict(opts)
        v_host = opts.pop("v_host", None) or max(1, program.v // 4)
        res = BrentSimulator(f, v_host=v_host, trace=trace, **opts).simulate(
            program
        )
        return EngineResult(
            engine=self.name,
            time=res.time,
            contexts=res.contexts,
            breakdown=res.breakdown,
            counters=res.counters,
            trace=res.spans,
            meta={"program": program.name, "f": f.name,
                  "v": program.v, "mu": program.mu,
                  "v_host": v_host},
            native=res,
        )


#: the engine registry: every engine the package can run programs on
ENGINES: dict[str, Engine] = {
    engine.name: engine
    for engine in (
        DirectEngine(), HMMEngine(), VecEngine(), BTEngine(), BrentEngine()
    )
}


def _baseline_time(
    program: Program, f: AccessFunction, bodies: BodyPass | None
) -> float:
    """The direct run's total time, the baseline :func:`run` keeps:
    folded from a simulation's body pass when it stands for one
    (:meth:`DBSPMachine.fold_time`, no per-superstep records), run
    separately when the engine made no pass or the pass breaks a rule
    of the direct run (see :func:`run`)."""
    normalized = program.with_global_sync()
    machine = DBSPMachine(f)
    if bodies is not None:
        total = machine.fold_time(normalized, bodies)
        if total is not None:
            return total
    return machine.run(normalized).total_time


def run(
    program: str | Program,
    engine: str = "direct",
    f: str | AccessFunction = "x^0.5",
    *,
    v: int = 64,
    mu: int = 8,
    trace: str = "phases",
    baseline: bool = True,
    **opts: Any,
) -> EngineResult:
    """Run a D-BSP program on one engine; the one-call front end.

    Parameters
    ----------
    program:
        A :class:`~repro.dbsp.program.Program`, or the name of a bundled
        one (see :data:`PROGRAMS`) for ``(v, mu)``.  A name is built
        once per shape and then served from :data:`PROGRAM_CACHE`
        (:func:`cached_program`), with the smoothings and the
        normalized form the program keeps on itself.
    engine:
        Registry key: ``direct`` | ``hmm`` | ``vec`` | ``bt`` |
        ``brent`` (``vec`` is another name for the ``hmm`` simulation,
        the name the service defaults to).
    f:
        Access/bandwidth function, as an object or a spec string
        (``x^0.5``, ``log``, ``const``, ``linear``, ``staircase``).
    trace:
        Observability level: ``off`` | ``counters`` | ``phases``
        (default) | ``full``.
    baseline:
        For simulation engines, also charge the direct D-BSP execution
        and attach ``baseline_time`` and the measured ``slowdown``.
        ``hmm``, ``vec``, ``bt`` and ``brent`` run every body once, in
        one superstep-major pass that a direct run would make too, so the
        baseline is folded from that pass
        (:meth:`DBSPMachine.fold_time
        <repro.dbsp.machine.DBSPMachine.fold_time>`)
        without running a body again.  The direct run is made
        separately when the engine made no such pass (the ``bt``
        ablations, ``brent`` at ``v' = v``) or when the pass
        breaks a rule of the direct run that the simulation does not
        check — a send leaving its original label's cluster, or more
        than ``mu`` messages to one processor — so that run raises the
        error.  The fold's send side (each step's ``h``, the message
        count, and the two rule checks) depends only on which messages
        the pass sent, so it is memoized on the normalized program for
        the last send pattern; a repeat run of a program prices its
        steps under ``f`` and counts nothing again.  A new pattern is
        counted and checked in full.
    opts:
        Passed through to the engine (e.g. ``sort="mergesort"`` for
        ``bt``, ``v_host=16`` for ``brent``, ``record_trace=True`` for
        ``hmm``).

    >>> from repro import run
    >>> result = run("sort", engine="bt", f="x^0.5", v=16)
    >>> result.slowdown is not None and result.breakdown["delivery"] > 0
    True
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; try: {', '.join(sorted(ENGINES))}"
        )
    if isinstance(f, str):
        f = resolve_access_function(f)
    if isinstance(program, str):
        program = cached_program(program, v, mu)
    result = ENGINES[engine].run(program, f, trace=trace, **opts)
    if baseline and engine != "direct":
        guest_time = _baseline_time(
            program, f, getattr(result.native, "body_pass", None)
        )
        result.baseline_time = guest_time
        result.slowdown = result.time / guest_time if guest_time > 0 else None
    return result
