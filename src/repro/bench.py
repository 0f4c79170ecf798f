"""Bench documents: one format, one rule table per kind, one ``check``.

Every checked-in ``BENCH_<kind>.json`` shares one format.  Its header
(:func:`bench_header`) carries ``schema``, ``kind``, ``produced_by``
and the host context -- ``python``, ``platform``, ``cpu_count``,
``revision`` and ``seed`` -- followed by the producer's parameters and
its measurements.  What a fresh document must satisfy, relative to a
baseline or on its own, is the ``kind``'s row in :data:`RULES`, and
:func:`check` is the only comparator: ``bench --check`` and ``loadgen
--check`` call it against a baseline, and every standalone run calls it
against its own document (the self-SLO pass).

The module also holds the wall-clock engine benchmark, the
``sim_throughput`` kind.  Everything else in ``benchmarks/`` measures
*charged model cost* -- exact, deterministic, machine-independent.  This
harness measures how fast the simulators themselves run on the host.  It
executes a fixed engine/workload matrix (the message-delivery-heavy
sorting and FFT sweeps on every simulation engine, plus the Fact 1/2
touching kernels), growing each sweep geometrically until a per-workload
time budget is spent, and records

* ``wall_s`` -- wall-clock seconds per run,
* ``rounds_per_s`` -- scheduler rounds retired per second,
* ``charged_words_per_s`` -- model words charged (touched + moved) per
  wall-clock second, the throughput of the charging machinery itself,
* ``peak`` -- the largest sweep size completed within the budget.

``python -m repro bench`` writes the result to
``BENCH_sim_throughput.json``; ``--check BASELINE`` fails on throughput
regressions beyond a (generous, machine-to-machine) tolerance -- the
``bench-smoke`` CI job.  The charged model costs of every run in the
matrix are deterministic and asserted elsewhere
(``tests/test_batched_charging.py``, ``tests/test_equivalence.py``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any

from repro.engines import ENGINES, build_program, resolve_access_function

__all__ = [
    "DOC_SCHEMA",
    "Rule",
    "RULES",
    "bench_header",
    "check",
    "write",
    "Workload",
    "WORKLOADS",
    "SMOKE_CAPS",
    "sweep_workload",
    "workload_cell_key",
    "run_bench",
]

#: default per-workload wall-clock budget (seconds) for the full matrix
DEFAULT_BUDGET_S = 8.0

#: the bench document format.  Schemas 1-3 were five per-document
#: layouts with five comparators; 4 is the one header plus a ``kind``
#: whose :data:`RULES` row says how to check it.  Documents with
#: different schemas are not comparable.
DOC_SCHEMA = 4

#: the cell-key context of a ``bench-workload`` sweep cell.  Frozen at
#: the value the cells were first recorded under, so checkpoint ledgers
#: written before the unified format still resume.
WORKLOAD_CELL_CONTEXT = {"schema": 3, "jobs": 1}

#: the sharded tier's SLOs: 2-shard closed-loop throughput must be at
#: least this multiple of the 1-shard row on the same host...
SCALING_FLOOR_X = 1.5

#: ...and the shard-kill run's p99 must stay within this multiple of
#: the fault-free p99 (the Fractal bar: fault recovery *compared to
#: fault-free conditions*).  The router detects the death passively on
#: the first failed forward, so the visible damage is a sub-second
#: blip of retried requests, not a minutes-long outage -- but p99 is
#: exactly where that blip lands, hence a double-digit allowance.
FAULT_P99_BOUND_X = 15.0

#: the planner's admission SLO: under the adversarial cheap/enormous
#: mix, cost-aware admission keeps the cheap lane's p99 within this
#: multiple of the uniform-load p99 -- and flat ``queue_limit``
#: admission must demonstrably exceed it, otherwise the mix was not
#: adversarial enough to mean anything.
PLAN_P99_BOUND_X = 3.0

#: an open-loop phase refuses to report percentiles off fewer samples
#: than this (a p99 needs ~100 samples to be a 99th percentile at all;
#: 40 keeps smoke runs honest without making them slow)
MIN_OPEN_LOOP_SAMPLES = 40

#: the DAG bench's headline claim: locality-aware scheduling strictly
#: beats greedy on direct-engine messages for at least this many
#: workloads
LOCALITY_WINS_FLOOR = 2


@dataclass(frozen=True)
class Rule:
    """One checked cell pattern of a bench document.

    ``name``, ``unit``, ``better`` and ``bound`` are the cell shape of
    ``BENCHMARK.json``; ``name`` is a dotted path whose segments are
    :func:`fnmatch.fnmatchcase` patterns (list items are keyed by their
    index).  ``rule`` says what is checked:

    * ``exact`` -- equal to the baseline's cell;
    * ``ratio`` -- within ``bound`` times the baseline's cell, in the
      worse direction given by ``better`` (the ``tolerance`` argument of
      :func:`check` overrides ``bound``);
    * ``bound`` -- the fresh cell alone, at least ``bound`` when higher
      is better, at most ``bound`` when lower is;
    * ``true`` -- the fresh cell is ``True``; with a ``bound``, at least
      that many of the matched cells are;
    * ``ignored`` -- recorded, never compared.

    ``required`` makes a cell missing from the fresh document (or
    ``None`` there) a problem; otherwise it is skipped, which is how a
    smoke run checks cleanly against a full baseline.
    """

    name: str
    rule: str
    better: str = "higher"
    bound: float | None = None
    unit: str = ""
    required: bool = False


#: what each kind of document must satisfy; :func:`check` applies the
#: row of the fresh document's ``kind``
RULES: dict[str, tuple[Rule, ...]] = {
    "sim_throughput": (
        Rule("workloads.*.sweep.*.charged_words_per_s", "ratio",
             bound=3.0, unit="1/s"),
        Rule("workloads.*.sweep.*.wall_s", "ignored", "lower", unit="s"),
    ),
    # charged costs are deterministic: any drift is a regression
    "sim_dag": tuple(
        Rule(f"workloads.*.heuristics.*.{cell}", "exact", required=True)
        for cell in ("n_steps", "cross_volume", "supersteps", "messages",
                     "communication")
    ) + (
        Rule("workloads.*.heuristics.*.time.*", "exact"),
        Rule("workloads.*.locality_wins", "true",
             bound=LOCALITY_WINS_FLOOR, required=True),
        Rule("workloads.*.heuristics.*.wall_s", "ignored", "lower",
             unit="s"),
    ),
    "service_throughput": (
        Rule("errors", "bound", "lower", bound=0),
        Rule("phases.*.requests_per_s", "ratio", bound=3.0, unit="1/s",
             required=True),
    ),
    "service_shard": (
        Rule("errors", "bound", "lower", bound=0),
        Rule("non_envelope_errors", "bound", "lower", bound=0),
        Rule("phases.*.requests_per_s", "ratio", bound=5.0, unit="1/s"),
        Rule("phases.open_loop*.latency_p99_s", "ratio", "lower",
             bound=5.0, unit="s"),
        Rule("phases.open_loop*.latency_samples", "bound",
             bound=MIN_OPEN_LOOP_SAMPLES),
        Rule("scaling_x", "bound", bound=SCALING_FLOOR_X, unit="x"),
        Rule("fault_p99_ratio", "bound", "lower", bound=FAULT_P99_BOUND_X,
             unit="x"),
        Rule("identity_ok", "true"),
    ),
    "service_plan": (
        Rule("errors", "bound", "lower", bound=0),
        Rule("non_envelope_errors", "bound", "lower", bound=0),
        Rule("prediction.rows.*.within_band", "true", required=True),
        Rule("shed_429", "bound", bound=1, required=True),
        Rule("costaware_over_uniform", "bound", "lower",
             bound=PLAN_P99_BOUND_X, unit="x", required=True),
        Rule("flat_over_uniform", "bound", bound=PLAN_P99_BOUND_X,
             unit="x", required=True),
    ),
    "service_jobs": (
        Rule("errors", "bound", "lower", bound=0, required=True),
        Rule("results_identical", "true", required=True),
        Rule("p50_ratio", "ignored", "lower", unit="x"),
    ),
}


def _git_revision() -> str:
    """Short git revision of the package source, or ``"unknown"``.

    ``+dirty`` marks uncommitted changes under the package directory:
    the numbers then came from code that no revision holds.
    """
    here = os.path.dirname(os.path.abspath(__file__))

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              timeout=10, cwd=here)

    try:
        out = git("rev-parse", "--short", "HEAD")
        rev = out.stdout.strip()
        if out.returncode or not rev:
            return "unknown"
        return rev + ("+dirty" if git("diff", "--quiet", "HEAD", "--",
                                      ".").returncode else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def bench_header(kind: str, produced_by: str, **params: Any) -> dict[str, Any]:
    """The header every bench document starts with.

    ``cpu_count`` says whether a parallel or sharded run could have sped
    anything up; ``revision`` ties the numbers to the code that produced
    them; ``seed`` is ``None`` for producers without randomness.  The
    producer's own parameters follow.
    """
    return {
        "schema": DOC_SCHEMA,
        "kind": kind,
        "produced_by": produced_by,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "revision": _git_revision(),
        "seed": params.pop("seed", None),
        **params,
    }


def _cells(doc: Any, pattern: str) -> dict[tuple[str, ...], Any]:
    """Every concrete path of ``doc`` matching a dotted ``pattern``."""
    found: dict[tuple[str, ...], Any] = {(): doc}
    for segment in pattern.split("."):
        matched: dict[tuple[str, ...], Any] = {}
        for path, node in found.items():
            if isinstance(node, dict):
                items = node.items()
            elif isinstance(node, list):
                items = ((str(i), item) for i, item in enumerate(node))
            else:
                continue
            for key, value in items:
                if fnmatchcase(key, segment):
                    matched[path + (key,)] = value
        found = matched
    return found


def _fmt(value: Any, unit: str = "") -> str:
    text = f"{value:,.4g}" if isinstance(value, float) else repr(value)
    return text + ("" if unit in ("", "x") else " ") + unit


def _apply(
    rule: Rule, fresh: dict, baseline: dict, tolerance: float | None
) -> list[str]:
    """The problems one rule finds in ``fresh`` (against ``baseline``)."""
    if rule.rule == "ignored":
        return []
    got = _cells(fresh, rule.name)
    problems: list[str] = []
    if rule.rule in ("exact", "ratio"):
        factor = tolerance if tolerance is not None else rule.bound
        for path, base in _cells(baseline, rule.name).items():
            where = ".".join(path)
            if path not in got:
                if rule.required:
                    problems.append(f"{where}: missing from the fresh run")
                continue
            value = got[path]
            if rule.rule == "exact":
                if value != base:
                    problems.append(
                        f"{where}: {value!r} drifted from the baseline's "
                        f"{base!r} (compared exactly)"
                    )
            elif not (value and base):
                continue
            elif rule.better == "higher" and value < base / factor:
                problems.append(
                    f"{where}: {_fmt(value, rule.unit)} < baseline "
                    f"{_fmt(base, rule.unit)} / {factor:g}"
                )
            elif rule.better == "lower" and value > base * factor:
                problems.append(
                    f"{where}: {_fmt(value, rule.unit)} > baseline "
                    f"{_fmt(base, rule.unit)} x {factor:g}"
                )
        return problems
    got = {path: value for path, value in got.items() if value is not None}
    if not got:
        if rule.required:
            problems.append(f"{rule.name}: missing from the fresh run")
        return problems
    if rule.rule == "true":
        if rule.bound is not None:
            wins = sum(1 for value in got.values() if value is True)
            if wins < rule.bound:
                problems.append(
                    f"{rule.name}: true on {wins} of {len(got)} cell(s), "
                    f"needs at least {rule.bound:g}"
                )
            return problems
        return [
            f"{'.'.join(path)}: {value!r}, must be true"
            for path, value in got.items() if value is not True
        ]
    for path, value in got.items():
        if rule.better == "higher" and value < rule.bound:
            problems.append(
                f"{'.'.join(path)}: {_fmt(value, rule.unit)} is below the "
                f"{_fmt(rule.bound, rule.unit)} floor"
            )
        elif rule.better == "lower" and value > rule.bound:
            problems.append(
                f"{'.'.join(path)}: {_fmt(value, rule.unit)} is above the "
                f"{_fmt(rule.bound, rule.unit)} bound"
            )
    return problems


def _describe(doc: dict[str, Any], role: str) -> str:
    return (
        f"{doc.get('kind')} {role} (schema {doc.get('schema')!r}, "
        f"produced by {doc.get('produced_by')!r})"
    )


def check(
    fresh: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float | None = None,
    extra: tuple[Rule, ...] = (),
) -> list[str]:
    """Check a fresh bench document against a baseline; ``[]`` = pass.

    Refuses (raises :class:`ValueError`, naming both producers) when the
    documents differ in ``schema`` or ``kind`` -- incomparable runs are
    not compared.  Otherwise applies the ``kind``'s :data:`RULES` row,
    plus any ``extra`` rules, and returns one message per flagged cell.
    ``tolerance`` overrides the bound of every ``ratio`` rule.
    ``check(doc, doc)`` is the self-check: baseline-relative rules pass
    trivially and the absolute ones still apply.

    >>> doc = bench_header("service_jobs", "example", seed=7)
    >>> doc.update(errors=0, results_identical=True)
    >>> check(doc, doc)
    []
    >>> check(dict(doc, errors=2, results_identical=False), doc)
    ['errors: 2 is above the 0 bound', 'results_identical: False, must be true']
    >>> check(doc, dict(doc, kind="sim_dag"))  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    ValueError: cannot compare a service_jobs document (schema 4, ...
    """
    if (fresh.get("schema"), fresh.get("kind")) != (
        baseline.get("schema"), baseline.get("kind")
    ) or fresh.get("kind") not in RULES:
        raise ValueError(
            f"cannot compare a {_describe(fresh, 'document')} with a "
            f"{_describe(baseline, 'baseline')}; regenerate the baseline "
            f"with the current code and re-check"
        )
    problems: list[str] = []
    for rule in RULES[fresh["kind"]] + tuple(extra):
        problems.extend(_apply(rule, fresh, baseline, tolerance))
    return problems


def write(path: str, doc: dict[str, Any]) -> None:
    """Write a bench document (indented JSON, trailing newline)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


@dataclass(frozen=True)
class Workload:
    """One row of the benchmark matrix: an engine driving one program."""

    name: str
    engine: str
    program: str
    f: str = "x^0.5"
    mu: int = 8
    start: int = 16
    cap: int = 2048
    opts: dict = field(default_factory=dict)
    #: message-delivery-heavy rows are the headline speedup targets
    delivery_heavy: bool = False


#: the fixed matrix: sorting/FFT sweeps across the three simulation
#: engines (delivery-heavy — the tentpole targets), the direct executor
#: as the guest-side reference, and the two touching kernels
WORKLOADS: tuple[Workload, ...] = (
    Workload("sort/vec", "vec", "sort", delivery_heavy=True),
    Workload("sort/bt", "bt", "sort", delivery_heavy=True),
    Workload("sort/brent", "brent", "sort", delivery_heavy=True),
    Workload("fft-rec/vec", "vec", "fft-rec", delivery_heavy=True),
    Workload("fft-rec/bt", "bt", "fft-rec", delivery_heavy=True),
    Workload("sort/direct", "direct", "sort"),
    Workload("touch/hmm", "touch-hmm", "-", start=1 << 14, cap=1 << 22),
    Workload("touch/bt", "touch-bt", "-", start=1 << 14, cap=1 << 22),
)

#: reduced sweep caps for the CI smoke job (same matrix, smaller peaks)
SMOKE_CAPS = {"default": 128, "touch": 1 << 16}


def _run_engine_workload(
    w: Workload, v: int, repeats: int = 3
) -> dict[str, Any] | None:
    """One (engine, program, v) cell; None when the program can't build.

    The charged work is deterministic, so the cell runs ``repeats`` times
    and keeps the best wall clock (standard wall-benchmark practice; the
    total spent wall is reported separately for the sweep budget).  Each
    repeat runs a freshly built program (built outside the timing): the
    simulations keep a program's body pass on it from its second run on
    (:func:`repro.sim.kernel.program_pass`), and a repeat that took the
    pass from there would time the charging alone.
    """
    f = resolve_access_function(w.f)
    try:
        programs = [
            build_program(w.program, v, w.mu) for _ in range(max(1, repeats))
        ]
    except ValueError:
        return None  # e.g. matmul needs a power of 4
    opts = dict(w.opts)
    # raw engine throughput: span layer off, event counters on (the
    # throughput metric is charged words per second).  Older engine
    # revisions only know off/phases/full: probe the level on the first
    # run only, and only swallow the "unknown trace level" rejection —
    # a genuine engine or program ValueError must propagate.
    trace_level = "counters"
    wall = None
    total = 0.0
    res = None
    for attempt, program in enumerate(programs):
        t0 = time.perf_counter()
        if attempt == 0:
            try:
                res = ENGINES[w.engine].run(
                    program, f, trace=trace_level, **opts
                )
            except ValueError as exc:
                if "trace level" not in str(exc):
                    raise
                trace_level = "phases"
                t0 = time.perf_counter()
                res = ENGINES[w.engine].run(
                    program, f, trace=trace_level, **opts
                )
        else:
            res = ENGINES[w.engine].run(program, f, trace=trace_level, **opts)
        elapsed = time.perf_counter() - t0
        total += elapsed
        if wall is None or elapsed < wall:
            wall = elapsed
    words = res.counters.get("words_touched", 0) + res.counters.get(
        "words_moved", 0
    )
    rounds = res.counters.get("rounds", 0)
    return {
        "v": v,
        "engine": w.engine,
        "wall_s": wall,
        "wall_s_total": total,
        "model_time": res.time,
        "rounds": rounds,
        "rounds_per_s": rounds / wall if wall > 0 else None,
        "charged_words": words,
        "charged_words_per_s": words / wall if wall > 0 else None,
    }


def _run_touch_workload(kind: str, n: int) -> dict[str, Any]:
    """One Fact 1 / Fact 2 touching cell at size ``n``."""
    from repro.bt.machine import BTMachine
    from repro.bt.touching import bt_touch_all
    from repro.hmm.machine import HMMMachine
    from repro.hmm.touching import hmm_touch_all

    f = resolve_access_function("x^0.5")
    t0 = time.perf_counter()
    if kind == "touch-hmm":
        machine = HMMMachine(f, n)
        machine.mem[:n] = [1] * n
        cost = hmm_touch_all(machine, n)
        words = machine.counters.get("words_touched", n)
    else:
        machine = BTMachine(f, 2 * n)
        machine.mem[n : 2 * n] = [1] * n
        cost = bt_touch_all(machine, n)
        words = n
    wall = time.perf_counter() - t0
    return {
        "v": n,
        "engine": kind,
        "wall_s": wall,
        "model_time": cost,
        "rounds": 0,
        "rounds_per_s": None,
        "charged_words": words,
        "charged_words_per_s": words / wall if wall > 0 else None,
    }


def sweep_workload(
    w: Workload,
    budget_s: float = DEFAULT_BUDGET_S,
    smoke: bool = False,
    echo=None,
) -> dict[str, Any]:
    """Sweep one workload's sizes; return its document entry.

    Sizes grow geometrically from ``start`` until the cumulative wall
    clock exceeds ``budget_s`` or the cap is reached; ``peak`` is the
    largest size completed.  ``smoke`` shrinks the caps (CI-friendly)
    without changing the matrix.  This is also the unit of work the
    distributed bench runner ships to worker processes — wall clock is
    measured inside, serially per cell, so distribution never distorts a
    cell's own numbers.
    """
    touch = w.engine.startswith("touch-")
    cap = w.cap
    if smoke:
        cap = min(cap, SMOKE_CAPS["touch" if touch else "default"])
    sweep: list[dict[str, Any]] = []
    spent = 0.0
    v = w.start if not (smoke and not touch) else min(w.start, cap)
    while v <= cap:
        cell = (
            _run_touch_workload(w.engine, v)
            if touch
            else _run_engine_workload(w, v)
        )
        if cell is not None:
            sweep.append(cell)
            spent += cell.get("wall_s_total", cell["wall_s"])
        if echo:
            echo(
                f"  {w.name:14s} size {v:>8d}  "
                f"wall {cell['wall_s']:.3f}s" if cell else
                f"  {w.name:14s} size {v:>8d}  skipped"
            )
        if spent > budget_s:
            break
        v *= 2
    best_words = max(
        (c["charged_words_per_s"] for c in sweep
         if c["charged_words_per_s"]),
        default=None,
    )
    best_rounds = max(
        (c["rounds_per_s"] for c in sweep if c["rounds_per_s"]),
        default=None,
    )
    return {
        "engine": w.engine,
        "program": w.program,
        "f": w.f,
        "mu": w.mu,
        "delivery_heavy": w.delivery_heavy,
        "peak": sweep[-1]["v"] if sweep else None,
        "best_charged_words_per_s": best_words,
        "best_rounds_per_s": best_rounds,
        "sweep": sweep,
    }


def workload_cell_key(w: Workload, budget_s: float, smoke: bool) -> str:
    """The ledger key identifying one workload's full sweep.

    Shared between the serial bench and the distributed runner: the
    args mirror the ``bench-workload`` worker task's, and the context
    (:data:`WORKLOAD_CELL_CONTEXT`) pins a nominal ``jobs=1`` (every cell is
    measured serially, in this process or in one worker, so a serial
    and a distributed run are interchangeable).
    """
    import dataclasses

    from repro.resilience.ledger import cell_key

    return cell_key(
        "bench-workload",
        (dataclasses.asdict(w), budget_s, smoke),
        WORKLOAD_CELL_CONTEXT,
    )


def run_bench(
    budget_s: float = DEFAULT_BUDGET_S,
    smoke: bool = False,
    workloads: tuple[Workload, ...] = WORKLOADS,
    echo=None,
    ledger=None,
) -> dict[str, Any]:
    """Run the matrix serially; return the JSON-serializable document.

    To distribute whole workloads across the worker pool instead, see
    :func:`repro.parallel.sweep.run_matrix_distributed`.

    With a :class:`~repro.resilience.ledger.SweepLedger`, each
    workload's completed sweep is checkpointed as one ledger cell; a
    rerun against the same ledger replays completed workloads verbatim
    and only computes the missing ones.  Ledger entries are shared with
    ``bench --distribute`` (same keys, same shape).
    """
    doc = bench_header(
        "sim_throughput",
        "python -m repro bench" + (" --smoke" if smoke else ""),
        budget_s=budget_s,
        jobs=1,
        workloads={},
    )
    if ledger is None:
        for w in workloads:
            doc["workloads"][w.name] = sweep_workload(
                w, budget_s, smoke, echo=echo
            )
        return doc

    from repro.resilience import faults, recovery
    from repro.resilience.ledger import MISSING

    for w in workloads:
        key = workload_cell_key(w, budget_s, smoke)
        recorded = ledger.get(key)
        if recorded is not MISSING:
            name, wl_doc = recorded
            recovery.record("cells_resumed", kind="bench-workload", name=name)
            doc["workloads"][name] = wl_doc
            continue
        wl_doc = sweep_workload(w, budget_s, smoke, echo=echo)
        wl_doc = json.loads(json.dumps(wl_doc))
        ledger.record(key, "bench-workload", [w.name, wl_doc])
        recovery.record("cells_recomputed", kind="bench-workload", name=w.name)
        doc["workloads"][w.name] = wl_doc
        faults.check_abort(ledger.cells_recorded)
    doc["resilience"] = ledger.summary()
    return doc


def _main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin
    from repro.cli import main

    return main(["bench"] + (argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
