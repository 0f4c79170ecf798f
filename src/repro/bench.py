"""Wall-clock benchmark harness: the repo's perf trajectory recorder.

Everything else in ``benchmarks/`` measures *charged model cost* — exact,
deterministic, machine-independent.  This module measures the other axis:
how fast the simulators themselves run on the host, in wall-clock terms.
It executes a fixed engine/workload matrix (the message-delivery-heavy
sorting and FFT sweeps on all three simulation engines, plus the Fact 1/2
touching kernels), growing each sweep geometrically until a per-workload
time budget is spent, and records

* ``wall_s`` — wall-clock seconds per run,
* ``rounds_per_s`` — scheduler rounds retired per second,
* ``charged_words_per_s`` — model words charged (touched + moved) per
  wall-clock second, the throughput of the charging machinery itself,
* ``peak`` — the largest sweep size completed within the budget.

``python -m repro bench`` writes the result matrix to
``BENCH_sim_throughput.json`` at the invocation directory (the repo root
in CI); successive PRs diff against the checked-in file, so the repo
carries its own perf trajectory.  ``--check BASELINE`` compares a fresh
run against a recorded one and fails on throughput regressions beyond a
(generous, machine-to-machine) tolerance — the ``bench-smoke`` CI job.

Wall-clock numbers are machine-dependent by nature; the charged model
costs of every run in the matrix are deterministic and asserted elsewhere
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
from typing import Any

from repro.engines import ENGINES, build_program, resolve_access_function
from repro.parallel.config import SERIAL, ParallelConfig, resolve_parallel

__all__ = [
    "Workload",
    "WORKLOADS",
    "SMOKE_CAPS",
    "BENCH_SCHEMA",
    "bench_header",
    "sweep_workload",
    "workload_cell_key",
    "run_bench",
    "check_against",
]

#: default per-workload wall-clock budget (seconds) for the full matrix
DEFAULT_BUDGET_S = 8.0

#: bench document schema.  2 added ``cpu_count``, ``jobs`` and
#: ``revision`` to the header — the context needed to interpret parallel
#: results (a ``--jobs 4`` run on a 1-core host measures overhead, not
#: speedup).  3 added the ``vec`` rows to the matrix and stamps every
#: engine cell with the ``engine`` and ``kernel`` that produced it (the
#: same workload can now run on two kernels, so a cell must say which
#: one it measured).  Documents with different schemas are not
#: comparable.
BENCH_SCHEMA = 3


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
    Workload("sort/hmm", "hmm", "sort", delivery_heavy=True),
    Workload("sort/vec", "vec", "sort", delivery_heavy=True),
    Workload("sort/bt", "bt", "sort", delivery_heavy=True),
    Workload("sort/brent", "brent", "sort", delivery_heavy=True),
    Workload("fft-rec/hmm", "hmm", "fft-rec", delivery_heavy=True),
    Workload("fft-rec/vec", "vec", "fft-rec", delivery_heavy=True),
    Workload("fft-rec/bt", "bt", "fft-rec", delivery_heavy=True),
    Workload("sort/direct", "direct", "sort"),
    Workload("touch/hmm", "touch-hmm", "-", start=1 << 14, cap=1 << 22),
    Workload("touch/bt", "touch-bt", "-", start=1 << 14, cap=1 << 22),
)

#: reduced sweep caps for the CI smoke job (same matrix, smaller peaks)
SMOKE_CAPS = {"default": 128, "touch": 1 << 16}


def _run_engine_workload(
    w: Workload, v: int, repeats: int = 3, parallel: ParallelConfig = SERIAL
) -> dict[str, Any] | None:
    """One (engine, program, v) cell; None when the program can't build.

    The charged work is deterministic, so the cell runs ``repeats`` times
    and keeps the best wall clock (standard wall-benchmark practice; the
    total spent wall is reported separately for the sweep budget).
    """
    f = resolve_access_function(w.f)
    try:
        program = build_program(w.program, v, w.mu)
    except ValueError:
        return None  # e.g. matmul needs a power of 4
    opts = dict(w.opts)
    if parallel.enabled and w.engine in ("hmm", "vec"):
        opts["parallel"] = parallel
    # raw engine throughput: span layer off, event counters on (the
    # throughput metric is charged words per second).  Older engine
    # revisions only know off/phases/full: probe the level on the first
    # run only, and only swallow the "unknown trace level" rejection —
    # a genuine engine or program ValueError must propagate.
    trace_level = "counters"
    wall = None
    total = 0.0
    res = None
    for attempt in range(max(1, repeats)):
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
        # which execution kernel actually ran (hmm-family engines report
        # it in meta; REPRO_ENGINE=vec flips it even for the hmm row)
        "kernel": res.meta.get("kernel"),
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
        "kernel": None,
        "wall_s": wall,
        "model_time": cost,
        "rounds": 0,
        "rounds_per_s": None,
        "charged_words": words,
        "charged_words_per_s": words / wall if wall > 0 else None,
    }


def _git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def bench_header(
    budget_s: float, smoke: bool, jobs: int = 1
) -> dict[str, Any]:
    """The schema-2 document header: provenance + host context.

    ``cpu_count`` and ``jobs`` together say whether a parallel run could
    have sped anything up; ``revision`` ties the numbers to the code that
    produced them.
    """
    produced_by = "python -m repro bench"
    if smoke:
        produced_by += " --smoke"
    if jobs > 1:
        produced_by += f" --jobs {jobs}"
    return {
        "schema": BENCH_SCHEMA,
        "produced_by": produced_by,
        "budget_s": budget_s,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "revision": _git_revision(),
        "workloads": {},
    }


def sweep_workload(
    w: Workload,
    budget_s: float = DEFAULT_BUDGET_S,
    smoke: bool = False,
    parallel: ParallelConfig = SERIAL,
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
            else _run_engine_workload(w, v, parallel=parallel)
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


def workload_cell_key(
    w: Workload, budget_s: float, smoke: bool, jobs: int = 1
) -> str:
    """The ledger key identifying one workload's full sweep.

    Shared between the serial bench and the distributed runner: the
    args mirror the ``bench-workload`` worker task's, and the context
    pins the bench schema plus the engine-internal job count (the
    distributed runner measures each cell serially in its worker, so it
    records under ``jobs=1`` — interchangeable with a serial run).
    """
    import dataclasses

    from repro.resilience.ledger import cell_key

    return cell_key(
        "bench-workload",
        (dataclasses.asdict(w), budget_s, smoke),
        {"schema": BENCH_SCHEMA, "jobs": jobs},
    )


def run_bench(
    budget_s: float = DEFAULT_BUDGET_S,
    smoke: bool = False,
    workloads: tuple[Workload, ...] = WORKLOADS,
    echo=None,
    jobs: int = 1,
    ledger=None,
) -> dict[str, Any]:
    """Run the matrix; return the JSON-serializable result document.

    ``jobs > 1`` turns on *engine-internal* parallelism for the hmm and
    vec rows (the charged results are bit-identical either way); each
    cell's wall clock then includes all dispatch overhead, so the
    recorded throughput stays honest.  To distribute whole workloads
    across the pool instead, see
    :func:`repro.parallel.sweep.run_matrix_distributed`.

    With a :class:`~repro.resilience.ledger.SweepLedger`, each
    workload's completed sweep is checkpointed as one ledger cell; a
    rerun against the same ledger replays completed workloads verbatim
    and only computes the missing ones.  Ledger entries are shared with
    ``bench --distribute`` (same keys, same shape) when ``jobs == 1``.
    """
    parallel = resolve_parallel(jobs) if jobs > 1 else SERIAL
    doc = bench_header(budget_s, smoke, jobs)
    if ledger is None:
        for w in workloads:
            doc["workloads"][w.name] = sweep_workload(
                w, budget_s, smoke, parallel=parallel, echo=echo
            )
        return doc

    from repro.resilience import faults, recovery
    from repro.resilience.ledger import MISSING

    for w in workloads:
        key = workload_cell_key(w, budget_s, smoke, jobs)
        recorded = ledger.get(key)
        if recorded is not MISSING:
            name, wl_doc = recorded
            recovery.record("cells_resumed", kind="bench-workload", name=name)
            doc["workloads"][name] = wl_doc
            continue
        wl_doc = sweep_workload(
            w, budget_s, smoke, parallel=parallel, echo=echo
        )
        wl_doc = json.loads(json.dumps(wl_doc))
        ledger.record(key, "bench-workload", [w.name, wl_doc])
        recovery.record("cells_recomputed", kind="bench-workload", name=w.name)
        doc["workloads"][w.name] = wl_doc
        faults.check_abort(ledger.cells_recorded)
    doc["resilience"] = ledger.summary()
    return doc


def check_against(
    fresh: dict[str, Any], baseline: dict[str, Any], tolerance: float = 3.0
) -> list[str]:
    """Compare a fresh run against a recorded baseline.

    Refuses (raises :class:`ValueError`) when the two documents carry
    different schema versions — the fields that qualify a schema-2
    result (``cpu_count``, ``jobs``) have no counterpart in a schema-1
    document, so a cross-schema comparison silently compares
    incomparable runs.

    Returns a list of human-readable regression messages (empty = pass).
    Only workloads and sweep sizes present in *both* documents are
    compared (the smoke matrix is a prefix of the full one), and only in
    the slow direction: a fresh throughput below ``baseline / tolerance``
    is a regression.  The tolerance is generous by design — wall-clock
    numbers cross machines.
    """
    fresh_schema = fresh.get("schema")
    base_schema = baseline.get("schema")
    if fresh_schema != base_schema:
        raise ValueError(
            f"cannot compare bench documents across schemas: fresh run is "
            f"schema {fresh_schema!r}, baseline is schema {base_schema!r}. "
            f"Regenerate the baseline with the current code "
            f"(python -m repro bench -o <baseline.json>) and re-check."
        )
    problems: list[str] = []
    for name, base_wl in baseline.get("workloads", {}).items():
        fresh_wl = fresh.get("workloads", {}).get(name)
        if fresh_wl is None:
            continue
        base_rows = {c["v"]: c for c in base_wl.get("sweep", [])}
        for cell in fresh_wl.get("sweep", []):
            base_cell = base_rows.get(cell["v"])
            if not base_cell:
                continue
            b = base_cell.get("charged_words_per_s")
            got = cell.get("charged_words_per_s")
            if b and got and got < b / tolerance:
                problems.append(
                    f"{name} @ size {cell['v']}: charged-words/s "
                    f"{got:,.0f} < baseline {b:,.0f} / {tolerance:g}"
                )
    return problems


def write_bench(path: str, doc: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin
    from repro.cli import main

    return main(["bench"] + (argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
