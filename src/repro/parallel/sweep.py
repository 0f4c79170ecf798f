"""Parallel sweep runner: fan independent cells across the worker pool.

Three consumers, all built on :func:`parallel_map`:

* :func:`touch_sweep` — the Fact 1 / Fact 2 validation sweep (charged
  touching costs vs. their closed-form bounds over a size ladder).
  Charged costs are deterministic and cells are independent, so this
  parallelizes freely; per-cell event counters are merged back
  **in cell order** (integer counters make the merge exact).
* :func:`run_matrix_distributed` — the bench matrix with one worker task
  per workload.  Wall clock is measured *inside* each worker, serially
  per cell, so distribution shortens the overall run without distorting
  any cell's own numbers.
* :func:`run_cells` — ad-hoc (engine, program, f, v) cells, with
  recorded spans tagged per task and merged into one forest
  (:func:`repro.obs.trace.tag_spans` / ``merge_span_lists``).

Degradation policy: when the pool cannot run (no workers, unpicklable
payloads, a worker lost mid-flight) the whole map reruns serially — every
task body is also callable in-process, and all tasks are deterministic,
so the fallback returns identical results with one
:class:`~repro.parallel.config.ParallelFallbackWarning`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.parallel.config import (
    ParallelConfig,
    resolve_parallel,
    warn_fallback_once,
)
from repro.parallel.pool import PoolUnavailable, shared_pool

__all__ = [
    "parallel_map",
    "touch_sweep",
    "run_matrix_distributed",
    "run_cells",
]


def parallel_map(
    kind: str,
    args_list: Sequence[Any],
    parallel: "ParallelConfig | int | None" = None,
) -> list[Any]:
    """Run one registered task per element, results in element order.

    The serial path calls the identical task body in-process, so results
    never depend on whether the pool was used.
    """
    cfg = resolve_parallel(parallel)
    if cfg.enabled and args_list:
        pool = shared_pool(cfg.jobs)
        try:
            return list(
                pool.run_ordered(kind, list(args_list), policy=cfg.retry)
            )
        except PoolUnavailable as exc:
            if not cfg.fallback:
                raise
            warn_fallback_once(
                f"worker pool unavailable for {kind!r} sweep ({exc}); "
                f"running serially"
            )
    from repro.parallel import workers

    task = workers.TASKS[kind]
    return [task(args) for args in args_list]


def touch_sweep(
    sizes: Sequence[int],
    f: str = "x^0.5",
    parallel: "ParallelConfig | int | None" = None,
    ledger=None,
) -> dict[str, Any]:
    """Fact 1 / Fact 2 charged-cost sweep over ``sizes``.

    Returns ``{"f", "cells", "counters"}`` where ``cells`` is one
    document per size (HMM/BT touching costs and their bounds) and
    ``counters`` is the deterministic in-order merge of every cell's
    event counters.

    With a :class:`~repro.resilience.ledger.SweepLedger`, each cell is
    checkpointed as it completes and cells already in the ledger are
    replayed instead of recomputed — the returned document is identical
    either way (charged costs are deterministic, and JSON round-trips
    them exactly).
    """
    from repro.obs.counters import Counters

    args_list = [(n, f) for n in sizes]
    if ledger is not None:
        from repro.resilience.checkpoint import resume_map

        cells = resume_map("touch-cost", args_list, ledger, parallel)
    else:
        cells = parallel_map("touch-cost", args_list, parallel)
    merged = Counters()
    for cell in cells:
        merged.merge(cell["counters"])
    return {"f": f, "cells": cells, "counters": merged.snapshot()}


def run_matrix_distributed(
    workloads=None,
    budget_s: float | None = None,
    smoke: bool = False,
    parallel: "ParallelConfig | int | None" = None,
    echo=None,
    ledger=None,
) -> dict[str, Any]:
    """Run the bench matrix with one worker task per workload.

    The document is assembled in matrix order regardless of completion
    order; the header marks the run as distributed so wall-clock totals
    are not misread as a serial trajectory.

    With a :class:`~repro.resilience.ledger.SweepLedger`, every workload
    cell is checkpointed as it completes; a run restarted with the same
    ledger replays completed cells verbatim (recorded wall numbers and
    all), so the re-folded document's per-cell charged costs are
    byte-identical to an uninterrupted run's.  The document then carries
    a ``resilience`` section with the ledger path and resume counts.
    """
    import dataclasses

    from repro.bench import (
        DEFAULT_BUDGET_S,
        WORKLOAD_CELL_CONTEXT,
        WORKLOADS,
        bench_header,
    )

    if workloads is None:
        workloads = WORKLOADS
    if budget_s is None:
        budget_s = DEFAULT_BUDGET_S
    cfg = resolve_parallel(parallel)
    produced_by = "python -m repro bench" + (" --smoke" if smoke else "")
    if cfg.jobs > 1:
        produced_by += f" --jobs {cfg.jobs}"
    doc = bench_header(
        "sim_throughput",
        produced_by + " --distribute",
        budget_s=budget_s,
        jobs=cfg.jobs,
        distributed=True,
        workloads={},
    )
    args_list = [
        (dataclasses.asdict(w), budget_s, smoke) for w in workloads
    ]
    if ledger is not None:
        from repro.resilience.checkpoint import resume_map

        # Wall clock is measured serially inside each worker, so a
        # distributed cell is interchangeable with a serial one: the
        # context pins schema and a nominal jobs=1, letting serial and
        # distributed runs share a ledger.
        results = resume_map(
            "bench-workload",
            args_list,
            ledger,
            cfg,
            context=WORKLOAD_CELL_CONTEXT,
        )
    else:
        results = parallel_map("bench-workload", args_list, cfg)
    for name, wl_doc in results:
        doc["workloads"][name] = wl_doc
        if echo:
            peak = wl_doc.get("peak")
            best = wl_doc.get("best_charged_words_per_s")
            echo(
                f"  {name:14s} peak {peak if peak is not None else '-':>8}  "
                f"best {best:,.0f} charged-words/s"
                if best
                else f"  {name:14s} peak {peak if peak is not None else '-':>8}"
            )
    if ledger is not None:
        doc["resilience"] = ledger.summary()
    return doc


def run_cells(
    cells: Sequence[tuple],
    trace: str = "counters",
    parallel: "ParallelConfig | int | None" = None,
    ledger=None,
    context: dict[str, Any] | None = None,
) -> tuple[list[dict[str, Any]], list]:
    """Run ad-hoc ``(engine, program, v, mu, f)`` cells across the pool.

    Cells may also be full 6-tuples ``(engine, program, v, mu, f,
    trace)`` — the exact ``run-cell`` worker payload — in which case the
    per-cell trace level wins over the ``trace`` argument (the jobs API
    submits heterogeneous cell lists this way).

    Returns ``(docs, spans)``: one result document per cell (order
    preserved) and, when ``trace="full"``, the merged span forest with
    every span tagged by its task index.

    With a :class:`~repro.resilience.ledger.SweepLedger` (and the
    ``context`` that qualifies the cell keys), cells are checkpointed
    and replayed through :func:`~repro.resilience.checkpoint.resume_map`
    exactly like the bench and touch sweeps; replayed documents are
    JSON round-trips of the computed ones, so the fold is identical
    either way.
    """
    from repro.obs.trace import merge_span_lists, tag_spans

    args_list = [
        tuple(cell) if len(cell) == 6 else (*cell, trace) for cell in cells
    ]
    if ledger is not None:
        from repro.resilience.checkpoint import resume_map

        docs = resume_map("run-cell", args_list, ledger, parallel,
                          context=context)
    else:
        docs = parallel_map("run-cell", args_list, parallel)
    span_lists = []
    for i, doc in enumerate(docs):
        span_lists.append(tag_spans(doc.pop("spans", []), worker=i))
    return docs, merge_span_lists(span_lists)
