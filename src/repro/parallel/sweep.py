"""The task runner: every pool-or-inline decision in the package.

:func:`parallel_map` is the one place that chooses between the worker
pool and the inline path.  It runs one registered task
(:data:`~repro.parallel.workers.TASKS`) per argument tuple, in order:

* cells already in an optional
  :class:`~repro.resilience.ledger.SweepLedger` are replayed, not
  recomputed;
* the other cells stream from the shared pool under the configured
  :class:`~repro.resilience.retry.RetryPolicy`, and with a ledger each
  is checkpointed the moment it finishes;
* when the pool cannot run (no workers, unpicklable payloads, a worker
  lost past its retries) the cells it has not finished run inline,
  with one :class:`~repro.parallel.config.ParallelFallbackWarning`.
  Every task is a pure function of its payload, so the results are
  identical wherever each cell ran.

Its consumers:

* :func:`touch_sweep` — the Fact 1 / Fact 2 validation sweep (charged
  touching costs vs. their closed-form bounds over a size ladder).
  Per-cell event counters are merged back **in cell order** (integer
  counters make the merge exact).
* :func:`run_matrix_distributed` — the bench matrix with one worker task
  per workload.  Wall clock is measured *inside* each worker, serially
  per cell, so distribution shortens the overall run without distorting
  any cell's own numbers.
* :func:`run_cells` — ad-hoc (engine, program, f, v) cells, with
  recorded spans tagged per task and merged into one forest
  (:func:`repro.obs.trace.tag_spans` / ``merge_span_lists``).
* the service: :class:`~repro.service.scheduler.Scheduler` runs each
  computed request as a one-cell map, and
  :class:`~repro.service.jobs.JobManager` each batch cell as a one-cell
  map against the job's ledger.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.obs.trace import SpanRecord, merge_span_lists, tag_spans
from repro.parallel.config import (
    ParallelConfig,
    resolve_parallel,
    warn_fallback_once,
)
from repro.parallel.pool import PoolUnavailable, shared_pool
from repro.parallel.workers import TASKS
from repro.resilience import faults, recovery
from repro.resilience.ledger import MISSING, SweepLedger, cell_key

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
    ledger: "SweepLedger | None" = None,
    context: dict[str, Any] | None = None,
) -> list[Any]:
    """Run one registered task per element, results in element order.

    ``parallel`` says whether the pool is used (``None`` defers to
    ``REPRO_JOBS``).  The inline path calls the identical task body
    in-process, so results never depend on where a cell ran.

    With a ``ledger``, cells already recorded under
    :func:`~repro.resilience.ledger.cell_key` over ``kind``, the cell's
    args and ``context`` are replayed without recomputation.  Every
    other cell takes one JSON round-trip (so a computed cell looks like
    a replayed one: floats survive exactly, tuples become lists) and is
    recorded the moment it finishes, so a run killed mid-sweep resumes
    from the last finished cell:

    >>> import os, shutil, tempfile
    >>> tmp = tempfile.mkdtemp()
    >>> cells = [(256, "log")]
    >>> with SweepLedger.create(os.path.join(tmp, "touch.ledger")) as ledger:
    ...     first = parallel_map("touch-cost", cells, 1, ledger)
    ...     again = parallel_map("touch-cost", cells, 1, ledger)
    >>> again == first, ledger.cells_recorded, ledger.hits
    (True, 1, 1)
    >>> shutil.rmtree(tmp)

    Without a ledger there is no round-trip: ``run-cell`` documents
    keep their :class:`~repro.obs.trace.SpanRecord` spans, which the
    round-trip turns into their JSON form.
    """
    cfg = resolve_parallel(parallel)
    results: list[Any] = [MISSING] * len(args_list)
    if ledger is None:
        pending = list(range(len(args_list)))
        finish = results.__setitem__
    else:
        keys = [cell_key(kind, args, context) for args in args_list]
        pending = []
        for i, key in enumerate(keys):
            recorded = ledger.get(key)
            if recorded is MISSING:
                pending.append(i)
            else:
                results[i] = recorded
                recovery.record("cells_resumed", kind=kind, index=i)

        def finish(index: int, result: Any) -> None:
            result = json.loads(json.dumps(result, default=_span_json))
            ledger.record(keys[index], kind, result)
            results[index] = result
            recovery.record("cells_recomputed", kind=kind, index=index)
            faults.check_abort(ledger.cells_recorded)

    done = 0
    if cfg.enabled and pending:
        try:
            stream = shared_pool(cfg.jobs).run_ordered(
                kind, [args_list[i] for i in pending], policy=cfg.retry
            )
            for result in stream:
                finish(pending[done], result)
                done += 1
        except PoolUnavailable as exc:
            warn_fallback_once(
                f"worker pool unavailable for {kind!r} tasks ({exc}); "
                f"finishing inline"
            )
    task = TASKS[kind]
    for i in pending[done:]:
        finish(i, task(args_list[i]))
    return results


def _span_json(obj: Any) -> dict:
    """The JSON form of a ``run-cell`` document's recorded spans."""
    if isinstance(obj, SpanRecord):
        return obj.to_json()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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

    cells = parallel_map(
        "touch-cost", [(n, f) for n in sizes], parallel, ledger
    )
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
    # Wall clock is measured serially inside each worker, so a
    # distributed cell is interchangeable with a serial one: the ledger
    # context pins schema and a nominal jobs=1, letting serial and
    # distributed runs share a ledger.
    results = parallel_map(
        "bench-workload", args_list, cfg, ledger, WORKLOAD_CELL_CONTEXT
    )
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
    and replayed by :func:`parallel_map` exactly like the bench and
    touch sweeps; replayed documents are JSON round-trips of the
    computed ones, so the fold is identical either way; their spans
    come back as :class:`~repro.obs.trace.SpanRecord` objects, ``==``
    to a run without a ledger.
    """
    args_list = [
        tuple(cell) if len(cell) == 6 else (*cell, trace) for cell in cells
    ]
    docs = parallel_map("run-cell", args_list, parallel, ledger, context)
    span_lists = []
    for i, doc in enumerate(docs):
        spans = [
            span if isinstance(span, SpanRecord) else SpanRecord.from_json(span)
            for span in doc.pop("spans", [])
        ]
        span_lists.append(tag_spans(spans, worker=i))
    return docs, merge_span_lists(span_lists)
