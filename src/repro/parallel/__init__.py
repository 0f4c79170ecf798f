"""Host-parallel execution: worker pool and task runner.

This package runs independent cells — bench workloads, Fact 1/2 touch
cells, served ``run-cell``/``run-dag`` requests, service job cells — in
multiple worker processes on the machine running the simulators,
without ever changing *model* results: every task is a pure function of
its payload, so a cell's charged costs, counters and phase breakdown
are the same wherever it runs (see ``DESIGN.md: Host parallelism vs.
model parallelism``).  A single simulation always runs in one process.

:func:`~repro.parallel.sweep.parallel_map` is the one task runner: the
only code that chooses between the pool and the inline path, retries
through the pool, checkpoints to and replays from an optional
:class:`~repro.resilience.ledger.SweepLedger`, and finishes inline
what an unusable pool left undone.  It imports ``repro.resilience``
for the ledger, the recovery counters and the fault hooks; that
package never imports this one, so the edge stays one-way.

Entry points:

* :mod:`repro.parallel.sweep` for distributing independent cells;
* ``python -m repro bench --distribute --jobs N`` and
  ``touch --sweep ... --jobs N`` on the CLI;
* ``REPRO_JOBS`` sets the default job count for sweeps and
  checkpointed sweeps (:func:`resolve_parallel` with ``None``).
"""

from repro.parallel.config import (
    SERIAL,
    ParallelConfig,
    ParallelFallbackWarning,
    reset_fallback_warnings,
    resolve_parallel,
    warn_fallback_once,
)
from repro.parallel.pool import (
    PoolUnavailable,
    WorkerPool,
    dumps_payload,
    shared_pool,
)
from repro.parallel.sweep import parallel_map, run_cells, touch_sweep

__all__ = [
    "ParallelConfig",
    "ParallelFallbackWarning",
    "SERIAL",
    "resolve_parallel",
    "warn_fallback_once",
    "reset_fallback_warnings",
    "PoolUnavailable",
    "WorkerPool",
    "dumps_payload",
    "shared_pool",
    "parallel_map",
    "touch_sweep",
    "run_cells",
]
