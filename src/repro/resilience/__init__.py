"""Checkpoint/resume and fault tolerance for long sweeps.

The package is a *leaf* of the import graph: no module here imports
``repro.parallel`` (the only other package it uses is ``repro.obs``).
That is what lets ``repro.parallel`` import it: the task runner,
:func:`repro.parallel.sweep.parallel_map`, takes the ledger, the
recovery counters and the abort hook from here to checkpoint and
resume sweeps, and the pool takes its :class:`RetryPolicy` and the
worker-side fault hooks.  An edge back would close a cycle.

* :mod:`repro.resilience.retry` — per-task deadlines, bounded retries,
  exponential backoff (:class:`RetryPolicy`).
* :mod:`repro.resilience.ledger` — append-only JSON-lines checkpoint of
  completed sweep cells (:class:`SweepLedger`, :func:`cell_key`).
* :mod:`repro.resilience.recovery` — process-global recovery counters
  and event log (never on a charged clock).
* :mod:`repro.resilience.faults` — deterministic fault injection via
  ``REPRO_FAULTS`` for the chaos test suite.
"""

from repro.resilience.faults import FaultAbort, FaultPlan, corrupt_ledger
from repro.resilience.ledger import (
    LEDGER_SCHEMA,
    LedgerWarning,
    MISSING,
    SweepLedger,
    cell_key,
)
from repro.resilience.retry import DEFAULT_RETRY, NO_RETRY, RetryPolicy

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY",
    "NO_RETRY",
    "SweepLedger",
    "cell_key",
    "LEDGER_SCHEMA",
    "LedgerWarning",
    "MISSING",
    "FaultAbort",
    "FaultPlan",
    "corrupt_ledger",
]
