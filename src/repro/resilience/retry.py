"""Retry policy for worker-pool tasks: deadlines, bounded retries, backoff.

A :class:`RetryPolicy` governs how :class:`~repro.parallel.pool.WorkerPool`
reacts to *infrastructure* failures — a worker process dying mid-task
or a task blowing past its per-task deadline.
Genuine task exceptions (the simulated program raised) are **never**
retried: the strict failure taxonomy of ``repro.parallel.pool`` is
preserved, and a real ``ValueError`` from an engine propagates unchanged
on first occurrence.

Retrying an infrastructure failure is always sound here because every
pool task is a pure function of its pickled payload (see
``repro/parallel/workers.py``): re-running it produces the identical
result, so retries can never change charged model costs — they only
trade wall clock for survival.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["RetryPolicy", "DEFAULT_RETRY", "NO_RETRY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a pool consumer survives infrastructure failures.

    Parameters
    ----------
    max_retries:
        Extra attempts allowed per task after its first one.  ``0``
        restores the pre-resilience behaviour: the first worker death
        raises :class:`~repro.parallel.pool.PoolUnavailable` immediately.
    timeout_s:
        Per-task deadline in seconds, measured from the moment the
        parent starts waiting on that task's result (waiting for an
        idle worker included).  ``None`` (default) waits forever.  A
        task that exceeds the deadline counts as an infrastructure
        failure: it is resent (the original attempt keeps its worker
        busy until it answers, and that late reply is discarded — tasks
        are deterministic, so whichever attempt is consumed yields the
        same charges).
    backoff_s:
        Sleep before the first resubmission; each further retry of the
        same task multiplies the sleep by ``backoff_factor``.  ``0``
        disables sleeping (tests).
    backoff_factor:
        Exponential backoff multiplier (>= 1).

    >>> RetryPolicy().max_retries
    2
    >>> RetryPolicy(backoff_s=0.1, backoff_factor=2.0).delay(3)
    0.4
    >>> NO_RETRY.max_retries
    0
    """

    max_retries: int = 2
    timeout_s: float | None = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff delay (seconds) before retrying after ``attempt``."""
        if self.backoff_s <= 0:
            return 0.0
        return self.backoff_s * self.backoff_factor ** (attempt - 1)

    def sleep(self, attempt: int) -> None:
        """Sleep the backoff delay for ``attempt`` (no-op when zero)."""
        delay = self.delay(attempt)
        if delay > 0:
            time.sleep(delay)


#: the pool-wide default: two retries, no deadline, 50 ms base backoff
DEFAULT_RETRY = RetryPolicy()

#: pre-resilience behaviour: first infrastructure failure is terminal
NO_RETRY = RetryPolicy(max_retries=0)
