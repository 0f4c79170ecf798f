"""Parallelism configuration and graceful-degradation policy.

A :class:`ParallelConfig` says *how much* host parallelism a sweep runner
or the service's worker pool may use; it never changes *what* is
computed — charged model costs are bit-identical with any ``jobs`` value
(see ``DESIGN.md: Host parallelism vs. model parallelism``).

``jobs <= 1`` disables fan-out entirely.

Degradation is always graceful: when the pool cannot be used (process
start failure, unpicklable payloads, a worker lost past its retries)
the task runner (:func:`repro.parallel.sweep.parallel_map`) finishes
inline — same results, one :class:`ParallelFallbackWarning` per process
per reason.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.resilience.retry import RetryPolicy

__all__ = [
    "ParallelConfig",
    "ParallelFallbackWarning",
    "SERIAL",
    "resolve_parallel",
    "warn_fallback_once",
    "reset_fallback_warnings",
]


class ParallelFallbackWarning(RuntimeWarning):
    """A parallel path silently degraded to the serial one (results are
    unaffected — only wall-clock speedup is lost)."""


@dataclass(frozen=True)
class ParallelConfig:
    """How much host parallelism to use, and how to retry the pool.

    Parameters
    ----------
    jobs:
        Worker-process count; ``<= 1`` means serial (no pool is touched).
    retry:
        :class:`~repro.resilience.retry.RetryPolicy` for infrastructure
        failures (worker death, per-task deadline overrun).  ``None``
        (default) uses the package default — two retries with
        exponential backoff and no deadline; pass
        :data:`~repro.resilience.retry.NO_RETRY` to make the first
        failure terminal.  Retries never change charged costs: pool
        tasks are pure functions of their payloads.

    >>> cfg = ParallelConfig(jobs=4)
    >>> cfg.enabled
    True
    >>> SERIAL.enabled
    False
    >>> resolve_parallel(2)
    ParallelConfig(jobs=2, retry=None)
    >>> resolve_parallel(1) is SERIAL
    True
    """

    jobs: int = 1
    retry: "RetryPolicy | None" = None

    @property
    def enabled(self) -> bool:
        return self.jobs > 1

    @classmethod
    def from_env(cls) -> "ParallelConfig":
        """Read ``REPRO_JOBS``.

        Both serial outcomes return the :data:`SERIAL` singleton itself,
        not a fresh instance: an unset/empty/invalid ``REPRO_JOBS`` and
        a parsed ``jobs <= 1`` alike yield ``from_env() is SERIAL``
        (``tests/test_parallel.py`` asserts the identity), so consumers
        may use ``is SERIAL`` as the "no parallelism requested" check.
        """
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return SERIAL
        try:
            jobs = int(raw)
        except ValueError:
            warn_fallback_once(f"ignoring non-integer REPRO_JOBS={raw!r}")
            return SERIAL
        return cls(jobs=jobs) if jobs > 1 else SERIAL


#: the do-nothing config: every consumer treats it as "stay serial"
SERIAL = ParallelConfig(jobs=1)


def resolve_parallel(
    parallel: "ParallelConfig | int | None",
) -> ParallelConfig:
    """Normalize a user-facing ``parallel`` argument.

    ``None`` defers to the environment (``REPRO_JOBS``), an ``int`` is a
    job count, and a :class:`ParallelConfig` passes through.
    """
    if parallel is None:
        return ParallelConfig.from_env()
    if isinstance(parallel, ParallelConfig):
        return parallel
    if isinstance(parallel, int):
        return ParallelConfig(jobs=parallel) if parallel > 1 else SERIAL
    raise TypeError(
        f"parallel must be ParallelConfig | int | None, got {parallel!r}"
    )


_warned_reasons: set[str] = set()


def warn_fallback_once(reason: str) -> None:
    """Emit one :class:`ParallelFallbackWarning` per process per reason."""
    if reason in _warned_reasons:
        return
    _warned_reasons.add(reason)
    warnings.warn(reason, ParallelFallbackWarning, stacklevel=3)


def reset_fallback_warnings() -> None:
    """Forget emitted one-shot warnings (tests only)."""
    _warned_reasons.clear()
