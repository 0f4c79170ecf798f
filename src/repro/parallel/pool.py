"""A persistent process pool with ordered dispatch and honest failure.

:class:`WorkerPool` wraps :class:`concurrent.futures.ProcessPoolExecutor`
lazily: no process is started until the first dispatch, and the pool then
persists for the life of the interpreter (one warm-up per process, not
per simulation).  Pools are shared per job count through
:func:`shared_pool` so every consumer (sweeps, service scheduler, jobs
manager) reuses the same workers.  :meth:`WorkerPool.run_ordered` is the
one dispatch path, and the task runner
(:func:`repro.parallel.sweep.parallel_map`) is its only caller in the
package.

Failure taxonomy — the part that matters for bit-identical fallback:

* **Infrastructure failures** (executor cannot start, a worker process
  died past its retries, a task result could not be pickled) raise
  :class:`PoolUnavailable`.  The task runner treats it as "parallelism
  is not available here" and finishes the work inline — results are
  unaffected.
* **Task failures** (the simulated program itself raised) propagate the
  original exception unchanged, exactly as the serial path would — a
  genuine ``ValueError`` from an engine must never be eaten by the
  parallel machinery.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Iterator

from repro.parallel.workers import TASKS
from repro.resilience import faults, recovery
from repro.resilience.retry import DEFAULT_RETRY, RetryPolicy

__all__ = [
    "PoolUnavailable",
    "WorkerPool",
    "shared_pool",
    "dumps_payload",
]


class PoolUnavailable(RuntimeError):
    """The worker pool cannot run tasks; the runner finishes inline."""


class _ResultUnpicklable(Exception):
    """Raised *inside a worker* when a task's result cannot be pickled.

    Carries only a ``repr`` string so it always crosses the process
    boundary; the parent converts it to :class:`PoolUnavailable`.
    """


def dumps_payload(obj: Any) -> bytes:
    """Pickle a task payload, raising :class:`PoolUnavailable` on failure.

    Pre-pickling in the parent keeps the failure mode clean: an
    unpicklable payload surfaces here, before any process is
    touched, and the task runner finishes inline — instead of surfacing
    as an opaque executor error after dispatch.
    """
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise PoolUnavailable(f"payload does not pickle: {exc!r}") from exc


def _run_payload(blob: bytes) -> bytes:
    """Worker-side trampoline: decode, dispatch, encode.

    Task exceptions propagate natively (the executor ships them back and
    ``Future.result`` re-raises); only *result pickling* failures are
    wrapped, so the parent can tell "your result cannot cross the
    boundary" (infrastructure) from "your program crashed" (genuine).
    """
    faults.maybe_inject_task_fault(blob)
    kind, args = pickle.loads(blob)
    result = TASKS[kind](args)
    try:
        return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise _ResultUnpicklable(f"{kind} result does not pickle: {exc!r}")


class WorkerPool:
    """A lazily-started, persistent pool of ``jobs`` worker processes."""

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None

    # ----------------------------------------------------------- lifecycle
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            except Exception as exc:
                raise PoolUnavailable(
                    f"cannot start worker pool: {exc!r}"
                ) from exc
        return self._executor

    def shutdown(self) -> None:
        """Stop the workers (tests; normal exit is handled by atexit)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _discard_broken(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------ dispatch
    def _submit(self, blob: bytes) -> Future:
        """Submit one pre-pickled payload; ``PoolUnavailable`` on failure.

        An executor found broken at submit time (a worker died after
        its last result was collected) is rebuilt once: the break
        belongs to earlier work, so this payload deserves a fresh pool
        before any failure is reported.
        """
        for last in (False, True):
            executor = self._ensure_executor()
            try:
                return executor.submit(_run_payload, blob)
            except BrokenProcessPool as exc:
                self._discard_broken()
                if last:
                    raise PoolUnavailable(
                        f"cannot submit to pool: {exc!r}"
                    ) from exc
            except Exception as exc:
                raise PoolUnavailable(f"cannot submit to pool: {exc!r}") from exc
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _needs_resubmit(fut: Future) -> bool:
        """Did this future lose its attempt to the pool breaking?"""
        if fut.cancelled() or not fut.done():
            return True
        exc = fut.exception()
        return exc is not None and isinstance(exc, BrokenProcessPool)

    def run_ordered(
        self,
        kind: str,
        args_list: list[Any],
        policy: RetryPolicy | None = None,
    ) -> Iterator[Any]:
        """Run ``kind`` over ``args_list``; yield results in order.

        Payloads are pickled and submitted eagerly, so an unpicklable
        payload raises :class:`PoolUnavailable` before anything is
        submitted.  Infrastructure failures are retried per
        :class:`~repro.resilience.retry.RetryPolicy` (``policy``; the
        package default when omitted): a worker death rebuilds the
        executor and resubmits every attempt it took down, and a task
        that exceeds ``policy.timeout_s`` is resubmitted with
        exponential backoff.  Tasks are pure functions of their
        payloads, so a retried attempt yields the identical result; only
        after a task exhausts ``policy.max_retries`` does the failure
        surface as :class:`PoolUnavailable` (and the broken executor is
        discarded so a later run can rebuild it).  Task exceptions
        re-raise unchanged on first occurrence.  Retry activity is
        recorded on the :mod:`repro.resilience.recovery` side channel,
        never on any charged clock.  Unfinished futures are cancelled
        when the consumer stops early.
        """
        payloads = [dumps_payload((kind, args)) for args in args_list]
        futures: list[Future] = []
        try:
            for blob in payloads:
                futures.append(self._submit(blob))
        except PoolUnavailable:
            for fut in futures:
                fut.cancel()
            raise
        return self._gather(kind, payloads, futures, policy)

    def _gather(
        self,
        kind: str,
        payloads: list[bytes],
        futures: list[Future],
        policy: RetryPolicy | None,
    ) -> Iterator[Any]:
        if policy is None:
            policy = DEFAULT_RETRY
        attempts = [0] * len(futures)
        try:
            index = 0
            while index < len(futures):
                fut = futures[index]
                try:
                    blob = fut.result(timeout=policy.timeout_s)
                except (FuturesTimeout, TimeoutError) as exc:
                    if fut.done():
                        raise  # the task itself raised TimeoutError
                    attempts[index] += 1
                    recovery.record(
                        "pool_timeouts",
                        kind=kind,
                        index=index,
                        attempt=attempts[index],
                    )
                    if attempts[index] > policy.max_retries:
                        raise PoolUnavailable(
                            f"task {index} exceeded its {policy.timeout_s}s "
                            f"deadline {attempts[index]} time(s)"
                        ) from exc
                    fut.cancel()
                    recovery.record(
                        "pool_retries", kind=kind, index=index, cause="timeout"
                    )
                    policy.sleep(attempts[index])
                    futures[index] = self._submit(payloads[index])
                    continue
                except BrokenProcessPool as exc:
                    self._discard_broken()
                    attempts[index] += 1
                    recovery.record(
                        "worker_deaths",
                        kind=kind,
                        index=index,
                        attempt=attempts[index],
                    )
                    if attempts[index] > policy.max_retries:
                        raise PoolUnavailable(
                            f"worker pool broke {attempts[index]} time(s) "
                            f"on task {index}: {exc!r}"
                        ) from exc
                    recovery.record(
                        "pool_retries", kind=kind, index=index, cause="death"
                    )
                    policy.sleep(attempts[index])
                    # The break takes down every in-flight and queued
                    # attempt, not just the one being waited on —
                    # resubmit all of them to the rebuilt executor.
                    for j in range(index, len(futures)):
                        if self._needs_resubmit(futures[j]):
                            futures[j] = self._submit(payloads[j])
                    continue
                except _ResultUnpicklable as exc:
                    raise PoolUnavailable(str(exc)) from exc
                yield pickle.loads(blob)
                index += 1
        finally:
            for fut in futures:
                fut.cancel()


_shared: dict[int, WorkerPool] = {}


def shared_pool(jobs: int) -> WorkerPool:
    """The process-wide pool for ``jobs`` workers (created on first use)."""
    pool = _shared.get(jobs)
    if pool is None:
        pool = _shared[jobs] = WorkerPool(jobs)
    return pool
