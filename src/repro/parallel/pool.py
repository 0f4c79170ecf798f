"""A persistent process pool with ordered dispatch and honest failure.

:class:`WorkerPool` keeps ``jobs`` forked worker processes, each on its
own duplex pipe.  No process starts until the first dispatch, which
forks them all; the pool then persists for the life of the interpreter
(one warm-up per process, not per simulation).  Pools are shared per
job count through :func:`shared_pool` so every consumer (sweeps,
service scheduler, jobs manager) reuses the same workers.
:meth:`WorkerPool.run_ordered` is the one dispatch path, and the task
runner (:func:`repro.parallel.sweep.parallel_map`) is its only caller in
the package.

One task is one round trip: the calling thread checks out an idle
worker, sends the pickled payload down its pipe and waits on that pipe
and on the worker's process sentinel.  Checkout is thread-safe, so HTTP
handler threads and the jobs manager dispatch side by side.

Failure taxonomy — the part that matters for bit-identical fallback:

* **Infrastructure failures** (a worker cannot be forked, a task lost
  its worker or its deadline past its retries, a task result could not
  be pickled) raise :class:`PoolUnavailable`.  The task runner treats it
  as "parallelism is not available here" and finishes the work inline —
  results are unaffected.  A worker death costs one task: that worker
  alone is replaced and that task alone retried.
* **Task failures** (the simulated program itself raised) propagate the
  original exception unchanged, exactly as the serial path would — a
  genuine ``ValueError`` from an engine must never be eaten by the
  parallel machinery.

Workers never outlive the pool: :meth:`WorkerPool.shutdown` kills the
busy ones (tasks are pure, and nothing is left to read their replies),
and a worker whose parent dies reads end-of-file on its pipe and exits.
"""

from __future__ import annotations

import contextlib
import itertools
import pickle
import threading
import time
from multiprocessing import connection, get_context
from typing import Any, Iterator

from repro.parallel.workers import TASKS
from repro.resilience import faults, recovery
from repro.resilience.retry import DEFAULT_RETRY, RetryPolicy

__all__ = ["PoolUnavailable", "WorkerPool", "shared_pool", "dumps_payload"]

_FORK = get_context("fork")
#: how often a checkout looks for an overrun worker's late reply
_POLL_S = 0.01
#: every live worker's parent-side pipe end, in any pool; a forked
#: worker closes all of them, so each worker reads end-of-file as soon
#: as its parent closes (or loses) its own end
_PARENT_ENDS: set[connection.Connection] = set()


class PoolUnavailable(RuntimeError):
    """The worker pool cannot run tasks; the runner finishes inline."""


class _ResultUnpicklable(PoolUnavailable):
    """Raised *inside a worker* when a task's result cannot be pickled.

    Carries only a ``repr`` string so it always crosses the process
    boundary; the parent re-raises it, as the :class:`PoolUnavailable`
    it is.
    """


class _Raised(Exception):
    """A worker's reply for a task that raised (never a task result)."""


def dumps_payload(obj: Any) -> bytes:
    """Pickle a task payload, raising :class:`PoolUnavailable` on failure.

    Pre-pickling in the parent keeps the failure mode clean: an
    unpicklable payload surfaces here, before any process is
    touched, and the task runner finishes inline — instead of surfacing
    as an opaque pipe error after dispatch.
    """
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise PoolUnavailable(f"payload does not pickle: {exc!r}") from exc


def _run_payload(blob: bytes) -> bytes:
    """Worker-side trampoline: decode, dispatch, encode.

    Task exceptions propagate (the worker loop ships them back and the
    parent re-raises them); only *result pickling* failures are
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


def _serve(conn: connection.Connection, own: connection.Connection) -> None:
    """A worker's life: one reply per payload, until end-of-file."""
    for end in [own, *_PARENT_ENDS]:
        end.close()
    with contextlib.suppress(EOFError, OSError):  # the parent is gone
        while True:
            blob = conn.recv_bytes()
            try:
                reply = _run_payload(blob)
            except Exception as exc:
                try:
                    reply = pickle.dumps(_Raised(exc), pickle.HIGHEST_PROTOCOL)
                except Exception:
                    lost = _ResultUnpicklable(f"task error does not pickle: {exc!r}")
                    reply = pickle.dumps(_Raised(lost))
            conn.send_bytes(reply)


class _Worker:
    """One forked worker process and the parent's end of its pipe."""

    def __init__(self) -> None:
        self.conn, child = _FORK.Pipe()
        self.proc = _FORK.Process(
            target=_serve, args=(child, self.conn), daemon=True
        )
        try:
            self.proc.start()
        except Exception as exc:
            raise PoolUnavailable(f"cannot fork a pool worker: {exc!r}") from exc
        finally:
            child.close()
        _PARENT_ENDS.add(self.conn)

    def stop(self, kill: bool) -> None:
        """Close the pipe (an idle worker exits on it), kill the process
        if asked, and reap it."""
        _PARENT_ENDS.discard(self.conn)
        self.conn.close()
        if kill:
            self.proc.kill()
        self.proc.join()

    def reply(self, deadline: float | None) -> bytes | bool:
        """The reply to the payload sent: ``False`` if the worker died
        first, ``True`` if the ``time.monotonic`` deadline came first."""
        timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
        ready = connection.wait([self.conn, self.proc.sentinel], timeout)
        if self.conn in ready:
            with contextlib.suppress(EOFError, OSError):
                return self.conn.recv_bytes()
            return False
        return not ready


class WorkerPool:
    """A lazily-started, persistent pool of ``jobs`` worker processes."""

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._cond = threading.Condition()
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        #: workers whose attempt was given up on: each still owes its
        #: reply, which is read and dropped before it serves again
        self._late: list[_Worker] = []

    def shutdown(self) -> None:
        """Stop the workers, killing the busy ones (tests; at normal exit
        ``multiprocessing`` ends them)."""
        with self._cond:
            for worker in self._workers:
                worker.stop(kill=worker not in self._idle)
            self._workers, self._idle, self._late = [], [], []

    def _send(self, blob: bytes, deadline: float | None, block: bool = True):
        """Send ``blob`` to an idle worker and return it; ``None`` if the
        deadline passes first, or at once if not ``block`` and none is
        idle.  The first dispatch forks every worker, and a dead worker
        is replaced at the next."""
        with self._cond:
            while True:
                for worker in self._late[:]:  # a late reply frees its worker
                    self._late.remove(worker)
                    reply = worker.reply(0.0)
                    self._settle(worker, reply is not False, late=reply is True)
                while len(self._workers) < self.jobs:  # forked, or a dead one's
                    self._settle(_Worker(), True, new=True)  # replacement
                if self._idle:
                    break
                wait_s = None if deadline is None else deadline - time.monotonic()
                if not block or (wait_s is not None and wait_s <= 0):
                    return None
                if self._late:
                    wait_s = min(wait_s or _POLL_S, _POLL_S)
                self._cond.wait(wait_s)
            worker = self._idle.pop()
        with contextlib.suppress(OSError):  # a dead worker's sentinel answers
            worker.conn.send_bytes(blob)
        return worker

    def _settle(self, worker: _Worker, alive: bool, late=False, new=False) -> None:
        """Put a worker back (idle, or late while it owes a reply), or
        stop it if it died or the pool was shut down under it."""
        with self._cond:
            if new:
                self._workers.append(worker)
            if alive and worker in self._workers:
                (self._late if late else self._idle).append(worker)
            else:
                if worker in self._workers:
                    self._workers.remove(worker)
                worker.stop(kill=True)
            self._cond.notify_all()

    def run_ordered(
        self, kind: str, args_list: list[Any], policy: RetryPolicy | None = None
    ) -> Iterator[Any]:
        """Run ``kind`` over ``args_list``; yield results in order.

        Payloads are pickled eagerly, so an unpicklable payload raises
        :class:`PoolUnavailable` before anything is sent.  Up to
        ``jobs`` of the run's tasks are in flight at once.
        Infrastructure failures are retried per
        :class:`~repro.resilience.retry.RetryPolicy` (``policy``; the
        package default when omitted): a worker death replaces that
        worker and resends its task alone, and a task that exceeds
        ``policy.timeout_s`` (waiting for an idle worker included) is
        resent with exponential backoff, while the overrunning worker
        stays busy until its late reply is read and dropped.  Tasks are
        pure functions of their payloads, so a retried attempt yields
        the identical result; only after a task exhausts
        ``policy.max_retries`` does the failure surface as
        :class:`PoolUnavailable`.  Task exceptions re-raise unchanged on
        first occurrence.  Retry activity is recorded on the
        :mod:`repro.resilience.recovery` side channel, never on any
        charged clock.  A consumer that stops early leaves its in-flight
        workers to finish, as an overrun does.
        """
        payloads = [dumps_payload((kind, args)) for args in args_list]
        return self._stream(kind, payloads, policy or DEFAULT_RETRY)

    def _stream(self, kind: str, blobs: list[bytes], policy: RetryPolicy):
        inflight: dict[int, _Worker] = {}  # task index -> its worker
        try:
            for index in range(len(blobs)):
                result = pickle.loads(self._reply(kind, blobs, index, inflight, policy))
                if isinstance(result, _Raised):
                    raise result.args[0]
                yield result
        finally:
            for worker in inflight.values():
                self._settle(worker, True, late=True)

    def _reply(self, kind, payloads, index, inflight, policy) -> bytes:
        """Task ``index``'s reply, retried per ``policy``, with the next
        tasks sent ahead to idle workers (``inflight`` stays within
        ``[index, index + jobs)``)."""
        for tries in itertools.count(1):
            for j in range(index, min(len(payloads), index + self.jobs)):
                if j not in inflight:
                    worker = self._send(payloads[j], None, block=False)
                    if worker is None:
                        break
                    inflight[j] = worker
            timeout_s = policy.timeout_s
            deadline = None if timeout_s is None else time.monotonic() + timeout_s
            worker = inflight.pop(index, None) or self._send(payloads[index], deadline)
            reply = True if worker is None else worker.reply(deadline)
            if worker is not None:
                self._settle(worker, reply is not False, late=reply is True)
            if isinstance(reply, bytes):
                return reply
            cause = "timeout" if reply else "death"
            lost = "pool_timeouts" if reply else "worker_deaths"
            recovery.record(lost, kind=kind, index=index, attempt=tries)
            if tries > policy.max_retries:
                raise PoolUnavailable(f"task {index} gave up after {tries} {cause}(s)")
            recovery.record("pool_retries", kind=kind, index=index, cause=cause)
            policy.sleep(tries)


_shared: dict[int, WorkerPool] = {}


def shared_pool(jobs: int) -> WorkerPool:
    """The process-wide pool for ``jobs`` workers (created on first use)."""
    return _shared.get(jobs) or _shared.setdefault(jobs, WorkerPool(jobs))
