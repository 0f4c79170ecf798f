"""Async jobs: long sweeps as first-class, restartable service objects.

A *job* is a named sweep — the bench matrix, a Fact 1/2 touch sweep, or
an ad-hoc cell list — enqueued over HTTP (``POST /v1/jobs``) and
executed in the background by the :class:`JobManager`'s runner thread,
cell by cell, on the same shared worker pool the interactive
``/v1/run`` traffic uses.  Three properties make jobs more than a
thread wrapper:

* **Checkpointed.**  Every cell is run as a one-cell
  :func:`~repro.parallel.sweep.parallel_map` against the job's own
  :class:`~repro.resilience.ledger.SweepLedger`, so a recorded cell is
  replayed, not recomputed, and a computed cell is flushed + fsynced
  the moment it finishes.  The final document is
  produced by the *same fold* the CLI sweeps use
  (:func:`~repro.parallel.sweep.touch_sweep`,
  :func:`~repro.parallel.sweep.run_matrix_distributed`,
  :func:`~repro.parallel.sweep.run_cells`) over the fully-populated
  ledger — a resumed job's result is byte-identical to an uninterrupted
  run's.
* **Restartable.**  A job persists a *manifest* (atomic JSON rewrite)
  next to its ledger under the jobs directory.  A restarted server
  scans the directory, re-adopts every job whose manifest is not in a
  terminal state, and resumes it from its ledger checkpoint — a
  mid-job server kill costs at most the cell that was in flight.
* **Polite.**  The runner asks the shared
  :class:`~repro.service.scheduler.PoolGate` for a turn before every
  batch cell, so interactive requests keep strict precedence over batch
  sweeps (with an anti-starvation deadline).  Completed ``cells``-job
  results are also inserted into the interactive result cache, so a job
  warms the cache for the ``/v1/run`` traffic that follows it.

Progress streams out of ``GET /v1/jobs/<id>/events`` as chunked JSON
lines, fed directly from the ledger's append hook
(:meth:`~repro.resilience.ledger.SweepLedger.subscribe`): one event per
checkpointed cell, plus lifecycle events (``adopted``, ``started``,
``done``, ``failed``, ``cancelled``).
"""

from __future__ import annotations

import json
import os
import queue
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.engines import resolve_access_function
from repro.parallel.config import SERIAL, resolve_parallel
from repro.parallel.sweep import (
    parallel_map,
    run_cells,
    run_matrix_distributed,
    touch_sweep,
)
from repro.resilience.faults import FaultAbort
from repro.resilience.ledger import SweepLedger, cell_key
from repro.service.errors import ApiError
from repro.service.scheduler import (
    SERVICE_SCHEMA,
    PoolGate,
    SimRequest,
    _normalize,
)

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "DEFAULT_PRIORITY",
    "JobSpec",
    "Job",
    "JobManager",
]

JOB_KINDS = ("touch", "bench", "cells")

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: default job priority; lower numbers run first
DEFAULT_PRIORITY = 10

#: trace levels a batch cell may request — recorded span objects do not
#: survive the ledger's JSON checkpointing, so traced runs stay on the
#: interactive path
_CELL_TRACE_LEVELS = ("off", "counters")


@dataclass(frozen=True)
class JobSpec:
    """One validated job description (the body of ``POST /v1/jobs``).

    ``kind`` selects the sweep family; exactly the fields of that kind
    may be present:

    * ``touch`` — ``sizes`` (list of positive ints) and ``f`` (access
      function spec): the Fact 1/2 charged-cost sweep, one cell per
      size.  Result document == ``python -m repro touch --sweep``.
    * ``bench`` — ``smoke`` (bool) and ``budget_s`` (positive number):
      the distributed bench matrix, one cell per workload.  Result
      document == ``python -m repro bench --distribute`` (modulo the
      ``resilience`` section's resume counts and the measured wall
      numbers, which are recorded per cell).
    * ``cells`` — ``cells``: a list of ``/v1/run`` request documents
      (validated by :class:`~repro.service.scheduler.SimRequest`), one
      cell each; traces are limited to ``off``/``counters``.  Completed
      cells are inserted into the interactive result cache.
    """

    kind: str
    sizes: tuple[int, ...] = ()
    f: str = "x^0.5"
    smoke: bool = False
    budget_s: float | None = None
    cells: tuple[SimRequest, ...] = field(default_factory=tuple)

    _FIELDS_BY_KIND = {
        "touch": ("sizes", "f"),
        "bench": ("smoke", "budget_s"),
        "cells": ("cells",),
    }

    # ---------------------------------------------------------- validation
    @classmethod
    def from_json(cls, doc: Any) -> "JobSpec":
        """Build and validate a spec; ``ValueError`` on any bad body."""
        if not isinstance(doc, dict):
            raise ValueError(
                f"job body must be a JSON object, got {type(doc).__name__}"
            )
        kind = doc.get("kind")
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; expected one of: "
                f"{', '.join(JOB_KINDS)}"
            )
        allowed = set(cls._FIELDS_BY_KIND[kind]) | {"kind"}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise ValueError(
                f"unknown field(s) {', '.join(unknown)} for a {kind!r} job; "
                f"expected a subset of: {', '.join(sorted(allowed))}"
            )
        if kind == "touch":
            sizes = doc.get("sizes")
            if (
                not isinstance(sizes, list)
                or not sizes
                or not all(
                    isinstance(n, int) and not isinstance(n, bool) and n >= 1
                    for n in sizes
                )
            ):
                raise ValueError(
                    '"sizes" must be a non-empty list of positive integers'
                )
            f = doc.get("f", "x^0.5")
            if not isinstance(f, str):
                raise ValueError(f'"f" must be a string, got {f!r}')
            resolve_access_function(f)  # raises on a bad spec
            return cls(kind="touch", sizes=tuple(sizes), f=f)
        if kind == "bench":
            smoke = doc.get("smoke", False)
            if not isinstance(smoke, bool):
                raise ValueError(f'"smoke" must be a boolean, got {smoke!r}')
            budget_s = doc.get("budget_s")
            if budget_s is not None and (
                not isinstance(budget_s, (int, float))
                or isinstance(budget_s, bool)
                or budget_s <= 0
            ):
                raise ValueError(
                    f'"budget_s" must be a positive number, got {budget_s!r}'
                )
            return cls(
                kind="bench",
                smoke=smoke,
                budget_s=None if budget_s is None else float(budget_s),
            )
        cells = doc.get("cells")
        if not isinstance(cells, list) or not cells:
            raise ValueError(
                '"cells" must be a non-empty list of run-request documents'
            )
        requests = []
        for i, cell in enumerate(cells):
            try:
                request = SimRequest.from_json(cell)
            except ValueError as exc:
                raise ValueError(f"cells[{i}]: {exc}") from None
            if request.trace not in _CELL_TRACE_LEVELS:
                raise ValueError(
                    f"cells[{i}]: trace {request.trace!r} is not available "
                    f"in batch jobs (expected one of: "
                    f"{', '.join(_CELL_TRACE_LEVELS)}); use /v1/run for "
                    f"traced runs"
                )
            requests.append(request)
        return cls(kind="cells", cells=tuple(requests))

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind}
        if self.kind == "touch":
            doc["sizes"] = list(self.sizes)
            doc["f"] = self.f
        elif self.kind == "bench":
            doc["smoke"] = self.smoke
            doc["budget_s"] = self.budget_s
        else:
            doc["cells"] = [request.to_json() for request in self.cells]
        return doc

    # ------------------------------------------------------------ planning
    def plan(self) -> tuple[str, list, dict[str, Any] | None]:
        """``(task kind, per-cell args, cell-key context)`` for this sweep.

        The kinds, argument tuples and contexts are exactly the ones the
        CLI sweeps use, so a job ledger is interchangeable with a
        ``--checkpoint``/``--resume`` ledger of the same sweep.
        """
        if self.kind == "touch":
            return "touch-cost", [(n, self.f) for n in self.sizes], None
        if self.kind == "bench":
            import dataclasses

            from repro.bench import (
                DEFAULT_BUDGET_S,
                WORKLOAD_CELL_CONTEXT,
                WORKLOADS,
            )

            budget = self.budget_s if self.budget_s is not None else (
                DEFAULT_BUDGET_S
            )
            args = [
                (dataclasses.asdict(w), budget, self.smoke) for w in WORKLOADS
            ]
            return "bench-workload", args, dict(WORKLOAD_CELL_CONTEXT)
        args = [request.args for request in self.cells]
        return "run-cell", args, {"schema": SERVICE_SCHEMA}

    def fold(self, ledger: SweepLedger) -> Any:
        """Assemble the final document from a fully-populated ledger.

        Delegates to the canonical CLI fold for the sweep family —
        every cell replays from the ledger (nothing recomputes), so the
        document is identical to an uninterrupted run's.
        """
        if self.kind == "touch":
            return touch_sweep(
                list(self.sizes), f=self.f, parallel=SERIAL, ledger=ledger
            )
        if self.kind == "bench":
            return run_matrix_distributed(
                budget_s=self.budget_s, smoke=self.smoke,
                parallel=SERIAL, ledger=ledger,
            )
        docs, _spans = run_cells(
            [request.args for request in self.cells],
            parallel=SERIAL, ledger=ledger,
            context={"schema": SERVICE_SCHEMA},
        )
        return {"cells": [_normalize(doc) for doc in docs]}


class Job:
    """One job's runtime state (the manifest is its persisted shadow)."""

    def __init__(self, job_id: str, spec: JobSpec, priority: int, seq: int):
        self.id = job_id
        self.spec = spec
        self.priority = priority
        self.seq = seq
        self.state = "queued"
        self.error: str | None = None
        task_kind, args_list, context = spec.plan()
        self.task_kind = task_kind
        self.args_list = args_list
        self.context = context
        self.cells_total = len(args_list)
        self.cells_done = 0
        self.result: Any = None
        self.cancel_requested = False
        self.cond = threading.Condition()
        self.events: list[dict[str, Any]] = []

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def keys(self) -> list[str]:
        return [
            cell_key(self.task_kind, args, self.context)
            for args in self.args_list
        ]

    def status_doc(self) -> dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` document."""
        with self.cond:
            return {
                "id": self.id,
                "kind": self.spec.kind,
                "state": self.state,
                "priority": self.priority,
                "cells_total": self.cells_total,
                "cells_done": self.cells_done,
                "error": self.error,
                "spec": self.spec.to_json(),
            }

    def emit(self, event: dict[str, Any]) -> None:
        with self.cond:
            self.events.append(event)
            self.cond.notify_all()


class JobManager:
    """Owns the jobs directory, the runner thread, and the job registry.

    One manager serves one :class:`~repro.service.server.SimService`.
    Jobs run strictly one at a time (batch work is background work; the
    worker pool's parallelism lives across a job's cells), ordered by
    ``(priority, submission order)``.
    """

    def __init__(
        self,
        jobs_dir: str,
        parallel: Any = 1,
        gate: PoolGate | None = None,
        cache=None,
    ):
        self.jobs_dir = jobs_dir
        self.parallel = resolve_parallel(parallel)
        self.gate = gate
        self.cache = cache
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: "queue.PriorityQueue[tuple[int, int, str]]" = (
            queue.PriorityQueue()
        )
        self._seq = 0
        self._stopping = False
        self.started_order: list[str] = []  # observability + tests
        os.makedirs(jobs_dir, exist_ok=True)
        self._adopt()
        self._runner = threading.Thread(
            target=self._run_loop, daemon=True, name="repro-job-runner"
        )
        self._runner.start()

    # ------------------------------------------------------------- paths
    def _manifest_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.manifest.json")

    def _ledger_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.ledger")

    def _result_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.result.json")

    def _write_manifest(self, job: Job) -> None:
        """Atomically persist the job's control state (never its result)."""
        doc = {
            "schema": SERVICE_SCHEMA,
            "id": job.id,
            "kind": job.spec.kind,
            "spec": job.spec.to_json(),
            "priority": job.priority,
            "seq": job.seq,
            "state": job.state,
            "cells_total": job.cells_total,
            "cells_done": job.cells_done,
            "error": job.error,
        }
        path = self._manifest_path(job.id)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # ----------------------------------------------------------- adoption
    def _adopt(self) -> None:
        """Re-register persisted jobs; re-enqueue the incomplete ones.

        A manifest whose state is ``queued`` or ``running`` belonged to
        a server that died mid-job — the job resumes from its ledger
        checkpoint (state folds back to ``queued``).  Terminal jobs stay
        available for ``GET`` (their results are read back lazily).
        """
        adopted = []
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".manifest.json"):
                continue
            try:
                with open(os.path.join(self.jobs_dir, name)) as fh:
                    doc = json.load(fh)
                spec = JobSpec.from_json(doc["spec"])
                job = Job(
                    doc["id"], spec,
                    int(doc.get("priority", DEFAULT_PRIORITY)),
                    int(doc.get("seq", 0)),
                )
            except (OSError, ValueError, KeyError) as exc:
                # mirror the ledger's recovery policy: a corrupt manifest
                # costs its own job, never the server
                import warnings

                warnings.warn(
                    f"skipping corrupt job manifest {name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            job.state = doc.get("state", "queued")
            job.cells_done = int(doc.get("cells_done", 0))
            job.error = doc.get("error")
            self._jobs[job.id] = job
            self._seq = max(self._seq, job.seq + 1)
            if not job.terminal:
                job.state = "queued"
                job.emit({"event": "adopted", "job": job.id,
                          "cells_done": job.cells_done,
                          "cells_total": job.cells_total})
                adopted.append(job)
        for job in sorted(adopted, key=lambda j: (j.priority, j.seq)):
            self._queue.put((job.priority, job.seq, job.id))

    # ----------------------------------------------------------- frontend
    def submit(self, spec: JobSpec, priority: int = DEFAULT_PRIORITY) -> Job:
        """Persist and enqueue a new job; returns it in state ``queued``."""
        with self._lock:
            job_id = f"job-{uuid.uuid4().hex[:12]}"
            job = Job(job_id, spec, priority, self._seq)
            self._seq += 1
            self._jobs[job_id] = job
        self._write_manifest(job)
        self._queue.put((job.priority, job.seq, job.id))
        return job

    def submit_json(self, body: Any) -> Job:
        """``POST /v1/jobs`` body -> job (priority rides outside the spec)."""
        if not isinstance(body, dict):
            raise ValueError(
                f"job body must be a JSON object, got {type(body).__name__}"
            )
        body = dict(body)
        priority = body.pop("priority", DEFAULT_PRIORITY)
        if (
            not isinstance(priority, int)
            or isinstance(priority, bool)
            or priority < 0
        ):
            raise ValueError(
                f'"priority" must be a non-negative integer, got {priority!r}'
            )
        return self.submit(JobSpec.from_json(body), priority)

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(404, "not_found", f"no such job {job_id!r}")
        return job

    def list(self) -> list[dict[str, Any]]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
        return [job.status_doc() for job in jobs]

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job (takes effect at a cell edge)."""
        job = self.get(job_id)
        with job.cond:
            if job.terminal:
                raise ApiError(
                    409, "job_finished",
                    f"job {job_id!r} is already {job.state}",
                )
            job.cancel_requested = True
            if job.state == "queued":
                job.state = "cancelled"
                job.events.append({"event": "cancelled", "job": job.id})
                job.cond.notify_all()
        if job.state == "cancelled":
            self._write_manifest(job)
        return job

    def result(self, job_id: str) -> Any:
        """The finished document, or the appropriate envelope error."""
        job = self.get(job_id)
        if job.state == "failed":
            raise ApiError(
                500, "job_failed", job.error or f"job {job_id!r} failed"
            )
        if job.state != "done":
            raise ApiError(
                409, "job_not_finished",
                f"job {job_id!r} is {job.state} "
                f"({job.cells_done}/{job.cells_total} cells)",
            )
        if job.result is None:
            with open(self._result_path(job_id)) as fh:
                job.result = json.load(fh)
        return job.result

    # ------------------------------------------------------------- events
    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield a snapshot, then every event as it lands, until terminal.

        The per-cell events are fed from the job ledger's append hook;
        the generator drains the backlog first, so a late subscriber
        still sees the full (this-process) history.
        """
        job = self.get(job_id)
        yield {"event": "snapshot", "job": job.id, **job.status_doc()}
        index = 0
        while True:
            with job.cond:
                while index >= len(job.events) and not job.terminal:
                    job.cond.wait(timeout=0.5)
                fresh = job.events[index:]
                index += len(fresh)
                finished = job.terminal and index >= len(job.events)
            for event in fresh:
                yield event
            if finished:
                return

    def gauges(self) -> dict[str, Any]:
        """The ``jobs`` section of ``GET /metrics``."""
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        doc: dict[str, Any] = {"enabled": True, "dir": self.jobs_dir}
        doc.update(states)
        if self.gate is not None:
            doc["gate"] = self.gate.gauges()
        return doc

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the runner at the next cell edge and wait for it.

        Incomplete jobs keep their ``running``/``queued`` manifests and
        ledgers — a manager reopened on the same directory re-adopts
        and finishes them.  (This is also how the in-process loadgen
        driver emulates a mid-job server kill.)
        """
        self._stopping = True
        self._queue.put((-1, -1, ""))  # wake the runner
        self._runner.join(timeout=30)

    # ------------------------------------------------------------- runner
    def _run_loop(self) -> None:
        while not self._stopping:
            try:
                _prio, _seq, job_id = self._queue.get(timeout=0.5)
            except queue.Empty:
                continue
            if self._stopping or not job_id:
                break
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                continue
            try:
                self._run_job(job)
            except FaultAbort:
                # injected mid-job crash: leave the manifest as-is
                # ("running"), exactly like a real kill — a restarted
                # manager re-adopts and resumes from the ledger
                return
            except Exception as exc:  # defensive: a job never kills the loop
                # event + state flip atomically: a streamer woken by the
                # terminal state must already see the terminal event
                with job.cond:
                    job.state = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.events.append({"event": "failed", "job": job.id,
                                       "error": job.error})
                    job.cond.notify_all()
                self._write_manifest(job)

    def _run_job(self, job: Job) -> None:
        with job.cond:
            if job.cancel_requested:
                job.state = "cancelled"
                job.events.append({"event": "cancelled", "job": job.id})
                job.cond.notify_all()
            else:
                job.state = "running"
        if job.state == "cancelled":
            self._write_manifest(job)
            return
        self.started_order.append(job.id)
        self._write_manifest(job)
        ledger_path = self._ledger_path(job.id)
        if os.path.exists(ledger_path):
            ledger = SweepLedger.resume(ledger_path)
        else:
            ledger = SweepLedger.create(ledger_path)
        try:
            self._run_cells(job, ledger)
        finally:
            ledger.close()

    def _run_cells(self, job: Job, ledger: SweepLedger) -> None:
        keys = job.keys()
        job.cells_done = sum(1 for key in keys if key in ledger)

        def on_append(key: str, kind: str, result: Any) -> None:
            with job.cond:
                job.cells_done += 1
            job.emit({
                "event": "cell", "job": job.id, "key": key,
                "done": job.cells_done, "total": job.cells_total,
                "replayed": False,
            })

        ledger.subscribe(on_append)
        job.emit({"event": "started", "job": job.id,
                  "cells_done": job.cells_done,
                  "cells_total": job.cells_total})
        for index, args in enumerate(job.args_list):
            if self._stopping:
                return  # manifest stays "running": resumed on re-adopt
            if job.cancel_requested:
                with job.cond:
                    job.state = "cancelled"
                    job.events.append({"event": "cancelled", "job": job.id,
                                       "done": job.cells_done,
                                       "total": job.cells_total})
                    job.cond.notify_all()
                self._write_manifest(job)
                return
            replayed = keys[index] in ledger
            if not replayed and self.gate is not None:
                self.gate.batch_turn()  # interactive traffic goes first
            # one-cell map: ledger replay or pool/inline run, JSON
            # normalization, checkpoint append and fault hooks
            parallel_map(
                job.task_kind, [args], self.parallel, ledger, job.context
            )
            if replayed:
                job.emit({
                    "event": "cell", "job": job.id, "key": keys[index],
                    "done": job.cells_done, "total": job.cells_total,
                    "replayed": True,
                })
        doc = job.spec.fold(ledger)
        result_path = self._result_path(job.id)
        tmp = result_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, result_path)
        self._warm_cache(job, doc)
        with job.cond:
            job.result = doc
            job.state = "done"
            job.events.append({"event": "done", "job": job.id,
                               "cells_done": job.cells_done,
                               "cells_total": job.cells_total})
            job.cond.notify_all()
        self._write_manifest(job)

    def _warm_cache(self, job: Job, doc: Any) -> None:
        """Insert a ``cells`` job's results into the interactive cache.

        The cell documents and content keys are exactly what the
        scheduler would have computed for the same ``/v1/run`` body, so
        subsequent interactive requests are served ``cached``.
        """
        if self.cache is None or job.spec.kind != "cells":
            return
        for request, cell_doc in zip(job.spec.cells, doc["cells"]):
            self.cache.put(request.key(), "run-cell", cell_doc, source="job")
