"""Admission, coalescing and dispatch for the simulation service.

The scheduler is the piece between the HTTP front end and the engines.
One request flows through four stages::

    admit ──► coalesce ──► cache ──► schedule (pool or inline) ──► charge

* **Admit** — at most ``queue_limit`` distinct computations may be in
  flight; a request that would exceed the bound is rejected with
  :class:`QueueFull` (the server maps it to ``429`` +  ``Retry-After``).
  Coalesced followers and cache hits never occupy a slot — backpressure
  applies to *work*, not to *traffic*.
* **Coalesce** — identical concurrent requests (same content-addressed
  key) share one computation: the first becomes the *leader*, the rest
  wait on the leader's flight and receive the same document
  (single-flight, N identical requests -> exactly 1 engine invocation).
* **Cache** — see :class:`~repro.service.cache.ResultCache`.
* **Schedule** — the computation itself is the request's registered
  worker task, ``request.task_kind``: ``run-cell`` for a
  :class:`SimRequest`, ``run-dag`` for a DAG request (both pure
  functions of the request args).  It runs as a one-cell
  :func:`~repro.parallel.sweep.parallel_map`: with ``jobs > 1`` on the
  shared :class:`~repro.parallel.pool.WorkerPool` under the configured
  :class:`~repro.resilience.retry.RetryPolicy`, so a worker death or a
  per-task deadline overrun is retried instead of failing the request;
  an unusable pool degrades to the inline path with one
  :class:`~repro.parallel.config.ParallelFallbackWarning`.  Either way
  the same task runs in one process, so the charged document is
  identical at any ``jobs`` value.

Before admission, :func:`parse_run_body` turns a raw ``/v1/run`` body
into its validated request and content key through a bounded memo on
the body bytes, so a repeat body (the usual cache hit) is neither
decoded, validated nor hashed again.

Every computed document passes one ``json.loads(json.dumps(...))``
round-trip before it is cached or returned, so computed, coalesced,
cache-hit and ledger-replayed responses are ``==``-identical.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.engines import ENGINES, PROGRAMS, resolve_access_function
from repro.obs.counters import Counters
from repro.obs.trace import SpanRecord
from repro.parallel.config import ParallelConfig, resolve_parallel
from repro.parallel.sweep import parallel_map
from repro.resilience.ledger import MISSING, cell_key

__all__ = [
    "SERVICE_SCHEMA",
    "TRACE_LEVELS",
    "QueueFull",
    "PoolGate",
    "SimRequest",
    "Scheduler",
    "decode_body",
    "parse_cache_info",
    "parse_run_body",
    "parse_run_doc",
    "parse_run_request",
]

#: version of the request/response contract; part of every cache key, so
#: bumping it invalidates every cached/persisted result at once
SERVICE_SCHEMA = 1

#: worker-task kind a :class:`SimRequest`'s computation runs as (and the
#: ledger kind its persisted entries are recorded under); DAG requests
#: carry ``run-dag``
TASK_KIND = "run-cell"

TRACE_LEVELS = ("off", "counters", "phases", "full")

#: bound on distinct in-flight computations before 429
DEFAULT_QUEUE_LIMIT = 64

#: ``Retry-After`` seconds advertised on a 429
DEFAULT_RETRY_AFTER_S = 1.0

#: entries of the raw-body parse memo (:func:`parse_run_body`), a
#: thread-safe ``functools.lru_cache``
PARSE_MEMO_ENTRIES = 256

#: bodies, and expanded DAG specs, above this many bytes bypass the
#: parse memo, which keeps it at a few MiB however it is filled
PARSE_MEMO_MAX_BYTES = 16 * 1024


class QueueFull(RuntimeError):
    """The admission queue is full; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class PoolGate:
    """Interactive-over-batch arbitration for the shared worker pool.

    The scheduler (interactive ``/v1/run`` traffic) and the job runner
    (batch sweep cells) dispatch onto the *same* worker processes.  The
    gate gives interactive computations strict precedence at cell
    granularity: the scheduler marks each in-flight interactive
    computation with :meth:`interactive_begin` / :meth:`interactive_end`,
    and the job runner calls :meth:`batch_turn` before starting every
    batch cell — blocking while any interactive computation is running,
    up to an anti-starvation deadline (``max_batch_wait_s``) after which
    the batch cell proceeds anyway so a saturating interactive stream
    cannot stall a job forever.

    Cache hits and coalesced followers never touch the gate (they do no
    pool work), so a hot serving mix barely delays batch progress.
    """

    def __init__(self, max_batch_wait_s: float = 2.0):
        self.max_batch_wait_s = max_batch_wait_s
        self._cond = threading.Condition()
        self._active = 0
        self.counters = Counters()

    def interactive_begin(self) -> None:
        with self._cond:
            self._active += 1

    def interactive_end(self) -> None:
        with self._cond:
            self._active -= 1
            if self._active == 0:
                self._cond.notify_all()

    def batch_turn(self) -> bool:
        """Block until no interactive computation is in flight.

        Returns ``True`` when the pool was yielded cleanly, ``False``
        when the anti-starvation deadline expired and the batch cell is
        proceeding alongside interactive traffic.
        """
        deadline = time.monotonic() + self.max_batch_wait_s
        with self._cond:
            if self._active == 0:
                return True
            self.counters.add("batch_waits")
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.counters.add("batch_wait_timeouts")
                    return False
                self._cond.wait(remaining)
            return True

    def gauges(self) -> dict[str, Any]:
        with self._cond:
            active = self._active
        doc: dict[str, Any] = {"interactive_in_flight": active}
        doc.update(self.counters.snapshot())
        return doc


@dataclass(frozen=True)
class SimRequest:
    """One validated simulation request (the body of ``POST /run``).

    The tuple of fields is exactly the argument list of the
    ``run-cell`` worker task, so a request *is* its computation's
    payload; :meth:`key` hashes it (plus the service schema) with the
    same :func:`~repro.resilience.ledger.cell_key` content addressing
    the sweep ledger uses.
    """

    program: str = ""
    #: ``vec`` is the default engine: charged results are bit-identical
    #: to ``hmm`` (enforced by the equivalence suites) and the wall
    #: clock — what a service caller actually waits on — is ~10x better
    #: on delivery-heavy programs
    engine: str = "vec"
    v: int = 64
    mu: int = 8
    f: str = "x^0.5"
    trace: str = "counters"

    _FIELDS = ("engine", "program", "v", "mu", "f", "trace")

    #: worker-task kind this request's computation runs as; request
    #: types carrying a different kind (the DAG front end's
    #: ``run-dag``) duck-type the same surface and flow through the
    #: scheduler unchanged
    task_kind = TASK_KIND

    @classmethod
    def from_json(cls, doc: Any) -> "SimRequest":
        """Build and validate a request from a decoded JSON body.

        Raises :class:`ValueError` with an actionable message on any
        malformed body — the server maps it to a 400.
        """
        if not isinstance(doc, dict):
            raise ValueError(
                f"request body must be a JSON object, got {type(doc).__name__}"
            )
        unknown = sorted(set(doc) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown request field(s) {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(cls._FIELDS)}"
            )
        for required in ("program",):
            if required not in doc:
                raise ValueError(f"request is missing the {required!r} field")
        req = cls(**doc)
        req.validate()
        return req

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"try: {', '.join(sorted(ENGINES))}"
            )
        if self.program not in PROGRAMS:
            raise ValueError(
                f"unknown program {self.program!r}; "
                f"try: {', '.join(sorted(PROGRAMS))}"
            )
        if not isinstance(self.v, int) or isinstance(self.v, bool) or self.v < 1:
            raise ValueError(f"v must be a positive integer, got {self.v!r}")
        if not isinstance(self.mu, int) or isinstance(self.mu, bool) or self.mu < 1:
            raise ValueError(f"mu must be a positive integer, got {self.mu!r}")
        if self.trace not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace level {self.trace!r}; "
                f"expected one of: {', '.join(TRACE_LEVELS)}"
            )
        resolve_access_function(self.f)  # raises on a bad spec

    @property
    def args(self) -> tuple:
        """The ``run-cell`` worker-task argument tuple."""
        return (self.engine, self.program, self.v, self.mu, self.f, self.trace)

    def key(self) -> str:
        """Content-addressed identity of this request's result."""
        return cell_key(
            TASK_KIND, list(self.args), {"schema": SERVICE_SCHEMA}
        )

    def to_json(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._FIELDS}


class _Flight:
    """One in-flight computation: the leader computes, followers wait."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None


class Scheduler:
    """Bounded, coalescing dispatcher in front of the engine registry."""

    def __init__(
        self,
        cache,
        parallel: "ParallelConfig | int | None" = 1,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
        gate: "PoolGate | None" = None,
        planner=None,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.cache = cache
        self.parallel = resolve_parallel(parallel)
        self.queue_limit = queue_limit
        self.retry_after_s = retry_after_s
        self.gate = gate
        #: optional :class:`~repro.service.planner.Planner` — when set,
        #: cost-aware admission (per-tenant budgets + global predicted-
        #: cost ceiling) becomes the primary gate; ``queue_limit`` stays
        #: on as a slot-count backstop
        self.planner = planner
        self.counters = Counters()
        self._lock = threading.Lock()
        self._inflight: dict[str, _Flight] = {}

    # ------------------------------------------------------------- serving
    def submit(
        self,
        request: SimRequest,
        tenant: str = "default",
        decision=None,
        key: str | None = None,
    ) -> tuple[str, Any, str]:
        """Serve one request; returns ``(key, document, served)``.

        ``served`` says which path produced the response: ``"cached"``
        (result cache, including ledger-preloaded entries),
        ``"coalesced"`` (rode another request's computation) or
        ``"computed"`` (this request led a fresh engine invocation).
        Raises :class:`QueueFull` when admission would exceed
        ``queue_limit`` distinct in-flight computations, or its subclass
        ``BudgetExceeded`` when a configured planner sheds the request
        (tenant budget or global predicted-cost ceiling).

        Cache hits and coalesced followers charge no budget — cost-aware
        admission, like slot admission, applies to *work*, not traffic.
        ``decision`` is the server's already-computed
        :class:`~repro.service.planner.PlanDecision` (so planning runs
        once per request); left ``None`` with a planner set, the
        scheduler plans here.  ``key`` is ``request.key()`` when the
        caller already has it (:func:`parse_run_body` memoizes it).
        """
        if key is None:
            key = request.key()
        with self._lock:
            cached = self.cache.get(key)
            if cached is not MISSING:
                self.counters.add("served_cached")
                return key, cached, "cached"
            flight = self._inflight.get(key)
            if flight is None:
                if len(self._inflight) >= self.queue_limit:
                    self.counters.add("rejected")
                    raise QueueFull(
                        f"admission queue is full "
                        f"({self.queue_limit} computation(s) in flight)",
                        self.retry_after_s,
                    )
                if self.planner is not None:
                    if decision is None:
                        decision = self.planner.plan(request)
                    # raises BudgetExceeded *before* the flight exists,
                    # so a shed request never occupies a slot
                    try:
                        self.planner.admit(tenant, decision)
                    except QueueFull:
                        self.counters.add("rejected")
                        raise
                flight = self._inflight[key] = _Flight()
                self.counters.add("admitted")
                leader = True
            else:
                leader = False

        if not leader:
            flight.done.wait()
            if flight.error is not None:
                self.counters.add("errors")
                raise flight.error
            self.counters.add("served_coalesced")
            return key, flight.result, "coalesced"

        if self.gate is not None:
            self.gate.interactive_begin()
        started = time.perf_counter()
        try:
            doc = self._compute(request)
        except BaseException as exc:
            flight.error = exc
            self.counters.add("errors")
            raise
        else:
            if decision is not None and decision.cache == "bypass":
                self.counters.add("cache_bypassed")
            else:
                self.cache.put(key, request.task_kind, doc)
            flight.result = doc
            self.counters.add("served_computed")
            return key, doc, "computed"
        finally:
            if self.gate is not None:
                self.gate.interactive_end()
            if self.planner is not None and decision is not None:
                self.planner.complete(
                    decision, time.perf_counter() - started
                )
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()

    # ------------------------------------------------------------ computing
    def _compute(self, request: SimRequest) -> Any:
        """Run the request's task as a one-cell :func:`parallel_map`.

        The runner picks the pool or the inline path; both execute the
        identical pure task body, so the served document does not
        depend on where it ran.
        """
        [doc] = parallel_map(request.task_kind, [request.args], self.parallel)
        return _normalize(doc)

    # ------------------------------------------------------------- metrics
    def gauges(self) -> dict[str, Any]:
        """The ``queue`` section of ``GET /metrics``."""
        with self._lock:
            in_flight = len(self._inflight)
        return {
            "in_flight": in_flight,
            "limit": self.queue_limit,
            "jobs": self.parallel.jobs,
        }


def parse_run_request(doc: Any):
    """Parse one ``/v1/run`` body into its request type.

    The ``kind`` field dispatches: absent or ``"sim"`` is a
    :class:`SimRequest`, ``"dag"`` is a
    :class:`~repro.dag.service.DagRunRequest` (imported lazily — the
    service tier does not pay for the DAG front end until a DAG request
    arrives).  Anything else is a 400-mapped :class:`ValueError`.
    """
    if isinstance(doc, dict) and "kind" in doc:
        kind = doc["kind"]
        if kind == "dag":
            from repro.dag.service import DagRunRequest

            return DagRunRequest.from_json(doc)
        if kind != "sim":
            raise ValueError(
                f"unknown request kind {kind!r}; expected 'sim' or 'dag'"
            )
        doc = {k: v for k, v in doc.items() if k != "kind"}
    return SimRequest.from_json(doc)


def parse_run_doc(doc: Any) -> tuple[Any, bool, str]:
    """Parse one decoded ``/v1/run`` document: ``(request, engine_unset, key)``.

    ``engine_unset`` is true when the engine is absent or the explicit
    ``"auto"``, which is stripped before validation, so without a
    planner both spellings resolve to the request type's default
    engine.  ``key`` is ``request.key()``.
    """
    engine_unset = isinstance(doc, dict) and (
        "engine" not in doc or doc["engine"] == "auto"
    )
    if engine_unset and "engine" in doc:
        doc = {k: v for k, v in doc.items() if k != "engine"}
    request = parse_run_request(doc)
    return request, engine_unset, request.key()


def decode_body(raw: bytes) -> Any:
    """Decode one JSON request body (a 400-mapped ``ValueError`` if it
    is not JSON)."""
    try:
        return json.loads(raw)
    except ValueError:
        raise ValueError("request body is not valid JSON") from None


class _Unmemoized(Exception):
    """Carries a parse whose expanded DAG spec is too large to keep
    (``lru_cache`` stores no exception)."""


@functools.lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def _parse_memo(raw: bytes) -> tuple[Any, bool, str]:
    parsed = parse_run_doc(decode_body(raw))
    if len(getattr(parsed[0], "spec_json", "")) > PARSE_MEMO_MAX_BYTES:
        raise _Unmemoized(parsed)
    return parsed


def parse_run_body(raw: bytes) -> tuple[Any, bool, str]:
    """:func:`parse_run_doc` of a raw ``/v1/run`` body, memoized on its bytes.

    A repeat body skips the JSON decode, the validation, the DAG spec
    generation and the key hash: it returns the very same request.
    Bodies are memoized by their bytes, so a body that spells the same
    request differently is a miss that still reaches the same key.
    Errors are never memoized (a bad body raises its ``ValueError``
    again on every repeat), and bodies or expanded specs over
    :data:`PARSE_MEMO_MAX_BYTES` are parsed without being kept.

    >>> body = b'{"program": "sort", "v": 16, "engine": "auto"}'
    >>> request, engine_unset, key = parse_run_body(body)
    >>> parse_run_body(bytes(bytearray(body)))[0] is request
    True
    >>> request.engine, engine_unset, key == request.key()
    ('vec', True, True)
    >>> named = parse_run_body(
    ...     b'{"kind": "dag", "workload": "stream-scan",'
    ...     b' "params": {"epochs": 2, "partitions": 2}}'
    ... )[0]
    >>> inlined = json.dumps({"kind": "dag", "spec": named.to_json()["spec"]})
    >>> parse_run_body(inlined.encode())[2] == named.key()
    True
    """
    if len(raw) > PARSE_MEMO_MAX_BYTES:
        return parse_run_doc(decode_body(raw))
    try:
        return _parse_memo(raw)
    except _Unmemoized as skipped:
        return skipped.args[0]


def parse_cache_info() -> dict[str, int]:
    """The parse memo's counters (``parse_cache`` in ``/v1/metrics``)."""
    info = _parse_memo.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "capacity": info.maxsize,
    }


def _normalize(doc: dict[str, Any]) -> dict[str, Any]:
    """Canonicalize a fresh ``run-cell``/``run-dag`` document for serving.

    Recorded spans (``trace="full"`` runs) are rendered to their JSON
    form under ``"trace"``, then the whole document takes the same JSON
    round-trip the ledger replay path applies — floats survive exactly,
    tuples normalize to lists — so a computed response is
    ``==``-identical to a cached, coalesced or replayed one.
    """
    spans = doc.pop("spans", [])
    doc["trace"] = [
        span.to_json() if isinstance(span, SpanRecord) else span
        for span in spans
    ]
    return json.loads(json.dumps(doc))
