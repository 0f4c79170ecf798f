"""The HTTP front end: a stdlib ``ThreadingHTTPServer`` over the scheduler.

The surface is versioned under ``/v1`` (all JSON):

* ``POST /v1/run`` — body is one
  :class:`~repro.service.scheduler.SimRequest` document (``{"engine":
  ..., "program": ..., "v": ..., ...}``); response carries the
  content-addressed ``key``, the ``served`` path (``computed`` |
  ``cached`` | ``coalesced``) and the engine ``result`` document.
* ``POST /v1/batch`` — ``{"requests": [...]}``; the requests are served
  sequentially on this connection's handler thread (each one still
  coalesces with, and is cached for, every other connection), response
  is ``{"results": [...]}`` in request order.
* ``POST /v1/plan`` — same body as ``/v1/run``; returns the planner's
  cost prediction (charged words, wall time, error bars), the chosen
  engine/config, and whether admission would accept it right now —
  without running anything.  Requires a calibration profile
  (``--calibration``); see ``docs/planner.md``.
* ``POST /v1/jobs`` — enqueue a named sweep as a background *job* (body
  is one :class:`~repro.service.jobs.JobSpec` document plus an optional
  ``priority``); returns ``202`` with the job's status document.
* ``GET /v1/jobs`` / ``GET /v1/jobs/<id>`` — job list / one job's
  status with per-cell progress.
* ``GET /v1/jobs/<id>/events`` — chunked JSON-lines progress stream,
  fed from the job ledger's append hook; ends when the job reaches a
  terminal state.
* ``GET /v1/jobs/<id>/result`` — the finished document (``409`` while
  the job is still running); byte-identical to the equivalent
  uninterrupted CLI sweep.
* ``DELETE /v1/jobs/<id>`` — cancel (takes effect at a cell edge).
* ``GET /v1/healthz`` — liveness plus the engine/program inventories.
* ``GET /v1/metrics`` — cache counters + gauges, queue gauges, request
  counters, job/gate gauges and the host-side recovery counters.

Every endpoint lives under ``/v1``: an unprefixed path (``/run``,
``/healthz``, ...) is ``404 not_found`` like any unknown one.  Routing
is one declarative table (:data:`ROUTES`) shared by every method —
there is no per-endpoint if/elif chain to keep in sync.

Failure mapping — every error status carries the same envelope,
``{"error": {"code", "message", "retry_after_s"}}`` (see
:mod:`repro.service.errors`): a malformed body or unknown
engine/program/function is ``400 bad_request``; an unknown path is
``404 not_found``; an oversized body is ``413 payload_too_large`` (the
connection closes without reading the body); a full admission queue is
``429 queue_full`` with a ``Retry-After`` header; a cost-aware shed
(tenant budget or global predicted-cost ceiling, planner-enabled
servers only) is ``429 budget_exceeded`` with ``predicted_cost`` /
``budget_remaining`` / ``scope`` beside the base envelope keys (the
``X-Tenant`` request header names the tenant); job-lifecycle
conflicts are ``409``; anything else is ``500``.  Worker deaths and
task timeouts are *not* failures — the scheduler retries them via the
resilience machinery, and their traces appear in ``/v1/metrics`` under
``recovery``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from dataclasses import replace

from repro.engines import ENGINES, FUNCTION_HELP, PROGRAMS
from repro.resilience import recovery
from repro.service.cache import DEFAULT_CAPACITY, ResultCache
from repro.service.errors import ApiError, error_envelope
from repro.service.jobs import JobManager
from repro.service.planner import DEFAULT_TENANT, BudgetExceeded, Planner
from repro.service.scheduler import (
    DEFAULT_QUEUE_LIMIT,
    SERVICE_SCHEMA,
    PoolGate,
    QueueFull,
    Scheduler,
    decode_body,
    parse_cache_info,
    parse_run_body,
    parse_run_doc,
)

__all__ = [
    "API_VERSION",
    "ROUTES",
    "JsonApiHandler",
    "SimService",
    "ServiceServer",
    "make_server",
    "serve",
]

#: the current (only) API surface version; paths live under ``/v1``
API_VERSION = "v1"

#: default TCP port (8173 = "BSP" on a phone keypad, roughly)
DEFAULT_PORT = 8173

#: request bodies above this are rejected outright (1 MiB is orders of
#: magnitude beyond any valid batch)
MAX_BODY_BYTES = 1 << 20

#: streaming marker: a route handler that already wrote its own
#: response (the events stream) returns this instead of a document
_STREAMED = object()


class SimService:
    """The served application: cache + scheduler + jobs, HTTP-agnostic.

    Separating the application from the socket machinery keeps the
    serving logic callable in-process (tests, the in-process loadgen
    mode) with byte-identical behaviour to the HTTP path.

    With a ``jobs_dir`` the service also runs a
    :class:`~repro.service.jobs.JobManager`: long sweeps are enqueued as
    background jobs, checkpointed per cell, and re-adopted after a
    restart on the same directory.  Interactive requests keep pool
    precedence over batch cells through the shared
    :class:`~repro.service.scheduler.PoolGate`.
    """

    def __init__(
        self,
        cache_capacity: int = DEFAULT_CAPACITY,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        jobs: int = 1,
        ledger=None,
        retry_after_s: float = 1.0,
        jobs_dir: str | None = None,
        max_batch_wait_s: float = 2.0,
        identity: dict[str, Any] | None = None,
        planner: Planner | None = None,
    ):
        #: optional shard identity (e.g. ``{"shard": 0, "ledger": ...}``)
        #: surfaced in healthz/metrics so a router can tell shards apart
        self.identity = identity
        self.gate = PoolGate(max_batch_wait_s=max_batch_wait_s)
        self.cache = ResultCache(cache_capacity, ledger=ledger)
        self.planner = planner
        self.scheduler = Scheduler(
            self.cache,
            parallel=jobs,
            queue_limit=queue_limit,
            retry_after_s=retry_after_s,
            gate=self.gate,
            planner=planner,
        )
        self.job_manager: JobManager | None = None
        if jobs_dir is not None:
            self.job_manager = JobManager(
                jobs_dir, parallel=jobs, gate=self.gate, cache=self.cache
            )

    def _jobs(self) -> JobManager:
        if self.job_manager is None:
            raise ApiError(
                400, "jobs_disabled",
                "this server has no jobs directory; restart it with "
                "--jobs-dir to enable the jobs API",
            )
        return self.job_manager

    # ------------------------------------------------------------ handlers
    def _resolve(self, body: Any):
        """Validate one request, letting the planner fill the engine
        when it is unset (absent or the explicit ``"auto"``).

        ``body`` is a decoded document or the raw bytes of an HTTP body
        (parsed through the :func:`parse_run_body` memo).  Returns
        ``(request, decision, key)`` — ``decision`` is ``None`` exactly
        when no planner is configured.  Without a planner, ``"auto"``
        and an absent engine both resolve to the service default
        (``vec``), matching pre-planner behaviour.
        """
        if isinstance(body, bytes):
            request, engine_unset, key = parse_run_body(body)
        else:
            request, engine_unset, key = parse_run_doc(body)
        if self.planner is None:
            return request, None, key
        # planning runs on every request: the memo holds the request
        # as parsed, before any engine is chosen for it
        decision = self.planner.plan(request, engine_unset=engine_unset)
        if decision.engine != request.engine:
            request = replace(request, engine=decision.engine)
            key = request.key()
        return request, decision, key

    def handle_run(
        self, body: Any, tenant: str = DEFAULT_TENANT
    ) -> dict[str, Any]:
        """Serve one request document (or raw body bytes); raises
        ``ValueError``/``QueueFull``."""
        request, decision, key = self._resolve(body)
        key, doc, served = self.scheduler.submit(
            request, tenant=tenant, decision=decision, key=key
        )
        return {"key": key, "served": served, "result": doc}

    def handle_batch(
        self, body: Any, tenant: str = DEFAULT_TENANT
    ) -> dict[str, Any]:
        """Serve a batch document: ``{"requests": [...]}`` -> results."""
        if not isinstance(body, dict) or "requests" not in body:
            raise ValueError(
                'batch body must be a JSON object with a "requests" list'
            )
        requests = body["requests"]
        if not isinstance(requests, list) or not requests:
            raise ValueError('"requests" must be a non-empty list')
        # validate (and plan) everything first: a 400 must not
        # half-execute a batch
        resolved = [self._resolve(doc) for doc in requests]
        results = []
        for request, decision, key in resolved:
            key, doc, served = self.scheduler.submit(
                request, tenant=tenant, decision=decision, key=key
            )
            results.append({"key": key, "served": served, "result": doc})
        return {"results": results}

    def handle_plan(
        self, body: Any, tenant: str = DEFAULT_TENANT
    ) -> dict[str, Any]:
        """``POST /v1/plan``: predict and decide without running anything."""
        if self.planner is None:
            if isinstance(body, bytes):
                decode_body(body)  # a non-JSON body is still the 400
            raise ApiError(
                400, "planner_disabled",
                "this server has no calibration profile; run "
                "`python -m repro calibrate` and restart with "
                "--calibration to enable the planner",
            )
        request, decision, key = self._resolve(body)
        plan_doc = decision.to_json()
        prediction = plan_doc.pop("prediction")
        return {
            "request": request.to_json(),
            "key": key,
            "plan": plan_doc,
            "prediction": prediction,
            "admission": self.planner.probe(tenant, decision),
        }

    def handle_jobs_submit(self, body: Any) -> dict[str, Any]:
        """Validate, persist and enqueue one job; returns its status doc."""
        return self._jobs().submit_json(body).status_doc()

    def handle_jobs_list(self) -> dict[str, Any]:
        return {"jobs": self._jobs().list()}

    def handle_job_status(self, job_id: str) -> dict[str, Any]:
        return self._jobs().get(job_id).status_doc()

    def handle_job_result(self, job_id: str) -> Any:
        return self._jobs().result(job_id)

    def handle_job_cancel(self, job_id: str) -> dict[str, Any]:
        return self._jobs().cancel(job_id).status_doc()

    def job_events(self, job_id: str):
        """The chunk-streamed event iterator for one job (404s eagerly)."""
        manager = self._jobs()
        manager.get(job_id)  # raise not_found before any bytes go out
        return manager.stream(job_id)

    def healthz(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "ok": True,
            "schema": SERVICE_SCHEMA,
            "api": API_VERSION,
            "jobs_enabled": self.job_manager is not None,
            "engines": sorted(ENGINES),
            "programs": sorted(PROGRAMS),
            "functions": FUNCTION_HELP,
        }
        if self.identity is not None:
            doc["shard"] = self.identity
        return doc

    def metrics(self) -> dict[str, Any]:
        """The ``GET /v1/metrics`` document (all sections, one scrape)."""
        requests = {
            "admitted": 0,
            "served_computed": 0,
            "served_cached": 0,
            "served_coalesced": 0,
            "rejected": 0,
            "errors": 0,
        }
        requests.update(self.scheduler.counters.snapshot())
        if self.job_manager is not None:
            jobs_section = self.job_manager.gauges()
        else:
            jobs_section = {"enabled": False, "gate": self.gate.gauges()}
        if self.planner is not None:
            planner_section: dict[str, Any] = {"enabled": True}
            planner_section.update(self.planner.gauges())
        else:
            planner_section = {"enabled": False}
        from repro.engines import PROGRAM_CACHE
        from repro.sim.hmm_vec import plan_cache_info

        doc: dict[str, Any] = {
            "schema": SERVICE_SCHEMA,
            "api": API_VERSION,
            "cache": self.cache.gauges(),
            "queue": self.scheduler.gauges(),
            "planner": planner_section,
            "requests": requests,
            "jobs": jobs_section,
            "http": {"parse_cache": parse_cache_info()},
            "recovery": recovery.counters(),
            "kernel": {
                "plan_cache": plan_cache_info(),
                "program_cache": PROGRAM_CACHE.info(),
            },
        }
        if self.identity is not None:
            doc["shard"] = self.identity
        return doc

    def close(self) -> None:
        """Stop the job runner (manifests stay; a restart re-adopts)."""
        if self.job_manager is not None:
            self.job_manager.close()


#: the whole routing surface: ``(method, path segments, handler name)``.
#: ``None`` segments are wildcards whose values are passed to the
#: handler in order.  Paths are matched under ``/v1``.
ROUTES: tuple[tuple[str, tuple[str | None, ...], str], ...] = (
    ("GET", ("healthz",), "ep_healthz"),
    ("GET", ("metrics",), "ep_metrics"),
    ("POST", ("run",), "ep_run"),
    ("POST", ("batch",), "ep_batch"),
    ("POST", ("plan",), "ep_plan"),
    ("POST", ("jobs",), "ep_jobs_submit"),
    ("GET", ("jobs",), "ep_jobs_list"),
    ("GET", ("jobs", None), "ep_job_status"),
    ("GET", ("jobs", None, "events"), "ep_job_events"),
    ("GET", ("jobs", None, "result"), "ep_job_result"),
    ("DELETE", ("jobs", None), "ep_job_cancel"),
)


def _match(
    routes: tuple[tuple[str, tuple[str | None, ...], str], ...],
    method: str,
    segments: tuple[str, ...],
) -> tuple[str, list[str]] | None:
    """Resolve ``(handler name, captured wildcards)`` from a route table."""
    for route_method, pattern, handler in routes:
        if route_method != method or len(pattern) != len(segments):
            continue
        captured = []
        for expected, got in zip(pattern, segments):
            if expected is None:
                captured.append(got)
            elif expected != got:
                break
        else:
            return handler, captured
    return None


class JsonApiHandler(BaseHTTPRequestHandler):
    """Shared plumbing of the ``/v1`` JSON surface.

    Both front ends — the single-process service handler below and the
    shard router's handler (:mod:`repro.service.router`) — subclass
    this: one declarative route table (class attribute ``ROUTES``), one
    ``/v1`` path parser, one error mapping onto the unified envelope.  Subclasses provide ``ROUTES``, the ``ep_*``
    methods it names, and may override :meth:`_unrouted` (the router
    turns unmatched paths into forwards instead of 404s).
    """

    ROUTES: tuple[tuple[str, tuple[str | None, ...], str], ...] = ()

    server_version = "repro-service/" + str(SERVICE_SCHEMA)
    protocol_version = "HTTP/1.1"
    # a response is two small writes (header block, JSON body); with
    # Nagle on, the body segment can sit behind the peer's delayed ACK
    # for ~40 ms per request — a floor that would bury the hot/cold
    # throughput contrast the cache exists to deliver.  socketserver's
    # StreamRequestHandler.setup() turns this into TCP_NODELAY.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # ------------------------------------------------------------ plumbing
    def _send_json(
        self, status: int, doc: Any, headers: dict[str, str] | None = None
    ) -> None:
        self._send_payload(
            status, json.dumps(doc).encode("utf-8"), headers=headers
        )

    def _send_payload(
        self,
        status: int,
        payload: bytes,
        headers: dict[str, str] | None = None,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _read_raw_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body is empty")
        if length > MAX_BODY_BYTES:
            # refuse without reading: draining a deliberately huge body
            # would be the denial of service; the connection closes
            raise ApiError(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length)

    def _read_body(self) -> Any:
        return decode_body(self._read_raw_body())

    # ----------------------------------------------------------- dispatch
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _unrouted(
        self, method: str, segments: tuple[str, ...], path: str, headers
    ):
        """Hook for paths the route table does not match (default 404)."""
        raise ApiError(
            404, "not_found",
            f"no such endpoint {method} {path!r}; see /v1/healthz",
        )

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        segments = tuple(s for s in path.split("/") if s)
        headers: dict[str, str] = {}
        match = None
        if segments[:1] == (API_VERSION,):
            segments = segments[1:]
            match = _match(self.ROUTES, method, segments)
        try:
            if match is None:
                result = self._unrouted(method, segments, path, headers)
            else:
                handler_name, captured = match
                result = getattr(self, handler_name)(
                    *captured, headers=headers
                )
        except ApiError as exc:
            if exc.retry_after_s is not None:
                headers["Retry-After"] = f"{exc.retry_after_s:g}"
            if exc.status == 413:
                # the unread body is still on the wire; keep-alive would
                # misparse it as the next request line
                headers["Connection"] = "close"
                self.close_connection = True
            self._send_json(exc.status, exc.to_json(), headers=headers)
        except BudgetExceeded as exc:
            headers["Retry-After"] = f"{exc.retry_after_s:g}"
            self._send_json(
                429,
                error_envelope(
                    "budget_exceeded",
                    str(exc),
                    retry_after_s=exc.retry_after_s,
                    predicted_cost=exc.predicted_cost,
                    budget_remaining=exc.budget_remaining,
                    scope=exc.scope,
                ),
                headers=headers,
            )
        except QueueFull as exc:
            headers["Retry-After"] = f"{exc.retry_after_s:g}"
            self._send_json(
                429,
                error_envelope(
                    "queue_full", str(exc), retry_after_s=exc.retry_after_s
                ),
                headers=headers,
            )
        except ValueError as exc:
            self._send_json(
                400, error_envelope("bad_request", str(exc)), headers=headers
            )
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(
                500,
                error_envelope("internal", f"internal error: {exc!r}"),
                headers=headers,
            )
        else:
            if result is not _STREAMED:
                status, doc = result
                self._send_json(status, doc, headers=headers)


class _Handler(JsonApiHandler):
    """The single-process front end: every route runs the service
    in-process (the sharded tier subclasses the same base with a
    forwarding handler instead — see :mod:`repro.service.router`)."""

    ROUTES = ROUTES

    @property
    def service(self) -> SimService:
        return self.server.service  # type: ignore[attr-defined]

    def _tenant(self) -> str:
        """The request's tenant (``X-Tenant`` header, default tenant)."""
        return (self.headers.get("X-Tenant") or "").strip() or DEFAULT_TENANT

    # ------------------------------------------------------------- routes
    def ep_healthz(self, headers) -> tuple[int, Any]:
        return 200, self.service.healthz()

    def ep_metrics(self, headers) -> tuple[int, Any]:
        return 200, self.service.metrics()

    def ep_run(self, headers) -> tuple[int, Any]:
        return 200, self.service.handle_run(
            self._read_raw_body(), tenant=self._tenant()
        )

    def ep_batch(self, headers) -> tuple[int, Any]:
        return 200, self.service.handle_batch(
            self._read_body(), tenant=self._tenant()
        )

    def ep_plan(self, headers) -> tuple[int, Any]:
        return 200, self.service.handle_plan(
            self._read_raw_body(), tenant=self._tenant()
        )

    def ep_jobs_submit(self, headers) -> tuple[int, Any]:
        return 202, self.service.handle_jobs_submit(self._read_body())

    def ep_jobs_list(self, headers) -> tuple[int, Any]:
        return 200, self.service.handle_jobs_list()

    def ep_job_status(self, job_id: str, headers) -> tuple[int, Any]:
        return 200, self.service.handle_job_status(job_id)

    def ep_job_result(self, job_id: str, headers) -> tuple[int, Any]:
        return 200, self.service.handle_job_result(job_id)

    def ep_job_cancel(self, job_id: str, headers) -> tuple[int, Any]:
        return 200, self.service.handle_job_cancel(job_id)

    def ep_job_events(self, job_id: str, headers):
        """Stream job progress as chunked JSON lines until terminal.

        One event per line, flushed per event (``Transfer-Encoding:
        chunked``, hand-rolled — ``BaseHTTPRequestHandler`` has no
        streaming support).  ``http.client`` and curl both de-chunk
        transparently.  The stream is fed from the job ledger's append
        hook, so a line exists for every checkpointed cell.
        """
        events = self.service.job_events(job_id)  # ApiError 404 raises here
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.close_connection = True
        try:
            for event in events:
                chunk = (json.dumps(event) + "\n").encode("utf-8")
                self.wfile.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up mid-stream; the job keeps running
        return _STREAMED


class _Server(ThreadingHTTPServer):
    daemon_threads = True


def make_server(
    host: str,
    port: int,
    service: SimService,
    verbose: bool = False,
    handler_cls: type[JsonApiHandler] = _Handler,
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server serving ``service`` (``port=0`` for
    an ephemeral port — read the bound one off ``server_address``)."""
    httpd = _Server((host, port), handler_cls)
    httpd.service = service  # type: ignore[attr-defined]
    httpd.verbose = verbose  # type: ignore[attr-defined]
    return httpd


class ServiceServer:
    """An in-process server on a background thread (tests, loadgen).

    >>> server = ServiceServer(SimService(cache_capacity=4))
    >>> server.url.startswith("http://127.0.0.1:")
    True
    >>> server.close()
    """

    def __init__(self, service: SimService | None = None, host: str = "127.0.0.1"):
        self.service = service or SimService()
        self.httpd = make_server(host, 0, self.service)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5)
        self.service.close()

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    cache_capacity: int = DEFAULT_CAPACITY,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    jobs: int = 1,
    ledger=None,
    jobs_dir: str | None = None,
    planner: Planner | None = None,
    echo=print,
) -> int:
    """Blocking CLI entry: serve until interrupted (Ctrl-C -> clean exit)."""
    service = SimService(
        cache_capacity=cache_capacity,
        queue_limit=queue_limit,
        jobs=jobs,
        ledger=ledger,
        jobs_dir=jobs_dir,
        planner=planner,
    )
    httpd = make_server(host, port, service)
    bound_host, bound_port = httpd.server_address[:2]
    if echo:
        echo(
            f"repro simulation service on http://{bound_host}:{bound_port}  "
            f"(cache {cache_capacity}, queue {queue_limit}, jobs {jobs}"
            + (", persistent cache" if ledger is not None else "")
            + (f", jobs dir {jobs_dir}" if jobs_dir is not None else "")
            + (", planner on" if planner is not None else "")
            + ")"
        )
        echo(
            "endpoints (under /v1): "
            "POST /v1/run  POST /v1/batch  POST /v1/plan  POST /v1/jobs  "
            "GET /v1/jobs[/<id>[/events|/result]]  DELETE /v1/jobs/<id>  "
            "GET /v1/healthz  GET /v1/metrics"
        )
    try:
        httpd.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        if echo:
            echo("\nshutting down")
    finally:
        httpd.server_close()
        service.close()
    return 0
