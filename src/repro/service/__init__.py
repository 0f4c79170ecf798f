"""Simulation-as-a-service: serve engine runs over HTTP.

Every simulation in this package is a *pure function* of
``(program, engine, access function, config)`` — charged model costs are
deterministic and JSON round-trips them exactly.  That makes simulation
results perfectly cacheable and identical in-flight requests perfectly
coalescible, which is what this package exploits to turn the one-shot
CLI into a serving subsystem:

* :mod:`repro.service.cache` — a content-addressed LRU result cache
  keyed by the same ``cell_key`` hashing the sweep ledger uses, with
  hit/miss/eviction counters and optional ledger-backed persistence (a
  warm cache survives restarts);
* :mod:`repro.service.scheduler` — bounded admission, single-flight
  coalescing of identical concurrent requests, dispatch onto the
  existing :class:`~repro.parallel.pool.WorkerPool` /
  :class:`~repro.resilience.retry.RetryPolicy` machinery so worker
  deaths and timeouts degrade gracefully instead of failing requests,
  and the :class:`~repro.service.scheduler.PoolGate` giving interactive
  requests pool precedence over batch jobs;
* :mod:`repro.service.jobs` — the async jobs subsystem: long sweeps
  enqueued over HTTP, checkpointed per cell through the sweep ledger,
  streamed as progress events, and re-adopted (resumed from their
  checkpoints) by a restarted server;
* :mod:`repro.service.errors` — the unified
  ``{"error": {"code", "message", "retry_after_s"}}`` envelope every
  non-2xx response carries;
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer``
  front end, all endpoints under ``/v1``: ``POST /v1/run``,
  ``POST /v1/batch``, the ``/v1/jobs`` lifecycle, ``GET /v1/healthz``,
  ``GET /v1/metrics``, with 429 + ``Retry-After`` backpressure;
* :mod:`repro.service.router` / :mod:`repro.service.shard` — the
  sharded multi-process tier (``serve --shards N``): shard processes
  each running the same :class:`~repro.service.server.SimService` over
  a consistent-hashing slice of the key space with a private
  ledger-backed cache, behind a front-door router with health-probing,
  passive failure detection, deterministic failover and supervisor
  respawns — submachine locality translated into per-shard locality of
  reference;
* :mod:`repro.service.loadgen` — the load generator: one keep-alive
  client and one phase runner behind four bench modes — closed-loop
  hot/cold phases (``BENCH_service_throughput.json``), a job-mode
  interference bench, the open-loop (Poisson-arrival) sharded-tier
  bench with tail-latency phases and a shard-kill fault run
  (``BENCH_service_shard.json``), and the planner's
  prediction-accuracy and adversarial-admission bench
  (``BENCH_service_plan.json``) — each writing a :mod:`repro.bench`
  document checked by :func:`repro.bench.check`.

The serving contract mirrors the PR 3/PR 4 re-fold contracts: for a
fixed request, the charged ``time``/``counters`` in the response are
``==``-identical whether the result was computed, coalesced onto
another request's computation, served from the cache, replayed from a
persisted ledger, or produced by a background job — at any ``jobs``
value (``tests/test_service.py`` / ``tests/test_jobs.py`` pin this).
"""

from repro.service.cache import ResultCache
from repro.service.errors import ApiError, error_envelope
from repro.service.jobs import Job, JobManager, JobSpec
from repro.service.scheduler import (
    SERVICE_SCHEMA,
    PoolGate,
    QueueFull,
    Scheduler,
    SimRequest,
)
from repro.service.router import HashRing, Router, ShardClient
from repro.service.server import API_VERSION, ServiceServer, SimService, serve
from repro.service.shard import ShardedTier, ShardSupervisor, serve_sharded

__all__ = [
    "API_VERSION",
    "ApiError",
    "error_envelope",
    "ResultCache",
    "Scheduler",
    "SimRequest",
    "QueueFull",
    "PoolGate",
    "SERVICE_SCHEMA",
    "Job",
    "JobManager",
    "JobSpec",
    "SimService",
    "ServiceServer",
    "serve",
    "HashRing",
    "Router",
    "ShardClient",
    "ShardedTier",
    "ShardSupervisor",
    "serve_sharded",
]
