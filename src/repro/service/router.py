"""The sharded tier's front door: key-affine routing with failover.

The router is a thin HTTP process in front of N shard processes (see
:mod:`repro.service.shard`).  Each shard runs the ordinary
:class:`~repro.service.server.SimService` over its own ledger-backed
cache; the router owns no cache and no scheduler — it only decides
*which* shard serves a request and relays bytes.

**Ownership** is consistent hashing on the request's existing content
hash (:meth:`~repro.service.scheduler.SimRequest.key`): every shard
contributes :data:`VNODES` pseudo-random points to a 64-bit ring, and a
key is owned by the first point at or after its own position.  This is
the serving-layer translation of the paper's submachine decomposition —
requests with the same content hash always land on the same shard, so
each shard sees a *dense* slice of the key space and its private LRU
cache + ledger stay hot for exactly that slice (submachine locality
becomes per-shard locality of reference).  Adding or losing a shard
moves only the ring arcs adjacent to its points, not the whole mapping.

**Failover** is the rest of the ring walk: the owner's chain is every
other shard in ring order, so when the owner is marked dead the router
re-hashes its arc onto the survivors deterministically (first *alive*
shard in the chain).  Death is detected two ways — passively (a forward
hits a connection error: the shard is marked dead immediately and the
request retries down the chain) and actively (a background prober GETs
each shard's ``/v1/healthz``; :data:`PROBE_FAILURES` consecutive
failures mark it dead, one success marks it alive again and takes its
arc back).  While no shard in a chain answers, the client sees a ``503``
with the standard ``{"error": {...}}`` envelope and a ``Retry-After``
hint — never a raw connection reset.

**Jobs are pinned**: job state (manifests, ledgers, the background
runner) is process-local to a shard, so the whole ``/v1/jobs`` surface
forwards to shard 0 verbatim, including the chunked events stream.

``GET /v1/metrics`` on the router aggregates: router counters
(``forwards``, ``failovers``, ``shard_deaths``, ``rehash_events``,
``unavailable``), a per-shard rollup (alive flag + each shard's cache
and request counters), and a tier-wide ``cache`` section summing the
per-shard hit/miss/store counters.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
from dataclasses import replace
from http.server import ThreadingHTTPServer
from typing import Any

from repro.obs.counters import Counters
from repro.service.errors import ApiError
from repro.service.scheduler import (
    SERVICE_SCHEMA,
    decode_body,
    parse_cache_info,
    parse_run_body,
    parse_run_doc,
)
from repro.service.server import _STREAMED, API_VERSION, JsonApiHandler

__all__ = [
    "HashRing",
    "Router",
    "ShardClient",
    "make_router_server",
]

#: virtual nodes per shard on the hash ring — enough that two shards
#: split the key space within a few percent of evenly
VNODES = 64

#: consecutive failed health probes before the prober declares a shard
#: dead (a single failure may be a queue hiccup)
PROBE_FAILURES = 2

#: how often the background prober sweeps the shard set (seconds)
PROBE_INTERVAL_S = 0.5

#: Retry-After hint on 503 shard_unavailable (the supervisor respawn +
#: ledger preload cycle comfortably fits in this)
UNAVAILABLE_RETRY_S = 0.5

#: per-forward socket timeout; compute requests can take a while, so
#: this is generous — *connection* failures surface immediately anyway
FORWARD_TIMEOUT_S = 60.0


def _ring_position(data: str) -> int:
    """A stable 64-bit ring position for arbitrary text."""
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent hashing of content-hash keys onto shard indices.

    >>> ring = HashRing(3)
    >>> chain = ring.chain("a" * 32)
    >>> sorted(chain) == [0, 1, 2]  # every shard appears exactly once
    True
    >>> ring.chain("a" * 32) == chain  # and deterministically so
    True
    """

    def __init__(self, shards: int, vnodes: int = VNODES):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        points = []
        for index in range(shards):
            for v in range(vnodes):
                points.append((_ring_position(f"shard-{index}:{v}"), index))
        points.sort()
        self._points = points
        self.shards = shards

    def chain(self, key: str) -> list[int]:
        """All shard indices in ring order from ``key``'s position.

        The first entry is the owner; the rest is the deterministic
        failover order (each shard once, in the order their points
        appear walking clockwise).
        """
        # keys are cell_key() content hashes (hex); their own position
        # reuses the leading 64 bits of the hash rather than re-hashing
        try:
            position = int(key[:16], 16)
        except ValueError:
            position = _ring_position(key)
        points = self._points
        lo, hi = 0, len(points)
        while lo < hi:
            mid = (lo + hi) // 2
            if points[mid][0] < position:
                lo = mid + 1
            else:
                hi = mid
        seen: list[int] = []
        for offset in range(len(points)):
            index = points[(lo + offset) % len(points)][1]
            if index not in seen:
                seen.append(index)
                if len(seen) == self.shards:
                    break
        return seen

    def owner(self, key: str) -> int:
        return self.chain(key)[0]


class ShardClient:
    """One shard's address, liveness state and pooled connections."""

    def __init__(self, index: int, host: str, port: int):
        self.index = index
        self.host = host
        self.port = port
        self.alive = True
        self.probe_failures = 0
        self._pool: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    # --------------------------------------------------------- connections
    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        return http.client.HTTPConnection(
            self.host, self.port, timeout=FORWARD_TIMEOUT_S
        )

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._pool) < 32:
                self._pool.append(conn)
                return
        conn.close()

    def drop_pool(self) -> None:
        """Close every pooled connection (the shard died or moved)."""
        with self._lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    # ------------------------------------------------------------ requests
    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One forwarded request; raises ``OSError`` on transport failure.

        A request on a pooled (possibly stale) keep-alive connection
        gets one retry on a fresh connection before the failure
        propagates — a shard restart must not surface as an error for
        requests that never reached the old process.  ``headers`` are
        extra request headers (the router forwards ``X-Tenant`` so the
        shard charges the right cost budget).
        """
        send_headers = dict(headers or {})
        if body:
            send_headers.setdefault("Content-Type", "application/json")
        headers = send_headers
        last_exc: Exception | None = None
        for attempt in range(2):
            conn = self._checkout() if attempt == 0 else (
                http.client.HTTPConnection(
                    self.host, self.port, timeout=FORWARD_TIMEOUT_S
                )
            )
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
                status = resp.status
                resp_headers = {k: v for k, v in resp.getheaders()}
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                last_exc = exc
                continue
            if resp.will_close:
                conn.close()
            else:
                self._checkin(conn)
            return status, resp_headers, payload
        raise OSError(f"shard {self.index} unreachable: {last_exc!r}")

    def open_stream(
        self, method: str, path: str
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """A dedicated (non-pooled) connection for a streamed response."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=FORWARD_TIMEOUT_S
        )
        try:
            conn.request(method, path)
            return conn, conn.getresponse()
        except (OSError, http.client.HTTPException):
            conn.close()
            raise


class Router:
    """Routing state shared by every handler thread (HTTP-agnostic)."""

    def __init__(self, shards: list[ShardClient], planner=None):
        if not shards:
            raise ValueError("a router needs at least one shard")
        self.shards = shards
        self.ring = HashRing(len(shards))
        #: optional :class:`~repro.service.planner.Planner` used only to
        #: resolve unset/``"auto"`` engines *at the front door*, so the
        #: routing key and the shard's cache key agree (shards always
        #: see a concrete engine).  Admission budgets live on the
        #: shards, each gating its own slice of the key space.
        self.planner = planner
        self.counters = Counters()
        self._lock = threading.Lock()
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None

    # ------------------------------------------------------------ liveness
    def mark_dead(self, shard: ShardClient, how: str) -> None:
        with self._lock:
            if shard.alive:
                shard.alive = False
                self.counters.add("shard_deaths")
                self.counters.add("rehash_events")
                self.counters.add(f"deaths_{how}")
        shard.drop_pool()

    def mark_alive(self, shard: ShardClient) -> None:
        with self._lock:
            shard.probe_failures = 0
            if not shard.alive:
                shard.alive = True
                # the shard takes its ring arc back from the survivors
                self.counters.add("rehash_events")

    def _probe_once(self) -> None:
        for shard in self.shards:
            try:
                status, _, _ = shard.request("GET", f"/{API_VERSION}/healthz")
                ok = status == 200
            except OSError:
                ok = False
            self.counters.add("probes")
            if ok:
                self.mark_alive(shard)
            else:
                shard.probe_failures += 1
                if shard.probe_failures >= PROBE_FAILURES and shard.alive:
                    self.mark_dead(shard, "probe")

    def _probe_loop(self) -> None:
        while not self._probe_stop.wait(PROBE_INTERVAL_S):
            self._probe_once()

    def start_prober(self) -> None:
        if self._probe_thread is None:
            self._probe_thread = threading.Thread(
                target=self._probe_loop, daemon=True
            )
            self._probe_thread.start()

    def close(self) -> None:
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5)
        for shard in self.shards:
            shard.drop_pool()

    # ---------------------------------------------------------- forwarding
    def _unavailable(self, what: str) -> ApiError:
        self.counters.add("unavailable")
        return ApiError(
            503, "shard_unavailable",
            f"no shard is currently able to serve {what}; the supervisor "
            "restarts dead shards automatically",
            retry_after_s=UNAVAILABLE_RETRY_S,
        )

    def forward_by_key(
        self,
        key: str,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """Forward to ``key``'s owner, walking the failover chain.

        Only *transport* failures advance the chain — an HTTP error
        status (400, 429, ...) is the owner's authoritative answer and
        passes through unchanged.
        """
        chain = self.ring.chain(key)
        for position, index in enumerate(chain):
            shard = self.shards[index]
            if not shard.alive:
                continue
            if position > 0:
                # the owner (or a closer survivor) is out: this request
                # rides the re-hashed arc on a failover shard
                self.counters.add("failovers")
            try:
                result = shard.request(method, path, body, headers=headers)
            except OSError:
                self.mark_dead(shard, "forward")
                continue
            self.counters.add("forwards")
            return result
        raise self._unavailable(f"key {key[:12]}…")

    def forward_pinned(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """Forward to shard 0 (the jobs surface is process-local)."""
        shard = self.shards[0]
        try:
            result = shard.request(method, path, body, headers=headers)
        except OSError:
            self.mark_dead(shard, "forward")
            raise self._unavailable(path) from None
        self.counters.add("forwards")
        return result

    def any_alive(self) -> ShardClient | None:
        for shard in self.shards:
            if shard.alive:
                return shard
        return None

    # ------------------------------------------------------------- metrics
    def shard_doc(self, shard: ShardClient) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "alive": shard.alive,
            "addr": f"{shard.host}:{shard.port}",
        }
        if shard.alive:
            try:
                status, _, payload = shard.request(
                    "GET", f"/{API_VERSION}/metrics"
                )
                if status == 200:
                    metrics = json.loads(payload)
                    doc["cache"] = metrics.get("cache", {})
                    doc["requests"] = metrics.get("requests", {})
                    doc["planner"] = metrics.get("planner", {})
                    doc["kernel"] = metrics.get("kernel", {})
            except (OSError, ValueError):
                pass  # alive flag still reflects the prober's view
        return doc

    def metrics(self) -> dict[str, Any]:
        """The router's aggregated ``GET /v1/metrics`` document."""
        router: dict[str, Any] = {
            "shards": len(self.shards),
            "alive": sum(1 for s in self.shards if s.alive),
            "forwards": 0,
            "failovers": 0,
            "shard_deaths": 0,
            "rehash_events": 0,
            "unavailable": 0,
        }
        router.update(self.counters.snapshot())
        router["parse_cache"] = parse_cache_info()
        shards: dict[str, Any] = {}
        rollup = {"hits": 0, "misses": 0, "stores": 0, "preloaded": 0}
        planner_rollup: dict[str, Any] = {
            "enabled": False,
            "shed_tenant": 0,
            "shed_global": 0,
            "tenants": {},
        }
        tenant_rollup: dict[str, dict[str, float]] = planner_rollup["tenants"]
        kernel_rollup: dict[str, dict[str, int]] = {}
        for shard in self.shards:
            doc = self.shard_doc(shard)
            shards[str(shard.index)] = doc
            for field in rollup:
                rollup[field] += doc.get("cache", {}).get(field, 0)
            for name, shard_cache in doc.get("kernel", {}).items():
                # per-process caches: the tier-wide view is the sum
                total = kernel_rollup.setdefault(name, dict.fromkeys(
                    ("size", "max", "hits", "misses", "evictions"), 0
                ))
                for field in total:
                    total[field] += shard_cache.get(field, 0)
            shard_planner = doc.get("planner", {})
            if shard_planner.get("enabled"):
                # each shard gates its own key-space slice; the tier-wide
                # view of one tenant's budget is the sum over shards
                planner_rollup["enabled"] = True
                for counter in ("shed_tenant", "shed_global"):
                    planner_rollup[counter] += shard_planner.get(counter, 0)
                for tenant, budget in shard_planner.get(
                    "tenants", {}
                ).items():
                    agg = tenant_rollup.setdefault(
                        tenant,
                        {
                            "capacity": 0.0,
                            "remaining": 0.0,
                            "spent_total": 0.0,
                            "rejections": 0,
                        },
                    )
                    for field in agg:
                        agg[field] += budget.get(field, 0)
        doc = {
            "schema": SERVICE_SCHEMA,
            "api": API_VERSION,
            "router": router,
            "shards": shards,
            "cache": rollup,
        }
        # keep the planner-less metrics envelope unchanged: the section
        # appears only when some shard (or the router) actually plans
        if planner_rollup["enabled"] or self.planner is not None:
            doc["planner"] = planner_rollup
        # same conditional pattern: present only when some shard reports
        # its kernel caches (the plan cache and the program cache)
        if kernel_rollup:
            doc["kernel"] = kernel_rollup
        return doc

    def healthz(self) -> dict[str, Any]:
        """Healthz is shard-transparent: a live shard's document plus a
        ``router`` section (503 envelope when no shard answers)."""
        shard = self.any_alive()
        doc: dict[str, Any] | None = None
        if shard is not None:
            try:
                status, _, payload = shard.request(
                    "GET", f"/{API_VERSION}/healthz"
                )
                if status == 200:
                    doc = json.loads(payload)
            except (OSError, ValueError):
                self.mark_dead(shard, "forward")
        if doc is None:
            raise self._unavailable("healthz")
        doc["router"] = {
            "shards": len(self.shards),
            "alive": sum(1 for s in self.shards if s.alive),
        }
        return doc


class RouterHandler(JsonApiHandler):
    """The router's HTTP face: same base plumbing as the service
    handler, but every route is a forward (or an aggregation) instead
    of an in-process call."""

    ROUTES = (
        ("GET", ("healthz",), "ep_healthz"),
        ("GET", ("metrics",), "ep_metrics"),
        ("POST", ("run",), "ep_run"),
        ("POST", ("batch",), "ep_batch"),
        ("POST", ("plan",), "ep_plan"),
        ("POST", ("jobs",), "ep_jobs"),
        ("GET", ("jobs",), "ep_jobs"),
        ("GET", ("jobs", None), "ep_jobs"),
        ("GET", ("jobs", None, "result"), "ep_jobs"),
        ("DELETE", ("jobs", None), "ep_jobs"),
        ("GET", ("jobs", None, "events"), "ep_jobs_events"),
    )

    @property
    def router(self) -> Router:
        return self.server.router  # type: ignore[attr-defined]

    def _forward_headers(self) -> dict[str, str]:
        """Request headers the router relays shard-ward (tenant identity)."""
        tenant = (self.headers.get("X-Tenant") or "").strip()
        return {"X-Tenant": tenant} if tenant else {}

    def _resolve_engine(self, parsed, body):
        """Resolve an unset/``"auto"`` engine at the front door.

        ``parsed`` is ``body``'s :func:`parse_run_doc` triple; ``body``
        is the raw bytes of a run/plan request or one decoded batch
        entry.  Returns ``(body, ring key)``.  With a router planner the
        chosen engine is written *into the forwarded body*, so the ring
        key computed here and the cache key the shard derives are one
        and the same.  Otherwise the body passes through untouched (the
        shard's own planner may still choose, shifting only which
        shard's cache holds the result).
        """
        request, engine_unset, key = parsed
        if self.router.planner is None or not engine_unset:
            return body, key
        decision = self.router.planner.plan(request, engine_unset=True)
        doc = decode_body(body) if isinstance(body, bytes) else body
        doc = {k: v for k, v in doc.items() if k != "engine"}
        doc["engine"] = decision.engine
        key = replace(request, engine=decision.engine).key()
        if isinstance(body, bytes):
            return json.dumps(doc).encode("utf-8"), key
        return doc, key

    def _forward_run(self, endpoint: str, headers):
        """Forward one run/plan body to its key's owner shard."""
        raw = self._read_raw_body()
        # the router validates and hashes exactly like a shard would, so
        # a malformed request 400s here without consuming shard capacity
        raw, key = self._resolve_engine(parse_run_body(raw), raw)
        result = self.router.forward_by_key(
            key, "POST", f"/{API_VERSION}/{endpoint}", raw,
            headers=self._forward_headers(),
        )
        return self._relay(result, headers)

    def _relay(
        self,
        result: tuple[int, dict[str, str], bytes],
        headers: dict[str, str],
    ):
        """Write a forwarded (status, headers, payload) response."""
        status, shard_headers, payload = result
        passthrough = dict(headers)
        if "Retry-After" in shard_headers:
            passthrough["Retry-After"] = shard_headers["Retry-After"]
        self._send_payload(status, payload, headers=passthrough)
        return _STREAMED

    # ------------------------------------------------------------- routes
    def ep_healthz(self, headers) -> tuple[int, Any]:
        return 200, self.router.healthz()

    def ep_metrics(self, headers) -> tuple[int, Any]:
        return 200, self.router.metrics()

    def ep_run(self, headers):
        return self._forward_run("run", headers)

    def ep_plan(self, headers):
        # the owner shard answers: its planner holds the cost budgets
        # for exactly this request's slice of the key space
        return self._forward_run("plan", headers)

    def ep_batch(self, headers):
        body = self._read_body()
        if not isinstance(body, dict) or "requests" not in body:
            raise ValueError(
                'batch body must be a JSON object with a "requests" list'
            )
        requests = body["requests"]
        if not isinstance(requests, list) or not requests:
            raise ValueError('"requests" must be a non-empty list')
        resolved = [
            self._resolve_engine(parse_run_doc(doc), doc) for doc in requests
        ]
        # split by owner, forward sub-batches, stitch in request order —
        # a batch spanning shards still answers as one document
        groups: dict[int, list[int]] = {}
        for position, (_, key) in enumerate(resolved):
            owner = self.router.ring.owner(key)
            groups.setdefault(owner, []).append(position)
        results: list[Any] = [None] * len(resolved)
        forward_headers = self._forward_headers()
        for owner, positions in groups.items():
            sub = {"requests": [resolved[p][0] for p in positions]}
            key = resolved[positions[0]][1]
            status, _, payload = self.router.forward_by_key(
                key, "POST", f"/{API_VERSION}/batch",
                json.dumps(sub).encode("utf-8"),
                headers=forward_headers,
            )
            if status != 200:
                # a shard-side rejection (429 under load) fails the
                # whole batch with the shard's own envelope, matching
                # the unsharded all-or-nothing batch contract
                return self._relay((status, {}, payload), headers)
            sub_results = json.loads(payload)["results"]
            for position, result in zip(positions, sub_results):
                results[position] = result
        return 200, {"results": results}

    def ep_jobs(self, *captured, headers):
        body: bytes | None = None
        if self.command == "POST":
            body = self._read_raw_body()
        # forward the request path verbatim (it is under /v1)
        segments = [
            s for s in self.path.split("?", 1)[0].split("/") if s
        ]
        path = "/" + "/".join(segments)
        result = self.router.forward_pinned(self.command, path, body)
        return self._relay(result, headers)

    def ep_jobs_events(self, job_id: str, headers):
        """Relay the chunked job-events stream from shard 0."""
        shard = self.router.shards[0]
        try:
            conn, resp = shard.open_stream(
                "GET", f"/{API_VERSION}/jobs/{job_id}/events"
            )
        except (OSError, http.client.HTTPException):
            self.router.mark_dead(shard, "forward")
            raise self._unavailable_events() from None
        self.router.counters.add("forwards")
        try:
            if resp.status != 200:
                payload = resp.read()
                self._send_payload(resp.status, payload, headers=headers)
                return _STREAMED
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Connection", "close")
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.close_connection = True
            while True:
                line = resp.readline()  # http.client de-chunks for us
                if not line:
                    break
                self.wfile.write(b"%x\r\n" % len(line) + line + b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up; the job keeps running on the shard
        finally:
            conn.close()
        return _STREAMED

    def _unavailable_events(self) -> ApiError:
        return self.router._unavailable("the job events stream")


class _RouterServer(ThreadingHTTPServer):
    daemon_threads = True


def make_router_server(
    host: str, port: int, router: Router, verbose: bool = False
) -> ThreadingHTTPServer:
    """Bind the router's front-door HTTP server (``port=0`` works)."""
    httpd = _RouterServer((host, port), RouterHandler)
    httpd.router = router  # type: ignore[attr-defined]
    httpd.verbose = verbose  # type: ignore[attr-defined]
    return httpd
