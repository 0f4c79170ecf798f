"""Load generators for the simulation service: one client, one phase runner.

Every bench mode here writes a :mod:`repro.bench` document -- the shared
header from :func:`~repro.bench.bench_header`, checked by
:func:`~repro.bench.check` against its ``kind``'s rule row -- and all of
them drive the server through one keep-alive client (:class:`_Client`)
and one phase runner (:func:`_run_lanes`).  A phase is a set of *lanes*;
a lane is a set of clients, each pulling ``(offset, path, body)`` items
off a schedule.  A closed loop is a schedule whose offsets are all 0
(every client issues its next request the moment the previous response
lands); an open loop is a schedule of Poisson arrival offsets shared by
a pool of workers, with latency measured from each request's
*scheduled* arrival so queueing delay is charged to the tier rather
than silently absorbed by the arrival process.

Request streams are seeded (``random.Random``), so two runs against
equivalent servers issue the identical request sequences.  A 429 or 503
from the server is not an error: a retrying client honours
``Retry-After`` and retries, counting the rejection; a single-attempt
client (the plan bench's bulk lane) counts a 429 as shed and moves on.
Every non-2xx response is parsed through the unified error envelope
(``{"error": {"code", "message", "retry_after_s"}}``); one without it
counts in ``non_envelope_errors``.  Every phase carries the latency
block of :func:`repro.obs.latency.latency_fields`.

* :func:`run_loadgen` (``loadgen``, kind ``service_throughput``) -- two
  closed-loop phases: ``cold`` (every request a unique content key, so
  every request is computed) and ``hot`` (a ``hot_ratio`` fraction from
  a small fixed hot-key set).  ``hot_vs_cold_speedup`` is the ratio of
  their requests/s.
* :func:`run_shard_bench` (``loadgen --open-loop``, kind
  ``service_shard``) -- closed-loop scaling rows (N shards vs 1 over the
  same working set), then open-loop phases, fault-free and with a shard
  killed mid-phase under the supervisor's watch.  Open-loop percentiles
  are suppressed below :data:`MIN_OPEN_LOOP_SAMPLES` samples.
* :func:`run_job_bench` (``loadgen --job-mode``, kind
  ``service_jobs``) -- interactive p50 latency with and without a
  background sweep job competing for the worker pool, and whether a job
  resumed after a mid-job restart returns the uninterrupted result.
* :func:`run_plan_bench` (``loadgen --plan-mode``, kind
  ``service_plan``) -- ``POST /v1/plan`` prediction accuracy against
  measured charged cost, then the adversarial cheap/enormous mix under
  flat ``queue_limit`` admission and under cost-aware admission.  The
  documented SLO (:data:`PLAN_P99_BOUND_X`): cost-aware admission keeps
  the cheap lane's p99 within 3x the uniform-load p99 by shedding the
  enormous requests at the door, while flat admission does not.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import socket
import threading
import time
import urllib.parse
from typing import Any

from repro.bench import (
    FAULT_P99_BOUND_X,
    MIN_OPEN_LOOP_SAMPLES,
    PLAN_P99_BOUND_X,
    SCALING_FLOOR_X,
    bench_header,
)
from repro.obs.latency import latency_fields

__all__ = [
    "MIN_OPEN_LOOP_SAMPLES",
    "PLAN_P99_BOUND_X",
    "run_loadgen",
    "run_job_bench",
    "run_shard_bench",
    "run_plan_bench",
]

#: engines in the request mix (every family; ``direct`` keeps the guest
#: reference in the traffic)
_MIX_ENGINES = ("hmm", "bt", "brent", "direct")

#: programs in the request mix (delivery-heavy, cheap to build at v=16)
_MIX_PROGRAMS = ("sort", "fft-rec")


#: guest width of the mix (big enough that computing a request costs
#: milliseconds — the hot/cold contrast must measure caching, not HTTP)
_MIX_V = 64


def _hot_set(count: int) -> list[dict[str, Any]]:
    """The fixed hot-key request set: ``count`` distinct documents."""
    hot = []
    for i in range(count):
        hot.append({
            "engine": _MIX_ENGINES[i % len(_MIX_ENGINES)],
            "program": _MIX_PROGRAMS[(i // len(_MIX_ENGINES)) % len(_MIX_PROGRAMS)],
            "v": _MIX_V,
            "mu": 8,
            "f": f"x^0.{50 + i}",
            "trace": "counters",
        })
    return hot


def _cold_request(index: int) -> dict[str, Any]:
    """A request whose content key no other request shares.

    The access-function exponent is perturbed per index —
    ``x^0.100001``, ``x^0.100002``, ... — so every cold request hashes
    to a fresh :func:`~repro.resilience.ledger.cell_key` and must be
    computed.
    """
    return {
        "engine": _MIX_ENGINES[index % len(_MIX_ENGINES)],
        "program": _MIX_PROGRAMS[index % len(_MIX_PROGRAMS)],
        "v": _MIX_V,
        "mu": 8,
        "f": f"x^0.{100001 + index}",
        "trace": "counters",
    }


def _pick(rng: random.Random, hot_ratio: float, hot: list, cold) -> dict:
    """A hot-set request with probability ``hot_ratio``, else a fresh
    cold one (``cold`` is the shared counter of cold indices)."""
    if hot_ratio > 0 and rng.random() < hot_ratio:
        return hot[rng.randrange(len(hot))]
    return _cold_request(next(cold))


class _Cursor:
    """A thread-safe iterator over one schedule of ``(offset_s, path,
    body)`` items; open-loop workers share one, closed-loop clients each
    own one."""

    def __init__(self, items: list):
        self.items = items
        self._i = 0
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            if self._i >= len(self.items):
                return None
            item = self.items[self._i]
            self._i += 1
            return item


class _Client(threading.Thread):
    """One load client: pull schedule items, issue them, tally outcomes.

    An item with offset 0 is issued as soon as the previous response
    lands and timed from its send; an item with a positive offset waits
    for ``t0 + offset`` and is timed from that scheduled moment, so a
    tier that falls behind shows the queueing delay in its latencies
    (the coordinated-omission-safe measurement).  Uses one persistent
    (keep-alive) HTTP/1.1 connection for its whole schedule — per-request
    TCP setup would otherwise put a floor under the cache-hit serving
    rate.  With ``once``, every request gets exactly one attempt: the
    plan bench's enormous requests must not ride the 429 retry loop
    (under cost-aware admission the whole point is that they are shed),
    so a 429 is tallied as ``shed_429`` and the client moves on.
    """

    def __init__(self, url: str, cursor: _Cursor, once: bool = False):
        super().__init__(daemon=True)
        parsed = urllib.parse.urlsplit(url)
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.cursor = cursor
        self.once = once
        self.t0 = 0.0
        self.served: dict[str, int] = {}
        self.rejected = 0
        self.shed_429 = 0
        self.unavailable_503 = 0
        self.errors = 0
        self.non_envelope_errors = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self._conn: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=120.0
            )
            self._conn.connect()
            # mirror the server's TCP_NODELAY: a request is also two
            # small writes (headers, JSON body), and Nagle + delayed
            # ACK would floor every round trip at tens of milliseconds
            self._conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self._conn

    def _reconnect(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _fail(self, detail: str) -> None:
        self.errors += 1
        if len(self.failures) < 8:
            self.failures.append(detail)

    def _issue(self, path: str, body: Any, t0: float | None = None) -> None:
        """Issue one request; ``t0`` overrides the latency clock's start."""
        payload = json.dumps(body).encode("utf-8")
        transport_failures = 0
        backoffs = 0
        if t0 is None:
            t0 = time.perf_counter()
        while True:
            try:
                conn = self._connect()
                conn.request(
                    "POST", path, body=payload,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                raw = resp.read()
                status = resp.status
                retry_after = resp.headers.get("Retry-After")
            except (http.client.HTTPException, OSError) as exc:
                self._reconnect()
                transport_failures += 1
                if self.once or transport_failures > 3:
                    self._fail(f"transport: {exc!r}")
                    return
                continue
            try:
                doc = json.loads(raw) if raw else {}
            except ValueError:
                doc = {}
            if status == 200:
                # latency includes any 429 backoff the request rode out
                # — it is the latency the client experienced
                self.latencies.append(time.perf_counter() - t0)
                for item in doc.get("results", [doc]):
                    served = item.get("served", "?")
                    self.served[served] = self.served.get(served, 0) + 1
                return
            envelope = doc.get("error")
            if not isinstance(envelope, dict):  # non-envelope (proxy?) error
                self.non_envelope_errors += 1
                envelope = {
                    "code": "unknown",
                    "message": raw.decode("utf-8", "replace"),
                }
            if status == 429 and self.once:
                self.shed_429 += 1
                self.rejected += 1
                return
            if status in (429, 503) and not self.once and backoffs < 100:
                # both are the service saying "come back shortly": 429
                # is admission backpressure, 503 is the router riding
                # out a dead shard until the supervisor respawns it.
                # The eventual success latency includes every backoff.
                backoffs += 1
                if status == 429:
                    self.rejected += 1
                else:
                    self.unavailable_503 += 1
                backoff = envelope.get("retry_after_s") or retry_after
                time.sleep(min(float(backoff or 0.1), 0.5))
                continue
            self._fail(
                f"{status} {envelope.get('code', '?')}: "
                f"{envelope.get('message', '')}"
            )
            return

    def run(self) -> None:
        try:
            while (item := self.cursor.next()) is not None:
                offset, path, body = item
                start = None
                if offset:
                    start = self.t0 + offset
                    delay = start - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                self._issue(path, body, start)
        finally:
            self._reconnect()


def _closed(
    streams: list[list[dict[str, Any]]], batch: int = 1, start_s: float = 0.0
) -> list[_Cursor]:
    """Closed-loop schedules: one cursor per client stream, every offset
    0 (``start_s`` delays each client's first request); ``batch > 1``
    sends the stream in ``POST /v1/batch`` chunks."""
    cursors = []
    for stream in streams:
        if batch > 1:
            items = [
                ("/v1/batch", {"requests": stream[i : i + batch]})
                for i in range(0, len(stream), batch)
            ]
        else:
            items = [("/v1/run", body) for body in stream]
        cursors.append(_Cursor([
            (start_s if i == 0 else 0.0, path, body)
            for i, (path, body) in enumerate(items)
        ]))
    return cursors


def _run_lanes(
    url: str,
    lanes: dict[str, tuple[list[_Cursor], bool]],
    mid_phase: tuple[float, Any] | None = None,
) -> tuple[float, dict[str, list[_Client]]]:
    """The phase runner: every lane's clients at once, one per cursor.

    ``lanes`` maps a lane name to ``(cursors, once)``.  Returns the
    phase's wall seconds and each lane's finished clients.
    ``mid_phase=(at_s, hook)`` fires ``hook()`` that many seconds into
    the phase from the coordinating thread — the fault run uses it to
    kill a shard while the offered load keeps arriving.
    """
    clients = {
        name: [_Client(url, cursor, once) for cursor in cursors]
        for name, (cursors, once) in lanes.items()
    }
    everyone = [c for lane in clients.values() for c in lane]
    t0 = time.perf_counter()
    for c in everyone:
        c.t0 = t0
        c.start()
    if mid_phase is not None:
        at_s, hook = mid_phase
        time.sleep(max(0.0, t0 + at_s - time.perf_counter()))
        hook()
    for c in everyone:
        c.join()
    return time.perf_counter() - t0, clients


def _collect(
    workers: list[_Client], min_samples: int | None = None
) -> dict[str, Any]:
    """Aggregate one lane's client tallies into phase-document fields."""
    served: dict[str, int] = {}
    latencies: list[float] = []
    failures: list[str] = []
    for w in workers:
        for k, v in w.served.items():
            served[k] = served.get(k, 0) + v
        latencies.extend(w.latencies)
        failures.extend(w.failures)
    doc: dict[str, Any] = {
        "served": {k: served[k] for k in sorted(served)},
        "rejected_429": sum(w.rejected for w in workers),
        "unavailable_503": sum(w.unavailable_503 for w in workers),
        "errors": sum(w.errors for w in workers),
        "non_envelope_errors": sum(w.non_envelope_errors for w in workers),
    }
    if any(w.once for w in workers):
        doc["shed_429"] = sum(w.shed_429 for w in workers)
    doc.update(latency_fields(latencies, min_samples=min_samples))
    if failures:
        doc["failures"] = failures[:8]
    return doc


def _phase_line(name: str, doc: dict[str, Any]) -> str:
    """The human-readable summary line of one phase (or lane)."""
    line = f"  {name:28s}"
    if doc.get("requests_per_s"):
        line += (f" {doc['requests']:>5d} req in {doc['wall_s']:6.2f}s "
                 f"{doc['requests_per_s']:>8,.1f} req/s ")
    for field, label in (
        ("latency_p50_s", "p50"),
        ("latency_p95_s", "p95"),
        ("latency_p99_s", "p99"),
    ):
        value = doc.get(field)
        line += (f" {label}={value * 1e3:.1f}ms" if value is not None
                 else f" {label}=?")
    line += f" n={doc.get('latency_samples', 0)}  (served: " + (", ".join(
        f"{k}={v}" for k, v in doc["served"].items()
    ) or "none")
    for field, label in (
        ("rejected_429", "rejected"),
        ("shed_429", "shed"),
        ("unavailable_503", "503s"),
        ("errors", "ERRORS"),
    ):
        if doc.get(field):
            line += f", {label}={doc[field]}"
    return line + ")"


def _run_phase(
    url: str,
    name: str,
    hot_ratio: float,
    hot_keys: int,
    seed: int,
    cold_base: int,
    clients: int = 1,
    requests_per_client: int = 0,
    batch: int = 1,
    rate: float | None = None,
    duration_s: float = 0.0,
    concurrency: int = 1,
    mid_phase: tuple[float, Any] | None = None,
    echo=None,
) -> tuple[dict[str, Any], int]:
    """One hot/cold phase; returns ``(phase doc, cold keys used)``.

    Closed-loop by default: ``clients`` clients, each issuing its own
    seeded stream of ``requests_per_client`` requests back to back.
    With a ``rate``, open-loop: Poisson arrivals at ``rate``/s over
    ``duration_s``, pulled off one shared schedule by ``concurrency``
    workers (which bounds the requests in flight), percentiles
    suppressed below :data:`MIN_OPEN_LOOP_SAMPLES` samples.
    """
    hot = _hot_set(hot_keys)
    cold = itertools.count(cold_base)
    doc: dict[str, Any] = {}
    min_samples = None
    if rate is None:
        streams = []
        for c in range(clients):
            rng = random.Random(seed * 1000 + c)
            streams.append([
                _pick(rng, hot_ratio, hot, cold)
                for _ in range(requests_per_client)
            ])
        cursors = _closed(streams, batch)
        total = clients * requests_per_client
    else:
        rng = random.Random(seed)
        schedule = []
        t = rng.expovariate(rate)
        while t < duration_s:
            schedule.append((t, "/v1/run", _pick(rng, hot_ratio, hot, cold)))
            t += rng.expovariate(rate)
        cursors = [_Cursor(schedule)] * concurrency
        total = len(schedule)
        min_samples = MIN_OPEN_LOOP_SAMPLES
        doc.update(mode="open_loop", offered_rate_per_s=rate,
                   duration_s=duration_s, concurrency=concurrency)
    wall, lanes = _run_lanes(url, {name: (cursors, False)}, mid_phase)
    doc.update(
        requests=total,
        wall_s=wall,
        requests_per_s=total / wall if wall > 0 else None,
        hot_ratio=hot_ratio,
    )
    doc.update(_collect(lanes[name], min_samples))
    if echo:
        echo(_phase_line(name, doc))
    return doc, next(cold) - cold_base


def run_loadgen(
    url: str | None = None,
    clients: int = 4,
    requests_per_client: int = 50,
    hot_ratio: float = 0.9,
    hot_keys: int = 8,
    batch: int = 1,
    seed: int = 7,
    smoke: bool = False,
    jobs: int = 1,
    cache_capacity: int | None = None,
    queue_limit: int | None = None,
    echo=None,
) -> dict[str, Any]:
    """Run the two-phase load and return the bench document.

    With ``url=None`` an in-process
    :class:`~repro.service.server.ServiceServer` is started on an
    ephemeral port (and torn down afterwards) — the standalone mode the
    checked-in ``BENCH_service_throughput.json`` is generated in.  With
    a ``url``, an already-running server is driven — the CI mode
    (``python -m repro serve`` + ``python -m repro loadgen --url ...``);
    note the cold phase is only *cold* against a freshly started server.
    ``smoke`` shrinks the request counts for CI without changing the
    phase structure.
    """
    if smoke:
        clients = min(clients, 2)
        requests_per_client = min(requests_per_client, 8)
        hot_keys = min(hot_keys, 4)
    doc = bench_header(
        "service_throughput",
        "python -m repro loadgen" + (" --smoke" if smoke else ""),
        seed=seed,
        jobs=jobs,
        clients=clients,
        requests_per_client=requests_per_client,
        hot_ratio=hot_ratio,
        hot_keys=hot_keys,
        batch=batch,
        phases={},
    )
    server = None
    if url is None:
        from repro.service.server import ServiceServer, SimService

        kwargs: dict[str, Any] = {"jobs": jobs}
        if cache_capacity is not None:
            kwargs["cache_capacity"] = cache_capacity
        if queue_limit is not None:
            kwargs["queue_limit"] = queue_limit
        server = ServiceServer(SimService(**kwargs))
        url = server.url
        doc["in_process_server"] = True
    try:
        if echo:
            echo(f"load-generating against {url} "
                 f"({clients} client(s) x {requests_per_client} request(s))")
        closed = {"clients": clients, "batch": batch, "echo": echo,
                  "requests_per_client": requests_per_client}
        cold, cold_used = _run_phase(
            url, "cold", 0.0, hot_keys, seed, 0, **closed
        )
        hot, _ = _run_phase(
            url, "hot", hot_ratio, hot_keys, seed + 1, cold_used, **closed
        )
    finally:
        if server is not None:
            server.close()
    doc["phases"] = {"cold": cold, "hot": hot}
    cold_rps = cold["requests_per_s"]
    hot_rps = hot["requests_per_s"]
    doc["hot_vs_cold_speedup"] = (
        hot_rps / cold_rps if cold_rps and hot_rps else None
    )
    doc["errors"] = cold["errors"] + hot["errors"]
    if echo and doc["hot_vs_cold_speedup"]:
        echo(f"  hot/cold speedup: {doc['hot_vs_cold_speedup']:.1f}x")
    return doc


def _warm(url: str, hot_keys: int) -> None:
    """Touch every hot key once so a phase measures steady state."""
    _Client(url, _closed([_hot_set(hot_keys)])[0]).run()  # on this thread


def _fetch_results(url: str, requests: list[dict[str, Any]]) -> list[Any]:
    """The served ``result`` documents for ``requests``, in order."""
    parsed = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(
        parsed.hostname or "127.0.0.1", parsed.port or 80, timeout=120.0
    )
    results = []
    try:
        for body in requests:
            conn.request(
                "POST", "/v1/run", body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            raw = resp.read()
            if resp.status != 200:
                raise RuntimeError(
                    f"identity fetch got {resp.status}: {raw[:200]!r}"
                )
            results.append(json.loads(raw)["result"])
    finally:
        conn.close()
    return results


# ------------------------------------------------------------- shard bench


def run_shard_bench(
    url: str | None = None,
    shards: int = 2,
    rate: float = 150.0,
    duration_s: float = 8.0,
    concurrency: int = 16,
    hot_keys: int = 32,
    cache_capacity: int = 20,
    clients: int = 4,
    requests_per_client: int = 100,
    seed: int = 7,
    smoke: bool = False,
    echo=None,
) -> dict[str, Any]:
    """The sharded-tier bench: scaling rows, open-loop tails, fault run.

    Standalone (``url=None``) it builds its own tiers and runs four
    phases:

    * ``scale_1shard`` / ``scale_2shard`` — the *same* closed-loop
      hot-set stream (working set ``hot_keys`` keys, per-shard cache
      capacity ``cache_capacity`` entries) against a 1-shard and an
      N-shard tier.  The working set exceeds one shard's cache but fits
      the tier's aggregate capacity, so the 2-shard row wins on cache
      locality — the serving-layer translation of the paper's claim,
      and an honest scaling number on any host (it does not require
      spare cores, only aggregate cache).  The ``service_shard`` rules
      require at least :data:`SCALING_FLOOR_X` scaling.
    * ``open_loop`` — Poisson arrivals at ``rate`` against a fresh
      N-shard tier; the tail-latency (p50/p95/p99 + histogram) phase.
    * ``open_loop_fault`` — the same offered load, with shard 0
      ``kill()``-ed 30% into the phase.  The supervisor respawns it
      (same port, ledger-warmed cache) and the router rides the gap;
      the phase's p99 must stay within :data:`FAULT_P99_BOUND_X` of the
      fault-free p99, with zero non-envelope errors.

    It finishes with the identity check: every hot document served by
    the (restarted, failed-over) tier must be ``==``-identical to a
    fresh single-process :class:`~repro.service.server.SimService`'s
    answer.

    Attached (``url=...``) it drives an already-running tier with the
    ``open_loop`` phase only — the CI leg.
    """
    if smoke:
        rate = min(rate, 60.0)
        duration_s = min(duration_s, 2.5)
        hot_keys = min(hot_keys, 32)
        requests_per_client = min(requests_per_client, 25)
        concurrency = min(concurrency, 8)
    doc = bench_header(
        "service_shard",
        "python -m repro loadgen --open-loop" + (" --smoke" if smoke else ""),
        seed=seed,
        shards=shards,
        cache_capacity_per_shard=cache_capacity,
        hot_keys=hot_keys,
        offered_rate_per_s=rate,
        duration_s=duration_s,
        concurrency=concurrency,
        phases={},
    )
    open_loop = {"rate": rate, "duration_s": duration_s, "echo": echo,
                 "concurrency": concurrency}

    if url is not None:
        # attached mode: one open-loop phase against the running tier
        doc["attached"] = True
        if echo:
            echo(f"open-loop load against {url}")
        _warm(url, hot_keys)
        phase, _ = _run_phase(
            url, "open_loop", 0.95, hot_keys, seed, 0, **open_loop
        )
        doc["phases"]["open_loop"] = phase
        doc["errors"] = phase["errors"]
        doc["non_envelope_errors"] = phase["non_envelope_errors"]
        return doc

    from repro.service.server import SimService
    from repro.service.shard import ShardedTier

    def scale_phase(name: str, tier_shards: int) -> dict[str, Any]:
        with ShardedTier(
            shards=tier_shards, cache_capacity=cache_capacity
        ) as tier:
            _warm(tier.url, hot_keys)
            phase, _ = _run_phase(
                tier.url, name, 1.0, hot_keys, seed, 0, clients=clients,
                requests_per_client=requests_per_client, echo=echo,
            )
            phase["shards"] = tier_shards
        return phase

    if echo:
        echo(
            f"sharded-tier bench: working set {hot_keys} keys, "
            f"{cache_capacity} cache entries/shard "
            f"({shards * cache_capacity} aggregate on {shards} shards)"
        )
    one = scale_phase("scale_1shard", 1)
    many = scale_phase(f"scale_{shards}shard", shards)
    doc["phases"]["scale_1shard"] = one
    doc["phases"][f"scale_{shards}shard"] = many
    one_rps, many_rps = one["requests_per_s"], many["requests_per_s"]
    doc["scaling_x"] = (
        many_rps / one_rps if one_rps and many_rps else None
    )
    if echo and doc["scaling_x"]:
        echo(
            f"  {shards}-shard vs 1-shard throughput: "
            f"{doc['scaling_x']:.2f}x (floor {SCALING_FLOOR_X:g}x)"
        )

    # open-loop tail latency, fault-free then with shard 0 killed
    with ShardedTier(
        shards=shards, cache_capacity=cache_capacity, restart=True
    ) as tier:
        _warm(tier.url, hot_keys)
        fault_free, cold_used = _run_phase(
            tier.url, "open_loop", 0.95, hot_keys, seed + 1, 0, **open_loop
        )
        doc["phases"]["open_loop"] = fault_free

        kill_at = duration_s * 0.3
        victim = tier.supervisors[0]

        def kill_shard() -> None:
            if victim.proc is not None:
                victim.proc.kill()

        faulted, _ = _run_phase(
            tier.url, "open_loop_fault", 0.95, hot_keys, seed + 2,
            cold_used, mid_phase=(kill_at, kill_shard), **open_loop
        )
        faulted["killed_shard"] = 0
        faulted["killed_at_s"] = kill_at
        # let the supervisor finish the respawn before the tier closes
        deadline = time.monotonic() + 10.0
        while tier.restarts < 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        faulted["shard_restarts"] = tier.restarts
        doc["phases"]["open_loop_fault"] = faulted

        router = tier.router.counters.snapshot()
        doc["router_counters"] = router

        # identity: the failed-over, restarted tier must serve the same
        # documents as a fresh single-process service
        hot = _hot_set(hot_keys)
        tier_results = _fetch_results(tier.url, hot)
        reference = SimService(cache_capacity=hot_keys)
        try:
            ref_results = [
                reference.handle_run(body)["result"] for body in hot
            ]
        finally:
            reference.close()
        doc["identity_checked"] = len(hot)
        doc["identity_ok"] = tier_results == ref_results

    p99_free = fault_free.get("latency_p99_s")
    p99_fault = faulted.get("latency_p99_s")
    doc["fault_p99_ratio"] = (
        p99_fault / p99_free if p99_free and p99_fault else None
    )
    doc["errors"] = sum(p["errors"] for p in doc["phases"].values())
    doc["non_envelope_errors"] = sum(
        p["non_envelope_errors"] for p in doc["phases"].values()
    )
    if echo:
        if doc["fault_p99_ratio"]:
            echo(
                f"  shard-kill p99 vs fault-free p99: "
                f"{doc['fault_p99_ratio']:.2f}x "
                f"(bound {FAULT_P99_BOUND_X:g}x)"
            )
        echo(
            f"  identity: {doc['identity_checked']} documents vs the "
            f"unsharded engine path — "
            + ("identical" if doc["identity_ok"] else "DIVERGED")
        )
    return doc


def _wait_job(manager, job_id: str, timeout_s: float = 300.0) -> None:
    """Block until the job is terminal (the in-process polling loop)."""
    deadline = time.monotonic() + timeout_s
    while not manager.get(job_id).terminal:
        if time.monotonic() > deadline:
            raise RuntimeError(f"job {job_id} did not finish in {timeout_s}s")
        time.sleep(0.02)


def run_job_bench(
    clients: int = 2,
    requests_per_client: int = 16,
    hot_ratio: float = 0.9,
    hot_keys: int = 4,
    seed: int = 7,
    smoke: bool = False,
    jobs: int = 1,
    sizes: list[int] | None = None,
    echo=None,
) -> dict[str, Any]:
    """Measure batch-job interference on interactive serving latency.

    Three rounds, each against a fresh in-process server (fresh cache,
    fresh jobs directory), all issuing the identical seeded interactive
    request stream:

    1. **baseline** — interactive traffic only; records p50 latency.
    2. **with_job** — a touch-sweep job is enqueued first, then the same
       interactive stream runs while the job's cells compete for the
       worker pool through the :class:`~repro.service.scheduler.PoolGate`;
       records the contended p50 and the job's time-to-complete.
    3. **restart** — the same job is enqueued, the job runner is stopped
       after at least one cell checkpointed (the in-process equivalent
       of killing the server), and a new service over the same jobs
       directory re-adopts and finishes it; records total
       time-to-complete including the restart and whether the resumed
       result document equals round 2's uninterrupted one.

    ``p50_ratio`` (round 2 p50 / round 1 p50) is the interference
    number, recorded but not gated.  The ``service_jobs`` rules require
    zero failed requests and ``results_identical`` — the byte-identity
    contract under restart.
    """
    import shutil
    import tempfile

    from repro.service.server import ServiceServer, SimService

    if smoke:
        clients = min(clients, 2)
        requests_per_client = min(requests_per_client, 8)
        hot_keys = min(hot_keys, 4)
    if sizes is None:
        sizes = [1024, 2048, 4096, 8192] if smoke else (
            [4096, 8192, 16384, 32768, 65536]
        )
    job_body = {"kind": "touch", "sizes": sizes, "f": "x^0.5"}
    doc = bench_header(
        "service_jobs",
        "python -m repro loadgen --job-mode" + (" --smoke" if smoke else ""),
        seed=seed,
        jobs=jobs,
        clients=clients,
        requests_per_client=requests_per_client,
        hot_ratio=hot_ratio,
        hot_keys=hot_keys,
        job=job_body,
        rounds={},
    )
    errors = 0

    def interactive_round(url: str, name: str) -> dict[str, Any]:
        phase, _ = _run_phase(
            url, name, hot_ratio, hot_keys, seed, 0, clients=clients,
            requests_per_client=requests_per_client, echo=echo,
        )
        return phase

    # round 1: no batch job anywhere near the pool
    with ServiceServer(SimService(jobs=jobs)) as server:
        baseline = interactive_round(server.url, "base")
    errors += baseline["errors"]
    doc["rounds"]["baseline"] = baseline

    # round 2: the job competes with the identical interactive stream
    jobs_dir = tempfile.mkdtemp(prefix="repro-jobbench-")
    try:
        service = SimService(jobs=jobs, jobs_dir=jobs_dir)
        with ServiceServer(service) as server:
            manager = service.job_manager
            t0 = time.monotonic()
            job = manager.submit_json(dict(job_body))
            contended = interactive_round(server.url, "j+int")
            _wait_job(manager, job.id)
            job_s = time.monotonic() - t0
            uninterrupted = manager.result(job.id)
        errors += contended["errors"]
        doc["rounds"]["with_job"] = contended
        doc["job_s"] = job_s
    finally:
        shutil.rmtree(jobs_dir, ignore_errors=True)

    # round 3: stop the runner mid-job, re-adopt, finish from checkpoint
    jobs_dir = tempfile.mkdtemp(prefix="repro-jobbench-")
    try:
        service = SimService(jobs=jobs, jobs_dir=jobs_dir)
        manager = service.job_manager
        t0 = time.monotonic()
        job = manager.submit_json(dict(job_body))
        deadline = time.monotonic() + 300.0
        while (
            manager.get(job.id).cells_done < 1
            and not manager.get(job.id).terminal
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        interrupted = not manager.get(job.id).terminal
        service.close()  # runner stops at the next cell edge
        service = SimService(jobs=jobs, jobs_dir=jobs_dir)  # re-adopts
        manager = service.job_manager
        _wait_job(manager, job.id)
        doc["job_with_restart_s"] = time.monotonic() - t0
        doc["restart_interrupted_mid_job"] = interrupted
        resumed = manager.result(job.id)
        service.close()
    finally:
        shutil.rmtree(jobs_dir, ignore_errors=True)

    doc["results_identical"] = resumed == uninterrupted
    base_p50 = baseline.get("latency_p50_s")
    contended_p50 = contended.get("latency_p50_s")
    doc["p50_no_job_s"] = base_p50
    doc["p50_with_job_s"] = contended_p50
    doc["p50_ratio"] = (
        contended_p50 / base_p50 if base_p50 and contended_p50 else None
    )
    doc["errors"] = errors
    if echo:
        if doc["p50_ratio"]:
            echo(
                f"  interactive p50 {base_p50 * 1e3:.1f}ms alone -> "
                f"{contended_p50 * 1e3:.1f}ms beside the job "
                f"({doc['p50_ratio']:.2f}x)"
            )
        echo(
            f"  job: {doc['job_s']:.2f}s uninterrupted, "
            f"{doc['job_with_restart_s']:.2f}s with an injected restart "
            f"(results identical: {doc['results_identical']})"
        )
    return doc


# -------------------------------------------------------------- plan bench

#: global in-flight predicted-cost ceiling for the cost-aware phase —
#: far below one enormous request's predicted charged words, far above
#: a cheap request's, so admission separates the lanes by cost alone
_PLAN_COST_CEILING = 1e6

#: the prediction-accuracy matrix: every simulation engine over the
#: bench programs, at an interior guest width and an extrapolated one
#: (beyond any calibration grid — the bars must widen, not the model
#: silently pretend).  ``direct`` is excluded: it charges zero words,
#: so its words band is the trivial [0, 0].
_PLAN_MATRIX_ENGINES = ("vec", "hmm", "bt", "brent")
_PLAN_MATRIX_PROGRAMS = ("sort", "fft-rec")
_PLAN_INTERIOR_V = 32
_PLAN_EXTRAPOLATED_V = 128


def _plan_cheap_request(index: int) -> dict[str, Any]:
    """One cheap-lane request: a small vec sort, always a cold key."""
    return {
        "engine": "vec", "program": "sort", "v": 32, "mu": 8,
        "f": f"x^0.{200001 + index}", "trace": "counters",
    }


def _plan_enormous_request(index: int, v: int) -> dict[str, Any]:
    """One bulk-lane request: a bt sort wide enough to hold a queue
    slot for hundreds of milliseconds, always a cold key."""
    return {
        "engine": "bt", "program": "sort", "v": v, "mu": 8,
        "f": f"x^0.{300001 + index}", "trace": "counters",
    }


def _measured_charged_words(engine: str, program: str, v: int) -> float:
    """Actually run the cell and read its charged words off the meter."""
    from repro.engines import ENGINES, build_program, resolve_access_function

    result = ENGINES[engine].run(
        build_program(program, v, 8),
        resolve_access_function("x^0.5"),
        trace="counters",
    )
    return float(
        result.counters.get("words_touched", 0)
        + result.counters.get("words_moved", 0)
    )


def _post_plan(conn: http.client.HTTPConnection, body: dict[str, Any]) -> dict[str, Any]:
    conn.request(
        "POST", "/v1/plan", body=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    raw = resp.read()
    if resp.status != 200:
        raise RuntimeError(f"/v1/plan got {resp.status}: {raw[:200]!r}")
    return json.loads(raw)


def run_plan_bench(
    seed: int = 7,
    smoke: bool = False,
    calibration: str | None = None,
    echo=None,
) -> dict[str, Any]:
    """The planner bench (``loadgen --plan-mode``): two sections.

    1. **Prediction accuracy** — ``POST /v1/plan`` over the engine x
       program matrix at an interior and an extrapolated guest width;
       each prediction's ``[charged_words_lo, charged_words_hi]`` band
       is then checked against the actually-measured charged words.
    2. **Adversarial admission** — the same cheap request stream under
       three servers: uniform load (cost-aware server, cheap lane
       only), the cheap/enormous mix under flat ``queue_limit``
       admission, and the same mix under cost-aware admission with a
       global predicted-cost ceiling below one enormous request.  Flat
       admission lets the enormous requests occupy the queue slots
       (the cheap lane rides 429 backoffs); cost-aware admission sheds
       them at the door before they ever hold a slot.
    """
    from repro.analysis.predict import (
        CalibrationProfile,
        CostModel,
        calibrate_profile,
        load_profile,
    )
    from repro.service.planner import Planner
    from repro.service.server import ServiceServer, SimService

    if calibration is not None:
        profile = load_profile(calibration)
        cal_source = calibration
    else:
        if echo:
            echo("calibrating a smoke profile in-process "
                 "(pass --calibration PROFILE to reuse a saved one)")
        profile = CalibrationProfile(
            calibrate_profile(smoke=True, repeats=1)
        )
        cal_source = "in-process smoke calibration"
    model = CostModel(profile)

    def make_planner() -> Planner:
        # budgets are stateful; every server gets a fresh planner
        return Planner(model, cost_ceiling=_PLAN_COST_CEILING)

    # enough cheap samples that nearest-rank p99 sits below the max —
    # one OS-noise outlier must not decide the phase comparison
    cheap_clients = 3
    cheap_per_client = 34 if smoke else 67
    # as many bulk clients as queue slots: under flat admission the
    # enormous requests hold every slot for the whole bulk window, so
    # the cheap lane's lockout is deterministic, not a thread race
    bulk_clients = 4
    bulk_per_client = 3 if smoke else 2
    enormous_v = 512 if smoke else 1024
    queue_limit = 4

    doc = bench_header(
        "service_plan",
        "python -m repro loadgen --plan-mode" + (" --smoke" if smoke else ""),
        seed=seed,
        calibration={
            "source": cal_source,
            "v_grid": profile.doc.get("v_grid"),
            "mu": profile.doc.get("mu"),
            "f": profile.doc.get("f"),
        },
        queue_limit=queue_limit,
        cost_ceiling=_PLAN_COST_CEILING,
        cheap_clients=cheap_clients,
        cheap_per_client=cheap_per_client,
        bulk_clients=bulk_clients,
        bulk_per_client=bulk_per_client,
        enormous_v=enormous_v,
    )

    cheap_index = itertools.count()
    bulk_index = itertools.count()

    def mix_phase(url: str, name: str, bulk: bool) -> dict[str, Any]:
        """Cheap closed-loop clients, beside single-attempt bulk clients
        that start 50 ms earlier, so the enormous requests are already
        at the door when the cheap lane arrives.  Every request is a
        fresh cold key."""
        cheap_streams = [
            [_plan_cheap_request(next(cheap_index))
             for _ in range(cheap_per_client)]
            for _ in range(cheap_clients)
        ]
        lanes = {"cheap": (_closed(cheap_streams, start_s=0.05 * bulk),
                           False)}
        if bulk:
            lanes["bulk"] = (_closed([
                [_plan_enormous_request(next(bulk_index), enormous_v)
                 for _ in range(bulk_per_client)]
                for _ in range(bulk_clients)
            ]), True)
        wall, clients = _run_lanes(url, lanes)
        phase: dict[str, Any] = {"wall_s": wall}
        for lane, workers in clients.items():
            phase[lane] = _collect(workers)
            if echo:
                echo(_phase_line(f"{name}/{lane}", phase[lane]))
        return phase

    # --- section 1: prediction accuracy + the uniform-load baseline
    if echo:
        echo("prediction accuracy (POST /v1/plan vs measured):")
    rows: list[dict[str, Any]] = []
    with ServiceServer(
        SimService(queue_limit=queue_limit, planner=make_planner())
    ) as server:
        parsed = urllib.parse.urlsplit(server.url)
        conn = http.client.HTTPConnection(
            parsed.hostname or "127.0.0.1", parsed.port or 80, timeout=120.0
        )
        try:
            for engine in _PLAN_MATRIX_ENGINES:
                for program in _PLAN_MATRIX_PROGRAMS:
                    for v in (_PLAN_INTERIOR_V, _PLAN_EXTRAPOLATED_V):
                        plan = _post_plan(conn, {
                            "engine": engine, "program": program,
                            "v": v, "mu": 8, "f": "x^0.5",
                        })
                        pred = plan["prediction"]
                        measured = _measured_charged_words(
                            engine, program, v
                        )
                        row = {
                            "engine": engine,
                            "program": program,
                            "v": v,
                            "predicted": pred["charged_words"],
                            "lo": pred["charged_words_lo"],
                            "hi": pred["charged_words_hi"],
                            "measured": measured,
                            "extrapolated": pred["extrapolated"],
                            "within_band": (
                                pred["charged_words_lo"] <= measured
                                <= pred["charged_words_hi"]
                            ),
                        }
                        rows.append(row)
                        if echo:
                            tag = ("ok" if row["within_band"]
                                   else "OUT OF BAND")
                            extra = (" (extrapolated)"
                                     if row["extrapolated"] else "")
                            echo(
                                f"  {engine:7s} {program:8s} v={v:<5d}"
                                f" predicted={row['predicted']:>12,.0f}"
                                f" measured={measured:>12,.0f}"
                                f"  {tag}{extra}"
                            )
        finally:
            conn.close()
        doc["prediction"] = {
            "rows": rows,
            "all_within_band": all(r["within_band"] for r in rows),
        }

        if echo:
            echo("admission phases (cheap p99 is the number):")
        uniform = mix_phase(server.url, "uniform", bulk=False)

    # --- section 2: the adversarial mix, flat vs cost-aware admission
    with ServiceServer(SimService(queue_limit=queue_limit)) as server:
        flat = mix_phase(server.url, "adversarial_flat", bulk=True)

    with ServiceServer(
        SimService(queue_limit=queue_limit, planner=make_planner())
    ) as server:
        costaware = mix_phase(server.url, "adversarial_costaware", bulk=True)

    doc["phases"] = {
        "uniform": uniform,
        "adversarial_flat": flat,
        "adversarial_costaware": costaware,
    }
    uniform_p99 = uniform["cheap"].get("latency_p99_s")
    flat_p99 = flat["cheap"].get("latency_p99_s")
    costaware_p99 = costaware["cheap"].get("latency_p99_s")
    doc["cheap_p99_uniform_s"] = uniform_p99
    doc["cheap_p99_flat_s"] = flat_p99
    doc["cheap_p99_costaware_s"] = costaware_p99
    doc["flat_over_uniform"] = (
        flat_p99 / uniform_p99 if uniform_p99 and flat_p99 else None
    )
    doc["costaware_over_uniform"] = (
        costaware_p99 / uniform_p99
        if uniform_p99 and costaware_p99 else None
    )
    doc["shed_429"] = costaware["bulk"]["shed_429"]
    lanes = [
        phase[lane]
        for phase in doc["phases"].values()
        for lane in ("cheap", "bulk")
        if lane in phase
    ]
    doc["errors"] = sum(lane["errors"] for lane in lanes)
    doc["non_envelope_errors"] = sum(
        lane["non_envelope_errors"] for lane in lanes
    )
    if echo and doc["flat_over_uniform"] and doc["costaware_over_uniform"]:
        echo(
            f"  cheap p99 vs uniform: flat "
            f"{doc['flat_over_uniform']:.1f}x, cost-aware "
            f"{doc['costaware_over_uniform']:.1f}x (bound "
            f"{PLAN_P99_BOUND_X:g}x); cost-aware shed "
            f"{doc['shed_429']} enormous request(s)"
        )
    return doc
