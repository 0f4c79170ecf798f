"""Shard processes and their supervisor for the sharded service tier.

A *shard* is the ordinary single-process service
(:class:`~repro.service.server.SimService` behind the ordinary HTTP
handler) run as a child process over its own slice of the key space:
the router (:mod:`repro.service.router`) only sends it the requests
whose content hash it owns, so its private LRU cache and its private
:class:`~repro.resilience.ledger.SweepLedger` (``shard-<i>.ledger``
under the shard directory) stay dense in exactly that slice.  A
restarted shard resumes its ledger and preloads the cache — warm
restarts per shard, not per tier.

The pieces, bottom-up:

* ``python -m repro.service.shard`` (:func:`main`) — the child-process
  entry point.  It binds its port (``--port 0`` on first launch), then
  writes ``shard-<i>.port`` and ``shard-<i>.pid`` *after* binding, so
  the parent's wait-for-portfile doubles as a readiness handshake.  The
  handler hooks :func:`repro.resilience.faults.maybe_exit_shard` after
  every answered POST, so ``REPRO_FAULTS="...,shard_exit=N"`` kills the
  serving process deterministically mid-run (once per shard identity —
  the marker survives, the replacement serves on).
* :class:`ShardSupervisor` — spawns one shard, waits for the
  handshake, and respawns it on the *same* port when it dies (the
  router's address book never changes; the prober re-marks the shard
  alive when the replacement answers).
* :class:`ShardedTier` — the whole tier in one object: N supervisors,
  the router with its prober, the front-door HTTP server on a
  background thread, and a monitor thread doing the respawns.  Tests,
  the loadgen bench and the ``serve --shards N`` CLI all drive this.
* :func:`serve_sharded` — the blocking CLI entry.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time

from repro.resilience import faults
from repro.resilience.ledger import SweepLedger
from repro.service.cache import DEFAULT_CAPACITY
from repro.service.planner import (
    DEFAULT_COST_CEILING,
    DEFAULT_TENANT_CAPACITY,
    DEFAULT_TENANT_REFILL_PER_S,
    planner_from_profile,
)
from repro.service.router import (
    Router,
    ShardClient,
    make_router_server,
)
from repro.service.scheduler import DEFAULT_QUEUE_LIMIT
from repro.service.server import (
    DEFAULT_PORT,
    SimService,
    _Handler,
    make_server,
)

__all__ = [
    "ShardSupervisor",
    "ShardedTier",
    "main",
    "serve_sharded",
]

#: how long the parent waits for a shard's portfile handshake
HANDSHAKE_TIMEOUT_S = 15.0

#: monitor-thread poll interval for dead-shard respawns
MONITOR_INTERVAL_S = 0.2


def _shard_paths(shard_dir: str, index: int) -> dict[str, str]:
    base = os.path.join(shard_dir, f"shard-{index}")
    return {
        "ledger": base + ".ledger",
        "port": base + ".port",
        "pid": base + ".pid",
    }


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


class _ShardHandler(_Handler):
    """The service handler plus the deterministic shard-death hook.

    Only answered POSTs (run/batch/jobs traffic) advance the fault
    counter — health probes must not make the death time depend on the
    prober's schedule.
    """

    def _dispatch(self, method: str) -> None:
        super()._dispatch(method)
        if method != "POST":
            return
        server = self.server
        with server.served_lock:  # type: ignore[attr-defined]
            server.served_posts += 1  # type: ignore[attr-defined]
            served = server.served_posts  # type: ignore[attr-defined]
        try:
            self.wfile.flush()  # the triggering response must land first
        except OSError:  # pragma: no cover - client already gone
            pass
        faults.maybe_exit_shard(
            str(server.shard_index),  # type: ignore[attr-defined]
            served,
        )


def _bind_with_retry(
    host: str, port: int, service: SimService, index: int
):
    """``make_server`` with an EADDRINUSE retry loop.

    A respawned shard reuses its predecessor's fixed port; a worker the
    old process forked can hold it for a beat after the kill.
    """
    deadline = time.monotonic() + 10.0
    while True:
        try:
            httpd = make_server(
                host, port, service, handler_cls=_ShardHandler
            )
        except OSError:
            if port == 0 or time.monotonic() >= deadline:
                raise
            time.sleep(0.2)
            continue
        httpd.shard_index = index  # type: ignore[attr-defined]
        httpd.served_lock = threading.Lock()  # type: ignore[attr-defined]
        httpd.served_posts = 0  # type: ignore[attr-defined]
        return httpd


def main(argv: list[str] | None = None) -> int:
    """Child-process entry: serve one shard until killed."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.shard",
        description="one shard of the sharded simulation service "
        "(normally launched by the supervisor, not by hand)",
    )
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--dir", required=True, help="shard state dir")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-capacity", type=int,
                        default=DEFAULT_CAPACITY)
    parser.add_argument("--queue-limit", type=int,
                        default=DEFAULT_QUEUE_LIMIT)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--jobs-dir", default=None)
    parser.add_argument("--calibration", default=None,
                        help="calibration profile path (enables the "
                        "cost-aware planner on this shard)")
    parser.add_argument("--tenant-capacity", type=float,
                        default=DEFAULT_TENANT_CAPACITY)
    parser.add_argument("--tenant-refill", type=float,
                        default=DEFAULT_TENANT_REFILL_PER_S)
    parser.add_argument("--cost-ceiling", type=float,
                        default=DEFAULT_COST_CEILING)
    args = parser.parse_args(argv)

    os.makedirs(args.dir, exist_ok=True)
    paths = _shard_paths(args.dir, args.index)
    if os.path.exists(paths["ledger"]):
        ledger = SweepLedger.resume(paths["ledger"])
    else:
        ledger = SweepLedger.create(paths["ledger"])
    planner = None
    if args.calibration is not None:
        planner = planner_from_profile(
            args.calibration,
            tenant_capacity=args.tenant_capacity,
            tenant_refill_per_s=args.tenant_refill,
            cost_ceiling=args.cost_ceiling,
        )
    service = SimService(
        cache_capacity=args.cache_capacity,
        queue_limit=args.queue_limit,
        jobs=args.jobs,
        ledger=ledger,
        jobs_dir=args.jobs_dir,
        planner=planner,
        identity={
            "index": args.index,
            "pid": os.getpid(),
            "ledger": paths["ledger"],
        },
    )
    httpd = _bind_with_retry(args.host, args.port, service, args.index)
    port = httpd.server_address[1]
    # the handshake: port/pid files appear only once the socket is bound
    _write_atomic(paths["port"], f"{port}\n")
    _write_atomic(paths["pid"], f"{os.getpid()}\n")
    try:
        httpd.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        service.close()
        ledger.close()
    return 0


class ShardSupervisor:
    """Spawn, watch and respawn one shard child process."""

    def __init__(
        self,
        index: int,
        shard_dir: str,
        host: str = "127.0.0.1",
        cache_capacity: int = DEFAULT_CAPACITY,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        jobs: int = 1,
        jobs_dir: str | None = None,
        calibration: str | None = None,
        budget_args: dict[str, float] | None = None,
        env: dict[str, str] | None = None,
    ):
        self.index = index
        self.shard_dir = shard_dir
        self.host = host
        self.cache_capacity = cache_capacity
        self.queue_limit = queue_limit
        self.jobs = jobs
        self.jobs_dir = jobs_dir
        self.calibration = calibration
        #: optional overrides: tenant_capacity / tenant_refill /
        #: cost_ceiling, forwarded to the child as CLI flags
        self.budget_args = dict(budget_args or {})
        self.env = dict(env or {})
        self.port = 0  # pinned after the first successful handshake
        self.proc: subprocess.Popen | None = None
        self.spawns = 0

    def start(self) -> None:
        """Spawn the child and wait for its portfile handshake."""
        paths = _shard_paths(self.shard_dir, self.index)
        os.makedirs(self.shard_dir, exist_ok=True)
        for name in ("port", "pid"):
            try:
                os.unlink(paths[name])
            except FileNotFoundError:
                pass
        cmd = [
            sys.executable, "-c",
            # not "-m repro.service.shard": the package __init__ imports
            # this module, and runpy would warn about re-executing it
            "from repro.service.shard import main; "
            "import sys; sys.exit(main())",
            "--index", str(self.index),
            "--dir", self.shard_dir,
            "--host", self.host,
            "--port", str(self.port),
            "--cache-capacity", str(self.cache_capacity),
            "--queue-limit", str(self.queue_limit),
            "--jobs", str(self.jobs),
        ]
        if self.jobs_dir is not None:
            cmd += ["--jobs-dir", self.jobs_dir]
        if self.calibration is not None:
            cmd += ["--calibration", self.calibration]
            for name in ("tenant_capacity", "tenant_refill", "cost_ceiling"):
                if name in self.budget_args:
                    flag = "--" + name.replace("_", "-")
                    cmd += [flag, str(self.budget_args[name])]
        env = dict(os.environ)
        env.update(self.env)
        self.proc = subprocess.Popen(cmd, env=env)
        self.spawns += 1
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"shard {self.index} exited with "
                    f"{self.proc.returncode} before binding"
                )
            try:
                with open(paths["port"]) as fh:
                    text = fh.read().strip()
                if text:
                    self.port = int(text)
                    return
            except FileNotFoundError:
                pass
            time.sleep(0.05)
        raise RuntimeError(
            f"shard {self.index} did not hand back a port within "
            f"{HANDSHAKE_TIMEOUT_S:g}s"
        )

    def is_alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=5)


class ShardedTier:
    """The whole sharded tier behind one URL (context manager).

    >>> tier = ShardedTier(shards=2, cache_capacity=8)
    >>> tier.url.startswith("http://127.0.0.1:")
    True
    >>> tier.close()
    """

    def __init__(
        self,
        shards: int = 2,
        shard_dir: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_capacity: int = DEFAULT_CAPACITY,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        jobs: int = 1,
        jobs_dir: str | None = None,
        calibration: str | None = None,
        budget_args: dict[str, float] | None = None,
        restart: bool = True,
        per_shard_env: dict[int, dict[str, str]] | None = None,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.shard_dir = shard_dir or tempfile.mkdtemp(
            prefix="repro-shards-"
        )
        self.restart = restart
        self.restarts = 0
        per_shard_env = per_shard_env or {}
        self.supervisors = [
            ShardSupervisor(
                index,
                self.shard_dir,
                host=host,
                cache_capacity=cache_capacity,
                queue_limit=queue_limit,
                jobs=jobs,
                # jobs are pinned to shard 0 by the router; the other
                # shards never see a /v1/jobs request
                jobs_dir=jobs_dir if index == 0 else None,
                calibration=calibration,
                budget_args=budget_args,
                env=per_shard_env.get(index),
            )
            for index in range(shards)
        ]
        started = []
        try:
            for supervisor in self.supervisors:
                supervisor.start()
                started.append(supervisor)
        except Exception:
            for supervisor in started:
                supervisor.stop()
            raise
        # the router's planner only resolves auto engines at the front
        # door (key consistency); budgets live on the shards
        router_planner = (
            planner_from_profile(calibration)
            if calibration is not None else None
        )
        self.router = Router(
            [
                ShardClient(s.index, s.host, s.port)
                for s in self.supervisors
            ],
            planner=router_planner,
        )
        self.httpd = make_router_server(host, port, self.router)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        self.router.start_prober()
        self._monitor_stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True
        )
        self._monitor.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(MONITOR_INTERVAL_S):
            if not self.restart:
                continue
            for supervisor in self.supervisors:
                if supervisor.is_alive():
                    continue
                try:
                    supervisor.start()
                    self.restarts += 1
                except RuntimeError:  # pragma: no cover - retried next tick
                    pass

    def close(self) -> None:
        self._monitor_stop.set()
        self._monitor.join(timeout=5)
        self.router.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5)
        for supervisor in self.supervisors:
            supervisor.stop()

    def __enter__(self) -> "ShardedTier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_sharded(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    shards: int = 2,
    shard_dir: str = "shards",
    cache_capacity: int = DEFAULT_CAPACITY,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    jobs: int = 1,
    jobs_dir: str | None = None,
    calibration: str | None = None,
    budget_args: dict[str, float] | None = None,
    echo=print,
) -> int:
    """Blocking CLI entry for ``serve --shards N``."""
    tier = ShardedTier(
        shards=shards,
        shard_dir=shard_dir,
        host=host,
        port=port,
        cache_capacity=cache_capacity,
        queue_limit=queue_limit,
        jobs=jobs,
        jobs_dir=jobs_dir,
        calibration=calibration,
        budget_args=budget_args,
    )
    if echo:
        ports = ", ".join(str(s.port) for s in tier.supervisors)
        echo(
            f"repro sharded service on {tier.url}  "
            f"({shards} shard(s) on ports {ports}, state in "
            f"{shard_dir}/, cache {cache_capacity}/shard, "
            f"queue {queue_limit}"
            + (", planner on" if calibration is not None else "")
            + ")"
        )
        echo(
            "routing: consistent hashing on the request content hash; "
            "dead shards respawn on the same port and resume their "
            "ledgers; /v1/jobs is pinned to shard 0"
        )
    try:
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        if echo:
            echo("shutting down the tier")
    finally:
        tier.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - child process entry
    raise SystemExit(main())
