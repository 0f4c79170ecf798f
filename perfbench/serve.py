"""The serve-hot and serve-cold workloads: ``/v1/run`` over HTTP.

One ``python -m repro serve --jobs 2`` (server plus two pool workers),
one keep-alive connection, one closed loop: the benchmark process is the
only caller and waits for every reply.  Before every block the same
process reads the host's speed — serve-hot from a fixed block of
requests to the reference server (``refserver.py``, on the same CPU),
serve-cold from that and the computation probe together — and every
figure of a slice is scaled by those readings.  After the window the
server's whole process group is killed, and every timed response is
checked against the in-process ``workers.TASKS[kind](args)`` document
for its key.  A traced run times the same window; its per-layer
numbers come from in-process replays of the timed operations after the
window, timed by the benchmark's own spans.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from harness import (
    REF_BODIES, REFERENCE_HTTP_MS, REFERENCE_PROBE_MS, ROOT, Client, RefServer,
    Server, Spans, all_cpus, child_env, host_probe_ms, peak_rss_mb,
    setup_seconds, sliced_summary, timed_window,
)
from workloads import COLD_BLOCK, ColdSequence, cold_warmup, hot_block, hot_set

RUN_PATH = "/v1/run"
#: operations of the serve-cold prefix replayed in-process per layer
COLD_REPLAY_OPS = 60
#: timed serve-hot operations replayed through an in-process SimService
HOT_REPLAY_OPS = 2000


def _encode(body: dict) -> bytes:
    return json.dumps(body).encode()


def _normalized(kind: str, args: tuple) -> dict:
    """The served form of a worker-task document: spans rendered under
    ``trace``, then one JSON round-trip."""
    from repro.parallel import workers

    doc = workers.TASKS[kind](args)
    doc["trace"] = [span.to_json() for span in doc.pop("spans", [])]
    return json.loads(json.dumps(doc))


def _reference(body: dict) -> tuple[str, dict]:
    """Key and in-process reference document of one request body."""
    from repro.service.scheduler import parse_run_request

    request = parse_run_request(body)
    return request.key(), _normalized(request.task_kind, request.args)


def _words(doc: dict) -> int:
    counters = doc.get("counters", {})
    return int(counters.get("words_touched", 0) + counters.get("words_moved", 0))


class _Ops:
    """The timed operations: body index, status, reply bytes, latency,
    and the slice each was timed in.

    Replies are interned, so the ~50k identical serve-hot replies of a
    window cost one copy per key.
    """

    def __init__(self) -> None:
        self.body_index: list[int] = []
        self.status: list[int] = []
        self.reply: list[bytes] = []
        self.latency: list[float] = []
        self.slice: list[int] = []
        #: wall seconds of each slice's blocks
        self.elapsed: list[float] = []
        #: CPU seconds of this process over the blocks (probes excluded)
        self.client_cpu = 0.0
        #: host probes of each slice
        self.probes: list[list[float]] = []
        self._interned: dict[bytes, bytes] = {}

    def add(self, index: int, status: int, data: bytes, seconds: float) -> None:
        self.body_index.append(index)
        self.status.append(status)
        self.reply.append(self._interned.setdefault(data, data))
        self.latency.append(seconds)
        self.slice.append(len(self.elapsed) - 1)

    def summary(self, reference_ms: float) -> dict:
        latencies: list[list[float]] = [[] for _ in self.elapsed]
        for seconds, piece in zip(self.latency, self.slice):
            latencies[piece].append(seconds)
        return sliced_summary(
            list(zip(latencies, self.elapsed)), self.probes, reference_ms
        )

    def __len__(self) -> int:
        return len(self.latency)


class _Workload:
    """Shared shape of the two serve workloads."""

    #: the ``served`` path every timed reply must report
    served = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.bodies: list[dict] = []
        self.payloads: list[bytes] = []
        self._expected: dict[int, tuple[str, dict]] = {}

    def compute_references(self, indices) -> None:
        """Compute the reference of every listed body not known yet.

        The window is over by then, so this uses every CPU the benchmark
        may use (at most two worker processes, each fed its share of the
        bodies as JSON): serve-cold needs one engine run per timed
        operation.
        """
        todo = sorted(set(indices) - self._expected.keys())
        if not todo:
            return
        with all_cpus() as cpus:
            shares = [todo[i::min(cpus, 2)] for i in range(min(cpus, 2))]
            procs = [
                subprocess.Popen(
                    [sys.executable, __file__], cwd=ROOT, env=child_env(),
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                )
                for _ in shares
            ]
            try:
                # each worker reads all of its input before it writes
                for proc, share in zip(procs, shares):
                    proc.stdin.write(
                        json.dumps([self.bodies[i] for i in share]).encode()
                    )
                    proc.stdin.close()
                for proc, share in zip(procs, shares):
                    results = json.loads(proc.stdout.read())
                    self._expected.update(
                        (i, (key, doc)) for i, (key, doc) in zip(share, results)
                    )
            finally:
                for proc in procs:
                    proc.kill()
                    proc.wait()
                    proc.stdout.close()

    def setup_server(self) -> tuple[Server, Client]:
        server = Server(jobs=2)
        client = Client(server.port)
        try:
            for body in self.warm_bodies():
                status, _, _ = client.post(RUN_PATH, _encode(body))
                if status != 200:
                    raise RuntimeError(f"set-up request answered {status}")
        except BaseException:
            client.close()
            server.stop()
            raise
        return server, client

    def warm_bodies(self) -> list[dict]:
        raise NotImplementedError

    def host_speed(self, ref: RefServer) -> tuple:
        """The probe that scales the window's figures, and its reading
        at the reference host speed."""
        raise NotImplementedError

    def next_block(self) -> list[int]:
        raise NotImplementedError

    def loop(self, client: Client, seconds: float, ops: _Ops, probe) -> None:
        """Whole blocks until ``seconds`` have elapsed, in time slices
        with ``probe`` readings between blocks (see
        :func:`harness.timed_window`)."""
        def run_block(piece: int) -> None:
            if piece == len(ops.elapsed):
                ops.elapsed.append(0.0)
            t0 = time.perf_counter()
            cpu0 = time.process_time()
            for index in self.next_block():
                ops.add(index, *client.post(RUN_PATH, self.payloads[index]))
            ops.client_cpu += time.process_time() - cpu0
            ops.elapsed[-1] += time.perf_counter() - t0

        ops.probes = timed_window(seconds, run_block, probe)

    def verify(self, ops: _Ops) -> int:
        """Check every timed reply; returns the number that failed."""
        self.compute_references(ops.body_index)
        checked: dict[tuple[int, bytes], bool] = {}
        failed = 0
        for index, status, data in zip(ops.body_index, ops.status, ops.reply):
            if status != 200:
                failed += 1
                continue
            verdict = checked.get((index, data))
            if verdict is None:
                key, doc = self._expected[index]
                reply = json.loads(data)
                verdict = (
                    reply.get("key") == key
                    and reply.get("served") == self.served
                    and reply.get("result") == doc
                )
                checked[(index, data)] = verdict
            failed += not verdict
        return failed

    def charged_words(self) -> int:
        """Charged words of a fixed set of the workload's bodies."""
        raise NotImplementedError


class HotWorkload(_Workload):
    """Every request hits the result cache: a seeded pre-warmed set."""

    served = "cached"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bodies = hot_set(seed)
        self.payloads = [_encode(b) for b in self.bodies]
        self._blocks = 0

    def warm_bodies(self) -> list[dict]:
        return self.bodies

    def host_speed(self, ref: RefServer) -> tuple:
        # a hit is all HTTP work
        return ref.probe_ms, REFERENCE_HTTP_MS

    def next_block(self) -> list[int]:
        block = hot_block(self.seed, self._blocks, len(self.bodies))
        self._blocks += 1
        return block

    def charged_words(self) -> int:
        # the whole hot set
        indices = range(len(self.bodies))
        self.compute_references(indices)
        return sum(_words(self._expected[i][1]) for i in indices)


class ColdWorkload(_Workload):
    """Every request is a distinct key: the full compute path."""

    served = "computed"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._sequence = ColdSequence(seed)

    def warm_bodies(self) -> list[dict]:
        return cold_warmup()

    def host_speed(self, ref: RefServer) -> tuple:
        # a cold request is computation plus HTTP and the pool hand-off:
        # the two probes' readings add, each the time of its fixed work
        # (about two thirds computation, one third HTTP)
        n = len(REF_BODIES)
        return (
            lambda: host_probe_ms() + n * ref.probe_ms(),
            REFERENCE_PROBE_MS + n * REFERENCE_HTTP_MS,
        )

    def next_block(self) -> list[int]:
        block = self._sequence.block()
        first = len(self.bodies)
        self.bodies.extend(block)
        self.payloads.extend(_encode(b) for b in block)
        return list(range(first, len(self.bodies)))

    def charged_words(self) -> int:
        # the first block, timed in every run
        indices = range(COLD_BLOCK)
        self.compute_references(indices)
        return sum(_words(self._expected[i][1]) for i in indices)


WORKLOAD_TYPES = {"serve-hot": HotWorkload, "serve-cold": ColdWorkload}


def _metrics(client: Client) -> dict:
    return json.loads(client.get("/v1/metrics"))


def _setups(workload: _Workload, count: int) -> tuple[dict, Server, Client]:
    """Boot and warm ``count`` servers; keep the last one running.
    Returns their times, as measured and at the reference host speed."""
    times = []
    probes = []
    for attempt in range(count):
        probes.append(host_probe_ms())
        t0 = time.perf_counter()
        server, client = workload.setup_server()
        times.append(time.perf_counter() - t0)
        if attempt < count - 1:
            client.close()
            server.stop()
    return {"raw": times, "scaled": setup_seconds(times, probes)}, server, client


def run(name: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    """One benchmark run of a serve workload; returns its report."""
    workload = WORKLOAD_TYPES[name](seed)
    setup_times, server, client = _setups(workload, 1 if trace else setups)
    ops = _Ops()
    ref = None
    try:
        ref = RefServer()
        probe, reference_ms = workload.host_speed(ref)
        before = _metrics(client)
        server_cpu = server.cpu_s()
        workload.loop(client, seconds, ops, probe)
        server_cpu = server.cpu_s() - server_cpu
        after = _metrics(client)
        rss = peak_rss_mb(server.pids())
    finally:
        try:
            if ref is not None:
                ref.stop()
        finally:
            client.close()
            server.stop()
    # replay before verifying: verification computes every timed body
    # in this process, which would warm what the replays must find cold
    layers = _replay(workload, ops) if trace else {}
    failed = workload.verify(ops)
    report = {
        "summary": ops.summary(reference_ms),
        "slice_probes_ms": ops.probes,
        "setup_s": setup_times,
        "peak_rss_mb": rss,
        "attempted": len(ops),
        "failed": failed,
        "charged_words": workload.charged_words(),
    }
    if trace:
        layers.update({
            "service.server.cpu_us_per_op": server_cpu / len(ops) * 1e6,
            "service.client.cpu_us_per_op": ops.client_cpu / len(ops) * 1e6,
        })
        layers.update(_metric_deltas(before, after))
        report["layers"] = layers
    return report


def _metric_deltas(before: dict, after: dict) -> dict:
    """Counters the server itself keeps, over the timed window."""
    def delta(section: str, name: str) -> int:
        return after[section].get(name, 0) - before[section].get(name, 0)

    hits = delta("cache", "hits")
    misses = delta("cache", "misses")
    return {
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.cache.evictions": delta("cache", "evictions"),
        "requests.served_cached": delta("requests", "served_cached"),
        "requests.served_computed": delta("requests", "served_computed"),
        "requests.served_coalesced": delta("requests", "served_coalesced"),
    }


def _time_us(fn, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps * 1e6


def _replay(workload: _Workload, ops: _Ops) -> dict:
    """Per-layer numbers from in-process replays of the timed operations."""
    from repro.service.scheduler import parse_run_request

    if isinstance(workload, HotWorkload):
        sample = range(len(workload.bodies))
        reps = 20
    else:
        sample = range(min(COLD_REPLAY_OPS, len(workload.bodies)))
        reps = 3
    parse = {"sim": [], "dag": []}
    keys = []
    for index in sample:
        payload = workload.payloads[index]
        kind = "dag" if workload.bodies[index].get("kind") == "dag" else "sim"
        parse[kind].append(_time_us(
            lambda: parse_run_request(json.loads(payload)), reps
        ))
        request = parse_run_request(json.loads(payload))
        keys.append(_time_us(request.key, reps))
    layers = {
        "service.parse_us.sim": statistics.fmean(parse["sim"]),
        "service.parse_us.dag": statistics.fmean(parse["dag"]),
        "service.key_us": statistics.fmean(keys),
    }
    if isinstance(workload, HotWorkload):
        layers.update(_replay_hot(workload, ops))
    else:
        layers.update(_replay_cold(workload, ops))
    return layers


def _handle_run_us(service, workload, ops: _Ops, positions: range) -> dict:
    """In-process ``SimService.handle_run`` over the given timed ops, and
    the HTTP share: their end-to-end latency minus the in-process time."""
    in_process = []
    end_to_end = []
    for pos in positions:
        body = workload.payloads[ops.body_index[pos]]
        t0 = time.perf_counter()
        service.handle_run(json.loads(body))
        in_process.append(time.perf_counter() - t0)
        end_to_end.append(ops.latency[pos])
    in_process_s = statistics.fmean(in_process)
    return {
        "service.handle_run_us": in_process_s * 1e6,
        "service.http_us": (statistics.fmean(end_to_end) - in_process_s) * 1e6,
    }


def _replay_hot(workload: HotWorkload, ops: _Ops) -> dict:
    from repro.service.server import SimService

    service = SimService(jobs=1)
    for body in workload.bodies:
        service.handle_run(body)
    # nothing is computed on a hit: the compute-path layers stay at 0
    replayed = range(min(len(ops), HOT_REPLAY_OPS))
    return _handle_run_us(service, workload, ops, replayed)


def _replay_cold(workload: ColdWorkload, ops: _Ops) -> dict:
    """The cold prefix, replayed in-process.

    Even positions go through a fresh in-process ``SimService`` (a plan
    miss, like the server's); odd positions through the worker pool,
    then inline twice — the first inline run misses the plan cache, the
    second finds it resident.  Every body is a fresh plan signature, so
    each replay set misses exactly as the server's workers did.  The
    pool is warmed with a set-up body first, as the server's pool is
    before its window, so dispatch does not include starting it.
    """
    from repro.dag.compile import compile_schedule
    from repro.dag.scheduler import schedule
    from repro.parallel import workers
    from repro.parallel.pool import shared_pool
    from repro.service.scheduler import parse_run_request
    from repro.service.server import SimService
    from repro.sim.hmm_vec import plan_cache_info

    prefix = range(min(len(ops), COLD_REPLAY_OPS))
    layers = _handle_run_us(SimService(jobs=1), workload, ops, prefix[0::2])
    requests = [
        parse_run_request(workload.bodies[ops.body_index[pos]])
        for pos in prefix[1::2]
    ]
    spans = Spans()
    pool = shared_pool(2)
    try:
        warm = parse_run_request(cold_warmup()[0])
        list(pool.run_ordered(warm.task_kind, [warm.args]))
        for request in requests:
            with spans.span("pool"):
                list(pool.run_ordered(request.task_kind, [request.args]))
    finally:
        pool.shutdown()
    inline: dict[str, list[float]] = {"run-cell": [], "run-dag": []}
    compiles = []
    hits = misses = 0
    for request in requests:
        task = workers.TASKS[request.task_kind]
        info = plan_cache_info()
        t0 = time.perf_counter()
        task(request.args)
        first = time.perf_counter() - t0
        after = plan_cache_info()
        inline[request.task_kind].append(first)
        hits += after["hits"] - info["hits"]
        missed = after["misses"] - info["misses"]
        misses += missed
        if missed:
            t0 = time.perf_counter()
            task(request.args)
            compiles.append(first - (time.perf_counter() - t0))
        if request.task_kind == "run-dag":
            spec = request.spec()
            with spans.span("dag.schedule"):
                plan = schedule(spec, request.v, request.heuristic)
            with spans.span("dag.compile"):
                compile_schedule(spec, plan, mu=request.mu)
    all_inline = inline["run-cell"] + inline["run-dag"]
    layers.update({
        "sim.hmm_vec.plan_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        # a short run may time no DAG body, or no plan miss, among them
        "sim.hmm_vec.plan_compile_ms": statistics.fmean(compiles) * 1e3
        if compiles else 0.0,
        "parallel.pool.dispatch_ms": spans.mean_ms("pool")
        - statistics.fmean(all_inline) * 1e3,
        "parallel.workers.run_cell_ms": statistics.fmean(inline["run-cell"]) * 1e3,
        "parallel.workers.run_dag_ms": statistics.fmean(inline["run-dag"]) * 1e3
        if inline["run-dag"] else 0.0,
        "dag.schedule_ms": spans.mean_ms("dag.schedule"),
        "dag.compile_ms": spans.mean_ms("dag.compile"),
    })
    return layers


if __name__ == "__main__":
    # reference worker: request bodies (JSON list) in, [key, document]
    # pairs out — see _Workload.compute_references
    json.dump([_reference(body) for body in json.load(sys.stdin)], sys.stdout)
