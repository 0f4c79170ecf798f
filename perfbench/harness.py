"""Measurement plumbing shared by the benchmark's workloads.

CPU pinning, the host-speed probe, a small in-memory span recorder,
latency summaries, a keep-alive HTTP client, and the lifecycle of the
server under test (own session, process-tree accounting from ``/proc``,
whole-group teardown with a survivor check).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch directory inside the checkout (server logs)
OUT = ROOT / ".perfbench"

_TICKS = os.sysconf("SC_CLK_TCK")


#: the CPUs this process may use, before :func:`pin_cpu`
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))


def pin_cpu() -> int:
    """Pin this process to one CPU (children inherit it) and return it.

    The load generator and every process of the program under test
    share the CPU: unpinned, the scheduler migrates them between cores
    and a hot HTTP loop ranged over 3x between runs.  The highest
    allowed CPU is used because the lowest one tends to take the
    host's interrupts.
    """
    cpu = max(ALLOWED_CPUS)
    os.sched_setaffinity(0, {cpu})
    return cpu


@contextmanager
def all_cpus():
    """Lift the pin for work after the timed window; yields the CPU count."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALLOWED_CPUS)
    try:
        yield len(ALLOWED_CPUS)
    finally:
        os.sched_setaffinity(0, pinned)


def _probe_work() -> None:
    """Fixed interpreter work: an integer loop (bytecode dispatch) and
    object churn with a sort and a JSON round-trip (allocation and
    cache misses)."""
    s = 0
    for i in range(20_000):
        s += i * i
    rng = random.Random(1)
    table = {(i, str(i)): [rng.random() for _ in range(4)] for i in range(1500)}
    rows = sorted(table.items(), key=lambda kv: kv[1][0])
    json.loads(json.dumps([[k[1], v] for k, v in rows[:300]]))


def host_probe_ms() -> float:
    """CPU time of this thread over fixed interpreter work, in ms: the
    host's speed for computation.

    The shared host runs the same code 2-3x slower in some phases than
    in others, for minutes at a time, in CPU time as much as in wall
    time (contention for the physical core lowers the instructions per
    cycle; steal time stays near 0).  The probe counts the CPU time of
    its own thread, so a process of the program under test that keeps
    the shared CPU busy does not enter it, and it runs with the garbage
    collector off, so the size of the heap does not either.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _probe_work()
        return (time.thread_time() - t0) * 1e3
    finally:
        if collecting:
            gc.enable()


def child_env() -> dict[str, str]:
    """Environment for a process of the program under test: the source
    tree on the path, no ``REPRO_*`` knob inherited from outside, and a
    fixed hash seed, so set and dict order is the same in every run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------- stats
#: slices of a window; a run reports the median of their figures
SLICES = 15
#: the reading of :func:`host_probe_ms` at the reference host speed
REFERENCE_PROBE_MS = 5.0
#: the reading of :meth:`RefServer.probe_ms` at the reference host speed
REFERENCE_HTTP_MS = 0.25


def scale(probes_ms: list[float], reference_ms: float) -> float:
    """Factor that takes a time measured while a probe read
    ``probes_ms`` to the speed at which it reads ``reference_ms``:
    every reported time is ``measured * reference_ms / probe``, with
    the probes taken next to the measurement."""
    return reference_ms / statistics.median(probes_ms)


def timed_window(seconds: float, run_block, probe,
                 slices: int = SLICES) -> list[list[float]]:
    """Call ``run_block(slice)`` for whole blocks until ``seconds`` have
    elapsed, cut into ``slices`` time slices, and take a ``probe()``
    reading before every block (a block lasts 30-150 ms, so the
    readings follow the host's speed closely).  Returns the readings of
    each slice."""
    probes: list[list[float]] = []
    for piece in range(slices):
        probes.append([])
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / slices:
            probes[-1].append(probe())
            run_block(piece)
    return probes


def latency_summary(latencies_s: list[float], elapsed_s: float) -> dict:
    """p50/p90 in ms and completed operations per second, as measured."""
    deciles = statistics.quantiles(latencies_s, n=10, method="inclusive")
    return {
        "p50_ms": statistics.median(latencies_s) * 1e3,
        "p90_ms": deciles[8] * 1e3,
        "ops_per_s": len(latencies_s) / elapsed_s,
    }


def sliced_summary(slices: list[tuple[list[float], float]],
                   probes: list[list[float]], reference_ms: float) -> dict:
    """Per figure, the median over ``(latencies, elapsed)`` slices of
    the slice's figure scaled to the reference host speed by the
    slice's own probes.  The measured figures are kept under ``raw``
    (their medians over slices) and each slice's under ``slices``."""
    per_slice = []
    for (latencies, elapsed), slice_probes in zip(slices, probes):
        raw = latency_summary(latencies, elapsed)
        k = scale(slice_probes, reference_ms)
        per_slice.append({
            "p50_ms": raw["p50_ms"] * k,
            "p90_ms": raw["p90_ms"] * k,
            "ops_per_s": raw["ops_per_s"] / k,
            "probe_ms": statistics.median(slice_probes),
            "raw": raw,
        })
    doc = {
        name: statistics.median(s[name] for s in per_slice)
        for name in ("p50_ms", "p90_ms", "ops_per_s")
    }
    doc["raw"] = {
        name: statistics.median(s["raw"][name] for s in per_slice)
        for name in doc
    }
    doc["slices"] = per_slice
    return doc


def setup_seconds(raw_s: list[float], probes_ms: list[float]) -> list[float]:
    """Set-up times scaled to the reference host speed, each by the
    :func:`host_probe_ms` reading taken just before it."""
    return [t * scale([probe], REFERENCE_PROBE_MS)
            for t, probe in zip(raw_s, probes_ms)]


def probe_context(before: float, slices: list[list[float]], after: float) -> dict:
    """The probes of a run: :func:`host_probe_ms` before and after it,
    and the window's probes, their median per slice.  ``max_over_min``
    of the slice medians well above 1 marks a window that straddled a
    change of host speed; the scaling follows such a change slice by
    slice."""
    medians = [statistics.median(probes) for probes in slices]
    return {
        "before": before,
        "slices": medians,
        "after": after,
        "max_over_min": max(medians) / min(medians),
    }


# ----------------------------------------------------------------- spans
class Spans:
    """Benchmark-side span recorder: the durations of each span name."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.durations.setdefault(name, []).append(time.perf_counter() - t0)

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called ``name`` (0 when none)."""
        durations = self.durations.get(name)
        return statistics.fmean(durations) * 1e3 if durations else 0.0


# ---------------------------------------------------------------- client
class Client:
    """One keep-alive HTTP/1.1 connection, used in a closed loop."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, path: str, payload: bytes):
        """POST and read the whole reply: ``(status, body, seconds)``."""
        t0 = time.perf_counter()
        self.conn.request("POST", path, payload, {"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        data = resp.read()
        return resp.status, data, time.perf_counter() - t0

    def get(self, path: str) -> bytes:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"GET {path} answered {resp.status}")
        return data

    def close(self) -> None:
        self.conn.close()


# ------------------------------------------------------- process groups
def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces; the fields after it do not
    return raw[raw.rindex(")") + 2:].split()


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields and int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def group_cpu_s(pgid: int) -> float:
    """User + system CPU seconds of every live process of the group."""
    total = 0
    for pid in group_pids(pgid):
        fields = _stat_fields(pid)
        if fields:
            total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident set sizes (``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def kill_group(proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """SIGKILL the whole process group of ``proc`` (started with
    ``start_new_session``), reap it, and fail if any member survives —
    killing the server alone orphans its pool workers."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=timeout_s)
    deadline = time.monotonic() + timeout_s
    while group_pids(pgid):
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"processes {group_pids(pgid)} of group {pgid} survived SIGKILL"
            )
        time.sleep(0.01)


class Server:
    """``python -m repro serve`` in its own session, on an ephemeral port."""

    def __init__(self, jobs: int = 2, boot_timeout_s: float = 60.0):
        OUT.mkdir(exist_ok=True)
        self.log_path = OUT / "server.log"
        log = open(self.log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", "serve",
                 "--port", "0", "--jobs", str(jobs)],
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        finally:
            log.close()
        try:
            self.port = self._read_port(boot_timeout_s)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout_s: float) -> int:
        """Parse the bound port off the server's first line of output."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline().decode() if ready else ""
        marker = "http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(
                f"server did not report its port (see {self.log_path}): "
                f"{line!r}"
            )
        return int(line.split(marker, 1)[1].split()[0])

    def pids(self) -> list[int]:
        return group_pids(self.proc.pid)

    def cpu_s(self) -> float:
        return group_cpu_s(self.proc.pid)

    def stop(self) -> None:
        kill_group(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


#: the request bodies of one reference probe
REF_BODIES = [
    json.dumps({"program": program, "v": v, "f": "x^0.5", "mu": 4}).encode()
    for program in ("sort", "fft-rec")
    for v in (16, 64, 256, 1024)
]


class RefServer:
    """The reference HTTP server (``refserver.py``) in its own session,
    with one keep-alive client.

    :meth:`probe_ms` is the serve workloads' measure of the host's
    speed: the host slows HTTP work (system calls, context switches
    between client and server on the shared CPU) by a different factor
    than computation, which :func:`host_probe_ms` measures.
    """

    def __init__(self, boot_timeout_s: float = 30.0):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "refserver.py")],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], boot_timeout_s)
            line = self.proc.stdout.readline() if ready else b""
            if not line.strip().isdigit():
                raise RuntimeError(f"reference server did not report its port: {line!r}")
            self.client = Client(int(line))
        except BaseException:
            self.stop()
            raise

    def probe_ms(self) -> float:
        """Median latency of one fixed block of reference requests, in ms."""
        latencies = []
        for body in REF_BODIES:
            status, _, seconds = self.client.post("/", body)
            if status != 200:
                raise RuntimeError(f"reference server answered {status}")
            latencies.append(seconds)
        return statistics.median(latencies) * 1e3

    def stop(self) -> None:
        if getattr(self, "client", None) is not None:
            self.client.close()
        kill_group(self.proc)
        self.proc.stdout.close()
