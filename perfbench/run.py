"""Benchmark entry point.

    python3 perfbench/run.py --workload sim-paper|serve-hot|serve-cold \
        --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository (the program is
imported from ``src/``).  Prints context lines, then as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Exits non-zero without a result when the program is
not there.  See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: set-ups per untraced run; setup_s is their median
SETUPS = 5

#: the benchmark's declaration: workload names and metric units
_DECLARED = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def _run_sim_paper(seed: int, seconds: float, trace: bool) -> dict:
    """Spawn the sim-paper process ``SETUPS`` times; the last one runs.

    The workload process asks for each host probe of its window with a
    ``probe`` line and waits for the reading: the probe runs here, in
    the benchmark's own process, so the state of the program's process
    (its heap, its caches) does not enter it.
    """
    script = Path(__file__).resolve().parent / "simchild.py"
    harness.OUT.mkdir(exist_ok=True)
    setups = 1 if trace else SETUPS
    times = []
    probes = []
    with open(harness.OUT / "sim-paper.log", "ab") as log:
        for attempt in range(setups):
            last = attempt == setups - 1
            mode = ("trace" if trace else "run") if last else "setup"
            probes.append(harness.host_probe_ms())
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(script), "--seed", str(seed),
                 "--seconds", str(seconds), "--mode", mode],
                cwd=harness.ROOT, env=harness.child_env(),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            )
            try:
                ready = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                output = b""
                for line in proc.stdout:
                    if line == b"probe\n":
                        proc.stdin.write(b"%r\n" % harness.host_probe_ms())
                        proc.stdin.flush()
                    else:
                        output += line
            finally:
                proc.stdin.close()
                proc.stdout.close()
                code = proc.wait()
            if code != 0 or not ready.strip():
                raise RuntimeError(
                    f"sim-paper process exited {code} "
                    f"(see {harness.OUT / 'sim-paper.log'})"
                )
    report = json.loads(output.splitlines()[-1])
    report["setup_s"] = {"raw": times, "scaled": harness.setup_seconds(times, probes)}
    return report


def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "sim-paper":
        report = _run_sim_paper(seed, seconds, trace)
    else:
        import serve

        report = serve.run(workload, seed, seconds, trace, SETUPS)
    if not trace:
        return report
    # a layer the workload does not exercise reports 0
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(report["layers"])
    untraced = report["summary"]["p50_ms"]
    # the serve workloads time no span in the window (their layers come
    # from replays after it), so their traced figures are the untraced ones
    traced = report.get("traced_summary", report["summary"])["p50_ms"]
    layers["trace.untraced_p50_ms"] = untraced
    layers["trace.p50_ms"] = traced
    layers["trace.overhead_pct"] = (traced - untraced) / untraced * 100
    report["layers"] = layers
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {harness.SRC / 'repro'} "
            f"is missing (run from the root of a repository checkout)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(harness.SRC))

    cpu = harness.pin_cpu()
    probe_before = harness.host_probe_ms()
    report = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    probe_after = harness.host_probe_ms()

    if args.trace:
        metrics = {
            name: {"value": report["layers"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        values = dict(report["summary"])
        values["setup_s"] = statistics.median(report["setup_s"]["scaled"])
        values["peak_rss_mb"] = report["peak_rss_mb"]
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({"context": {
        "workload": args.workload,
        "seed": args.seed,
        "cpu": cpu,
        "host_probe_ms": harness.probe_context(
            probe_before, report["slice_probes_ms"], probe_after
        ),
        "setup_s_each": report["setup_s"],
        "raw": report["summary"]["raw"],
        "slices": report["summary"]["slices"],
        "charged_words": report["charged_words"],
    }}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
