"""The sim-paper workload process: in-process ``repro.run`` calls.

Started by ``run.py`` (which times it from spawn to its ``ready`` line:
interpreter start, ``import repro`` and a warm-up round that fills the
plan and cost-table caches and records each cell's reference result).
With ``--mode setup`` it exits there; otherwise it runs the timed
closed loop of shuffled rounds, asking ``run.py`` for a host probe
between rounds, and prints one JSON document.

``--mode trace`` alternates untraced rounds with traced ones, where
each call is replaced by the calls ``repro.run`` makes — build, engine,
direct baseline — each inside a span of the benchmark's own recorder,
then replays every cell at ``trace="counters"`` against
``trace="phases"`` to price the phase tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    REFERENCE_PROBE_MS, SLICES, SRC, Spans, peak_rss_mb, sliced_summary,
    timed_window,
)
from workloads import SIM_CELLS, SIM_WIDTHS, sim_round  # noqa: E402

sys.path.insert(0, str(SRC))


def _words(counters: dict) -> int:
    return int(counters.get("words_touched", 0) + counters.get("words_moved", 0))


def _observed(result) -> tuple:
    return (result.time, result.counters, result.slowdown)


def _traced_call(repro_engines, machine_cls, plan_info, spans, compiles, cell):
    """One ``repro.run`` call, decomposed into its layer calls.

    A vec run that misses the plan cache is priced by running it again
    with the plan resident; the difference goes to ``compiles``.
    """
    engine, program, f_spec = cell
    misses = plan_info()["misses"]
    f = repro_engines.resolve_access_function(f_spec)
    with spans.span("algorithms.build"):
        prog = repro_engines.build_program(program, SIM_WIDTHS[program], 8)
    t0 = time.perf_counter()
    with spans.span(f"engines.{engine}.run"):
        result = repro_engines.ENGINES[engine].run(prog, f, trace="phases")
    missed_s = time.perf_counter() - t0
    with spans.span("dbsp.baseline"):
        guest = machine_cls(f).run(prog.with_global_sync())
    if plan_info()["misses"] != misses:
        t0 = time.perf_counter()
        repro_engines.ENGINES[engine].run(prog, f, trace="phases")
        compiles.append(missed_s - (time.perf_counter() - t0))
    slowdown = result.time / guest.total_time if guest.total_time > 0 else None
    return (result.time, result.counters, slowdown)


def _parent_probe() -> float:
    """A host probe taken by the benchmark process (see ``run.py``)."""
    print("probe", flush=True)
    return float(sys.stdin.readline())


def _loop(seed: int, seconds: float, calls, reference, slices: int) -> tuple:
    """Whole shuffled rounds until ``seconds`` have elapsed, in
    ``slices`` time slices with host probes between rounds (see
    :func:`harness.timed_window`).

    ``calls`` holds one call per round kind, used in turn — the plain
    call, or the plain and the traced call — so the kinds alternate
    over the same phases of the run.  Returns per kind its
    ``(latencies, elapsed)`` per slice, the failed count and the probes
    of each slice.
    """
    kinds = [[([], 0.0) for _ in range(slices)] for _ in calls]
    failed = 0
    index = 0

    def run_round(piece: int) -> None:
        nonlocal failed, index
        which = index % len(calls)
        latencies, elapsed = kinds[which][piece]
        t_round = time.perf_counter()
        for cell in sim_round(seed, index):
            t0 = time.perf_counter()
            observed = calls[which](cell)
            latencies.append(time.perf_counter() - t0)
            failed += observed != reference[cell]
        kinds[which][piece] = (latencies, elapsed + time.perf_counter() - t_round)
        index += 1

    probes = timed_window(seconds, run_round, _parent_probe, slices)
    return kinds, failed, probes


def _phases_overhead_ms(repro_engines) -> float:
    """Mean over cells of engine time at ``phases`` minus at ``counters``
    (median of three alternating runs each)."""
    diffs = []
    for engine, program, f_spec in SIM_CELLS:
        f = repro_engines.resolve_access_function(f_spec)
        prog = repro_engines.build_program(program, SIM_WIDTHS[program], 8)
        times: dict[str, list[float]] = {"counters": [], "phases": []}
        for _ in range(3):
            for level in times:
                t0 = time.perf_counter()
                repro_engines.ENGINES[engine].run(prog, f, trace=level)
                times[level].append(time.perf_counter() - t0)
        diffs.append(
            statistics.median(times["phases"]) - statistics.median(times["counters"])
        )
    return statistics.fmean(diffs) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args()

    import repro
    from repro import engines as repro_engines
    from repro.dbsp.machine import DBSPMachine
    from repro.sim.hmm_vec import plan_cache_info

    def plain(cell):
        engine, program, f = cell
        return _observed(repro.run(program, engine, f, v=SIM_WIDTHS[program]))

    reference = {cell: plain(cell) for cell in SIM_CELLS}
    print(json.dumps({"ready": True}), flush=True)
    if args.mode == "setup":
        return 0

    spans = Spans()
    compiles: list[float] = []
    calls = [plain]
    if args.mode == "trace":
        calls.append(lambda cell: _traced_call(
            repro_engines, DBSPMachine, plan_cache_info, spans, compiles, cell
        ))
    plan_before = plan_cache_info()
    kinds, failed, probes = _loop(
        args.seed, args.seconds, calls, reference,
        1 if args.mode == "trace" else SLICES,
    )
    plan_after = plan_cache_info()
    doc = {
        "summary": sliced_summary(kinds[0], probes, REFERENCE_PROBE_MS),
        "slice_probes_ms": probes,
        "attempted": sum(len(lat) for kind in kinds for lat, _ in kind),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
        "charged_words": sum(_words(ref[1]) for ref in reference.values()),
    }
    if args.mode == "trace":
        hits = plan_after["hits"] - plan_before["hits"]
        misses = plan_after["misses"] - plan_before["misses"]
        doc["traced_summary"] = sliced_summary(
            kinds[1], probes, REFERENCE_PROBE_MS
        )
        doc["layers"] = {
            "algorithms.build_ms": spans.mean_ms("algorithms.build"),
            "dbsp.baseline_ms": spans.mean_ms("dbsp.baseline"),
            "engines.vec.run_ms": spans.mean_ms("engines.vec.run"),
            "engines.bt.run_ms": spans.mean_ms("engines.bt.run"),
            "engines.brent.run_ms": spans.mean_ms("engines.brent.run"),
            "obs.phases_overhead_ms": _phases_overhead_ms(repro_engines),
            "sim.hmm_vec.plan_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            # every vec plan stays resident, so normally none is compiled
            "sim.hmm_vec.plan_compile_ms": statistics.fmean(compiles) * 1e3
            if compiles else 0.0,
        }
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
