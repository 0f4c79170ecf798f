"""The DAG scheduling bench: locality-aware vs. greedy, in charged words.

Unlike the wall-clock matrix in :mod:`repro.bench`, every number this
bench records is a *charged* model cost — deterministic, machine
independent, byte-identical on every host.  That changes what the
checked-in baseline (``BENCH_sim_dag.json``) means: its ``sim_dag`` rule
row in :data:`repro.bench.RULES` compares shared cells **exactly** (any
drift is a charged-determinism regression, not noise), and additionally
enforces the headline claim of the scheduler — that the locality-aware
heuristic strictly beats greedy ETF on cross-processor traffic for at
least two of the pseudo-streaming workloads.

The matrix runs each streaming workload (sized so partitions outnumber
processors — the regime where placement matters; at ``partitions <= v``
the heuristics can tie) through both heuristics, records the schedule
shape (steps, cross-cluster volume), the direct engine's message count
and communication charge (the "charged words moved" of the schedule),
and the charged completion time on every engine in the matrix.  The
smoke matrix keeps all workloads and heuristics but trims the engine
list — a strict subset, so ``bench --dag --smoke --check`` compares
against the full checked-in baseline.
"""

from __future__ import annotations

import time
from typing import Any

from repro.algorithms.streaming import streaming_spec
from repro.bench import bench_header
from repro.dag.compile import dag_program
from repro.dag.scheduler import HEURISTICS, schedule
from repro.engines import ENGINES, resolve_access_function

__all__ = [
    "DAG_WORKLOADS",
    "DAG_ENGINES",
    "DAG_SMOKE_ENGINES",
    "run_dag_bench",
]

#: the fixed workload matrix: every streaming shape, sized with
#: ``partitions > v`` so the two heuristics separate strictly
DAG_WORKLOADS: tuple[tuple[str, dict[str, int]], ...] = (
    ("stream-scan", {"epochs": 4, "partitions": 16, "chunk": 8}),
    ("stream-stencil", {"epochs": 4, "partitions": 16, "chunk": 8}),
    ("stream-reduce", {"epochs": 4, "partitions": 16, "chunk": 8}),
)

#: engines in the full matrix (charged time recorded per engine)
DAG_ENGINES: tuple[str, ...] = ("direct", "vec", "hmm", "bt", "brent")

#: the smoke matrix trims engines, never workloads or heuristics — a
#: strict subset, so smoke runs check cleanly against a full baseline
DAG_SMOKE_ENGINES: tuple[str, ...] = ("direct", "vec")


def _bench_cell(
    spec, heuristic: str, v: int, mu: int, f_spec: str,
    engines: tuple[str, ...],
) -> dict[str, Any]:
    """One (workload, heuristic) cell: schedule shape + charged costs."""
    sched = schedule(spec, v, heuristic=heuristic)
    program = dag_program(spec, v=v, mu=mu, heuristic=heuristic)
    f = resolve_access_function(f_spec)
    times: dict[str, float] = {}
    direct = None
    wall = 0.0
    for engine in engines:
        t0 = time.perf_counter()
        res = ENGINES[engine].run(program, f, trace="counters")
        wall += time.perf_counter() - t0
        times[engine] = res.time
        if engine == "direct":
            direct = res
    cell: dict[str, Any] = {
        "n_steps": sched.n_steps,
        "cross_volume": sched.cross_volume(spec),
        "supersteps": len(program),
        "time": times,
        # host-side only, never compared (everything else is charged)
        "wall_s": round(wall, 6),
    }
    if direct is not None:
        cell["messages"] = direct.counters.get("messages", 0)
        cell["communication"] = direct.breakdown.get("communication", 0.0)
    return cell


def run_dag_bench(
    v: int = 8,
    mu: int = 8,
    f: str = "x^0.5",
    smoke: bool = False,
    echo=None,
) -> dict[str, Any]:
    """Run the DAG matrix; return the JSON-serializable result document.

    Every recorded field except ``wall_s`` is a charged model cost —
    the measurements are identical across hosts, which is what lets
    :func:`repro.bench.check` compare them exactly instead of within a
    tolerance.
    """
    engines = DAG_SMOKE_ENGINES if smoke else DAG_ENGINES
    doc = bench_header(
        "sim_dag",
        "python -m repro bench --dag" + (" --smoke" if smoke else ""),
        v=v,
        mu=mu,
        f=f,
        engines=list(engines),
        workloads={},
    )
    for workload, params in DAG_WORKLOADS:
        spec = streaming_spec(workload, **params)
        entry: dict[str, Any] = {
            "workload": workload,
            "params": dict(params),
            "tasks": len(spec.tasks),
            "edges": len(spec.edges),
            "total_work": spec.total_work(),
            "total_volume": spec.total_volume(),
            "heuristics": {},
        }
        for heuristic in sorted(HEURISTICS):
            cell = _bench_cell(spec, heuristic, v, mu, f, engines)
            entry["heuristics"][heuristic] = cell
            if echo:
                echo(f"  {spec.name:28s} {heuristic:9s} "
                     f"messages {cell.get('messages', 0):>6d}  "
                     f"steps {cell['n_steps']:>3d}")
        greedy = entry["heuristics"].get("greedy", {})
        local = entry["heuristics"].get("locality", {})
        entry["locality_wins"] = bool(
            local.get("messages", 0) < greedy.get("messages", 0)
        )
        doc["workloads"][spec.name] = entry
    return doc
