"""Worker-side task bodies for the process pool.

Every task is a pure function of its (pickled) arguments: workers never
see parent state, so a task's result depends only on the payload —
this is what makes the fan-out deterministic.  The parent collects
worker results **in task order**; see ``DESIGN.md: Host parallelism vs.
model parallelism``.

Task registry
-------------
``bench-workload``
    One full bench-matrix workload sweep, wall-clock measured inside the
    worker (serially), for the distributed bench runner.
``touch-cost``
    One Fact 1 / Fact 2 charged-cost cell (no wall measurement — charged
    costs are deterministic, so these cells parallelize freely).
``run-cell``
    One (engine, program, f, v) run returning the result document, with
    recorded spans when ``trace="full"`` (the parent tags them per
    worker via :func:`repro.obs.trace.tag_spans`).
``run-dag``
    One DAG request: re-parse the canonical spec, schedule it with the
    requested heuristic, compile to a superstep program and run it on
    the requested engine — same result-document shape as ``run-cell``.

Both run tasks take their program from the process's program cache
(:data:`repro.engines.PROGRAM_CACHE`): a program depends on the payload
only, so a cached one gives the same document as a fresh build.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["TASKS"]


# ---------------------------------------------------------- sweep workers
def _bench_workload(args: tuple) -> tuple:
    """One full bench workload sweep, wall-clocked inside this worker."""
    from repro.bench import Workload, sweep_workload

    fields, budget_s, smoke = args
    w = Workload(**fields)
    return (w.name, sweep_workload(w, budget_s, smoke))


def _touch_cost(args: tuple) -> dict[str, Any]:
    """One Fact 1 / Fact 2 charged-cost cell (deterministic, no wall)."""
    from repro.bt.machine import BTMachine
    from repro.bt.touching import bt_touch_all, bt_touching_bound
    from repro.engines import resolve_access_function
    from repro.hmm.algorithms import hmm_touching_bound
    from repro.hmm.machine import HMMMachine
    from repro.hmm.touching import hmm_touch_all
    from repro.obs.counters import Counters

    n, f_spec = args
    f = resolve_access_function(f_spec)
    hmm_counters = Counters()
    hmm = HMMMachine(f, n, counters=hmm_counters)
    hmm.mem[:n] = [1] * n
    hmm_cost = hmm_touch_all(hmm, n)
    bt_counters = Counters()
    bt = BTMachine(f, 2 * n, counters=bt_counters)
    bt.mem[n : 2 * n] = [1] * n
    bt_cost = bt_touch_all(bt, n)
    counters = hmm_counters.snapshot()
    for name, amount in bt_counters.snapshot().items():
        counters[name] = counters.get(name, 0) + amount
    return {
        "n": n,
        "f": f_spec,
        "hmm_cost": hmm_cost,
        "fact1_bound": hmm_touching_bound(f, n),
        "bt_cost": bt_cost,
        "fact2_bound": bt_touching_bound(f, n),
        "bt_advantage": hmm_cost / bt_cost if bt_cost else None,
        "counters": counters,
    }


def _run_cell(args: tuple) -> dict[str, Any]:
    """One (engine, program, f, v) run; spans included under trace=full."""
    from repro.engines import ENGINES, cached_program, resolve_access_function

    engine, program_name, v, mu, f_spec, trace = args
    program = cached_program(program_name, v, mu)
    f = resolve_access_function(f_spec)
    res = ENGINES[engine].run(program, f, trace=trace)
    doc = res.to_json(include_trace=False)
    doc["spans"] = res.trace
    return doc


def _run_dag(args: tuple) -> dict[str, Any]:
    """One DAG request: schedule, compile, run — a pure function of the
    canonical spec string, so the served document is identical wherever
    it computes (inline, pool worker, any shard).  The compiled program
    is cached per ``(spec_json, v, mu, heuristic)`` in
    :data:`repro.engines.PROGRAM_CACHE`, so a repeat shape is neither
    parsed nor scheduled again."""
    import json

    from repro.dag.compile import dag_program
    from repro.dag.spec import DagSpec
    from repro.engines import ENGINES, PROGRAM_CACHE, resolve_access_function

    engine, heuristic, spec_json, v, mu, f_spec, trace = args
    program = PROGRAM_CACHE.get(
        (spec_json, v, mu, heuristic),
        lambda: dag_program(
            DagSpec.from_json(json.loads(spec_json)), v=v, mu=mu,
            heuristic=heuristic,
        ),
    )
    f = resolve_access_function(f_spec)
    res = ENGINES[engine].run(program, f, trace=trace)
    doc = res.to_json(include_trace=False)
    doc["spans"] = res.trace
    return doc


TASKS: dict[str, Callable[[tuple], Any]] = {
    "bench-workload": _bench_workload,
    "touch-cost": _touch_cost,
    "run-cell": _run_cell,
    "run-dag": _run_dag,
}
