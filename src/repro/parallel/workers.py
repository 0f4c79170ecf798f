"""Worker-side task bodies for the process pool.

Every task is a pure function of its (pickled) arguments: workers never
see parent state, so a task's charged costs depend only on the payload —
this is what makes the fan-out deterministic.  The parent folds worker
results back **in task order**; see ``DESIGN.md: Host parallelism vs.
model parallelism`` for why that reproduces the serial charge sequence
bit-for-bit.

Task registry
-------------
``hmm-segment``
    Simulate one l1-cluster's whole segment of supersteps (all labels >=
    l1) on a sub-machine, returning final contexts/pending, the *charge
    tape* (every elementary charge in execution order), the round count
    and the event counters.  The parent replays the tape onto its own
    clock — float addition is not associative, so shipping a per-cluster
    *total* would not be bit-identical; shipping the elementary charges
    and re-folding them in cluster order is.
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
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from repro.dbsp.program import Message, ProcView, Program, Superstep

__all__ = ["TASKS", "_OffsetBody", "_OffsetArrayBody"]


class _OffsetArrayBody:
    """Array-body counterpart of :class:`_OffsetBody`.

    Wraps a superstep's ``array_body`` in the pid-translating
    :class:`~repro.sim.kernel.GlobalizedArrayView`, so the vectorized
    kernel inside a worker presents global pids to bodies while running
    on the cluster-local sub-machine.
    """

    __slots__ = ("body", "offset", "v_global", "label_shift")

    def __init__(self, body, offset: int, v_global: int, label_shift: int = 0):
        self.body = body
        self.offset = offset
        self.v_global = v_global
        self.label_shift = label_shift

    def __call__(self, view) -> None:
        from repro.sim.kernel import GlobalizedArrayView

        self.body(
            GlobalizedArrayView(
                view, self.offset, self.v_global, self.label_shift
            )
        )


class _GlobalizedView:
    """A cluster-local :class:`ProcView` presented under global ids.

    Translates pids on the way in (``pid``, inbox senders) and out
    (``send`` destinations); ``label`` is the global superstep label.
    """

    __slots__ = ("_view", "_offset", "pid", "v", "mu", "label", "ctx", "inbox")

    def __init__(self, view: ProcView, offset: int, v_global: int,
                 label_shift: int):
        self._view = view
        self._offset = offset
        self.pid = view.pid + offset
        self.v = v_global
        self.mu = view.mu
        self.label = view.label + label_shift
        self.ctx = view.ctx
        # messages are immutable, so offset 0 can share the list
        if offset:
            self.inbox = [Message(m.src + offset, m.payload) for m in view.inbox]
        else:
            self.inbox = view.inbox

    def send(self, dest: int, payload: Any = None) -> None:
        self._view.send(dest - self._offset, payload)

    def charge(self, t: float) -> None:
        self._view.charge(t)

    def received(self):
        return (msg.payload for msg in self.inbox)


class _OffsetBody:
    """Present a cluster-local view to a body that speaks global pids.

    The worker simulates processors ``offset .. offset + v_sub`` of a
    ``v_global``-processor guest as local pids ``0 .. v_sub``; program
    bodies, however, index processors globally.  Wraps each view in a
    :class:`_GlobalizedView`; ``label_shift`` restores the global
    superstep label (the HMM segment scheme shifts labels down by l1).
    """

    __slots__ = ("body", "offset", "v_global", "label_shift")

    def __init__(self, body, offset: int, v_global: int, label_shift: int = 0):
        self.body = body
        self.offset = offset
        self.v_global = v_global
        self.label_shift = label_shift

    def __call__(self, view) -> None:
        self.body(
            _GlobalizedView(view, self.offset, self.v_global, self.label_shift)
        )


def _localize_pending(
    pending: list[list[Message]], offset: int
) -> list[list[Message]]:
    if not offset:
        return pending
    return [
        [Message(m.src - offset, m.payload) for m in box] for box in pending
    ]


def _wrap_steps(
    steps: list[Superstep], offset: int, v_global: int, label_shift: int
) -> list[Superstep]:
    return [
        Superstep(
            s.label,
            None
            if s.body is None
            else _OffsetBody(s.body, offset, v_global, label_shift),
            name=s.name,
            array_body=None
            if s.array_body is None
            else _OffsetArrayBody(s.array_body, offset, v_global, label_shift),
        )
        for s in steps
    ]


# ------------------------------------------------------------ hmm-segment
def _hmm_segment(args: tuple) -> tuple:
    """Simulate one l1-cluster's segment; return state + charge tape."""
    from repro.sim.hmm_sim import FlatTape, SpanTape, _HMMSimRun, HMMSimulator
    from repro.sim.smoothing import smooth_program

    common, offset, contexts, pending, want_spans = args
    (f, c2, check, v_sub, mu, label_shift, steps, label_set, counters_on,
     v_global, array_schema, kernel) = pickle.loads(common)
    program = Program(
        v_sub,
        mu,
        _wrap_steps(steps, offset, v_global, label_shift),
        name="hmm-segment",
        array_schema=array_schema,
    )
    # parallel=1: never nest pools inside a worker (REPRO_JOBS would
    # otherwise re-resolve here)
    sim = HMMSimulator(
        f,
        c2=c2,
        check_invariants=check,
        trace="counters" if counters_on else "off",
        parallel=1,
        kernel=kernel,
    )
    # the shifted segment is already L-smooth for the shifted label set,
    # so smoothing is an identity transform here (no dummies, no label
    # upgrades) — asserted by construction in the parent
    smoothed = smooth_program(program, label_set)
    run = _HMMSimRun(
        sim,
        smoothed,
        initial_contexts=contexts,
        initial_pending=_localize_pending(pending, offset),
    )
    tape = SpanTape() if want_spans else FlatTape()
    run.tape_rec = tape
    run.execute()
    counters = run.counters.snapshot() if counters_on else {}
    return (run.contexts, run.pending, tape.data(), run.round_index, counters)


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
    from repro.engines import ENGINES, build_program, resolve_access_function

    engine, program_name, v, mu, f_spec, trace = args
    program = build_program(program_name, v, mu)
    f = resolve_access_function(f_spec)
    # parallel=1: the cell is already a worker task; never nest pools
    res = ENGINES[engine].run(program, f, trace=trace, parallel=1)
    doc = res.to_json(include_trace=False)
    doc["spans"] = res.trace
    return doc


def _run_dag(args: tuple) -> dict[str, Any]:
    """One DAG request: schedule, compile, run — a pure function of the
    canonical spec string, so the served document is identical wherever
    it computes (inline, pool worker, any shard)."""
    import json

    from repro.dag.compile import dag_program
    from repro.dag.spec import DagSpec
    from repro.engines import ENGINES, resolve_access_function

    engine, heuristic, spec_json, v, mu, f_spec, trace = args
    spec = DagSpec.from_json(json.loads(spec_json))
    program = dag_program(spec, v=v, mu=mu, heuristic=heuristic)
    f = resolve_access_function(f_spec)
    # parallel=1: the cell is already a worker task; never nest pools
    res = ENGINES[engine].run(program, f, trace=trace, parallel=1)
    doc = res.to_json(include_trace=False)
    doc["spans"] = res.trace
    return doc


TASKS: dict[str, Callable[[tuple], Any]] = {
    "hmm-segment": _hmm_segment,
    "bench-workload": _bench_workload,
    "touch-cost": _touch_cost,
    "run-cell": _run_cell,
    "run-dag": _run_dag,
}
