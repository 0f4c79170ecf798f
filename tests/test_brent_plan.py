"""The Brent charge plan against the host-by-host scheme it compiles.

The ``brent`` engine runs every body once, superstep-major, and folds
the Theorem 10 charges from a cached plan.  On generated programs —
machine widths 4 to 64, several ``mu``, access functions and host
widths, data-dependent local times and message counts, dummy steps —
it must agree with:

* a reference that runs the scheme host by host, one scalar Section 3
  simulation per host and fine run: ``time`` and run records bitwise,
  counters, breakdown and spans item by item;
* the scalar HMM simulation at ``v' = 1`` (``time`` bitwise, counters,
  contexts) and the direct D-BSP execution at ``v' = v``;
* the direct execution's contexts at every host width.

Two programs that share a plan but send to different processors, run
in turn, each get their own charges.  A body that sends across a
cluster boundary still raises ``ValueError``.
"""

from __future__ import annotations

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsp.machine import DBSPMachine
from repro.dbsp.program import Message, ProcView, Program, Superstep
from repro.functions import CostTable, LogarithmicAccess, PolynomialAccess
from repro.obs.counters import Counters
from repro.obs.trace import Tracer
from repro.parallel.workers import _OffsetBody
from repro.sim.brent import BRENT_PHASES, BrentSimulator
from repro.sim.hmm_sim import HMMSimulator

FUNCTIONS = [PolynomialAccess(0.3), PolynomialAccess(0.5), LogarithmicAccess()]
_MOD = (1 << 31) - 1


class _Scatter:
    """Absorb the inbox, charge a data-dependent local time, then send a
    data-dependent number (0 to ``fanout``) of messages inside the
    step's cluster — so hosts differ in local times and message counts."""

    def __init__(self, label: int, salt: int, fanout: int):
        self.label = label
        self.salt = salt
        self.fanout = fanout

    def __call__(self, view) -> None:
        w = view.ctx["w"]
        for msg in view.inbox:
            w = (w * 31 + msg.payload + msg.src) % _MOD
        view.ctx["w"] = w
        view.charge((w % 11) / 3)  # inexact: the sums' order shows
        csize = view.v >> self.label
        base = view.pid - view.pid % csize
        for k in range((w + self.salt) % (self.fanout + 1)):
            view.send(base + (view.pid - base + 1 + k) % csize, (w + k) % _MOD)


@st.composite
def programs(draw, min_log_v: int = 2, max_log_v: int = 6) -> Program:
    log_v = draw(st.integers(min_log_v, max_log_v))
    mu = draw(st.sampled_from([1, 2, 4, 8]))
    steps = []
    for idx, label in enumerate(
        draw(st.lists(st.integers(0, log_v), min_size=1, max_size=8))
    ):
        if draw(st.booleans()) and draw(st.booleans()):
            steps.append(Superstep(label, None, name=f"dummy{idx}"))
        else:
            steps.append(Superstep(
                label, _Scatter(label, draw(st.integers(0, 99)), mu),
                name=f"scatter{idx}",
            ))
    seed = draw(st.integers(0, 1000))
    return Program(
        1 << log_v, mu, steps,
        make_context=lambda pid: {"w": (pid * 2654435761 + seed) % _MOD},
        name=f"generated(seed={seed})",
    )


def _host_by_host(g, v_host: int, program: Program, trace: str):
    """The Theorem 10 scheme run one host after another: the coarse
    supersteps guest by guest, every fine run as one scalar Section 3
    simulation per host processor.  Returns the charged fields."""
    prog = program.with_global_sync()
    v, mu, steps = prog.v, prog.mu, prog.supersteps
    per_host = v // v_host
    log_vh = v_host.bit_length() - 1
    table = CostTable.shared(g, max(mu * per_host, 2))
    cycle = [2.0 * (table.range_cost(k * mu, (k + 1) * mu)
                    + table.range_cost(0, mu)) for k in range(per_host)]
    filing = [table.access(k * mu) for k in range(per_host)]
    contexts = prog.initial_contexts()
    pending: list[list[Message]] = [[] for _ in range(v)]
    counters = Counters()
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], record=(trace == "full"))
    attrs = tracer.record

    def charge(name: str, amount: float) -> None:
        tracer.open(name, name)
        clock[0] += amount
        tracer.close()

    runs = []
    pos = 0
    while pos < len(steps):
        coarse = steps[pos].label < log_vh
        end = pos
        while end < len(steps) and (steps[end].label < log_vh) == coarse:
            end += 1
        before = clock[0]
        if not coarse:
            tracer.open("fine-run", "fine",
                        {"first_step": pos, "n_steps": end - pos}
                        if attrs else None)
            host_times = []
            for host in range(v_host):
                off = host * per_host
                local = Program(per_host, mu, [
                    Superstep(s.label - log_vh, s.body and _OffsetBody(s.body, off, v))
                    for s in steps[pos:end]
                ])
                res = HMMSimulator(g, trace="counters", kernel="scalar",
                                   parallel=1).simulate(
                    local,
                    initial_contexts=contexts[off:off + per_host],
                    initial_pending=[
                        [Message(m.src - off, m.payload) for m in pending[p]]
                        for p in range(off, off + per_host)
                    ],
                )
                host_times.append(res.time)
                counters.merge(res.counters)
                for k, box in enumerate(res.pending):
                    pending[off + k] = [Message(m.src + off, m.payload)
                                        for m in box]
            clock[0] += max(host_times)
            tracer.close()
        for s in range(pos, end) if coarse else ():
            step = steps[s]
            tracer.open("coarse-superstep", None,
                        {"superstep": s, "label": step.label}
                        if attrs else None)
            local_times = [1.0] * v_host
            sent = [0] * v_host
            boxes: list[list] = [[] for _ in range(v_host)]
            for host in range(v_host if step.body else 0):
                t = 0.0
                for k in range(per_host):
                    pid = host * per_host + k
                    view = ProcView(pid, v, mu, step.label, contexts[pid],
                                    pending[pid])
                    pending[pid] = []
                    step.body(view)
                    t += cycle[k]
                    t += view.local_time
                    sent[host] += len(view.outbox)
                    for dest, msg in view.outbox:
                        boxes[dest // per_host].append((dest, msg))
                local_times[host] = t
            h = max(sent + [len(box) for box in boxes])
            charge("compute", max(local_times))
            charge("communication",
                   h * g(mu * per_host * (v_host >> step.label)))
            most = 0.0
            for box in boxes:
                t = 0.0
                for dest, msg in box:
                    t += filing[dest % per_host]
                    insort(pending[dest], msg)
                most = max(most, t)
            charge("filing", most + 1.0)
            counters.add("messages", sum(sent))
            tracer.close()
        runs.append(("coarse" if coarse else "fine", pos, end - pos,
                     clock[0] - before))
        pos = end
    breakdown = dict.fromkeys(BRENT_PHASES, 0.0)
    breakdown.update(tracer.phase_totals())
    return {
        "time": clock[0].hex(),
        "runs": runs,
        "counters": counters.snapshot(),
        "breakdown": {k: x.hex() for k, x in breakdown.items()},
        "spans": [span.to_json() for span in tracer.spans],
        "contexts": contexts,
    }


def _fields(res) -> dict:
    return {
        "time": res.time.hex(),
        "runs": [(r.kind, r.first_step, r.n_steps, r.host_time)
                 for r in res.runs],
        "counters": res.counters,
        "breakdown": {k: x.hex() for k, x in res.breakdown.items()},
        "spans": [span.to_json() for span in res.spans],
        "contexts": res.contexts,
    }


@given(
    program=programs(),
    g=st.sampled_from(FUNCTIONS),
    data=st.data(),
    trace=st.sampled_from(["phases", "full"]),
)
@settings(max_examples=100, deadline=None)
def test_plan_matches_host_by_host_scheme(program, g, data, trace):
    v_host = 1 << data.draw(st.integers(0, program.log_v - 1))
    got = BrentSimulator(g, v_host=v_host, trace=trace).simulate(program)
    assert _fields(got) == _host_by_host(g, v_host, program, trace)


@given(program=programs(), g=st.sampled_from(FUNCTIONS))
@settings(max_examples=40, deadline=None)
def test_one_host_is_the_hmm_simulation(program, g):
    brent = BrentSimulator(g, v_host=1, trace="counters").simulate(program)
    hmm = HMMSimulator(g, trace="counters", kernel="scalar").simulate(program)
    assert brent.time.hex() == hmm.time.hex()
    assert brent.counters == hmm.counters
    assert brent.contexts == hmm.contexts


@given(program=programs(), g=st.sampled_from(FUNCTIONS))
@settings(max_examples=40, deadline=None)
def test_v_hosts_is_the_guest_machine(program, g):
    brent = BrentSimulator(g, v_host=program.v).simulate(program)
    guest = DBSPMachine(g).run(program.with_global_sync())
    assert brent.time.hex() == guest.total_time.hex()


@given(program=programs(), g=st.sampled_from(FUNCTIONS))
@settings(max_examples=30, deadline=None)
def test_contexts_match_direct_at_every_host_width(program, g):
    want = DBSPMachine(g).run(program.with_global_sync()).contexts
    for log_vh in range(program.log_v + 1):
        got = BrentSimulator(g, v_host=1 << log_vh).simulate(program)
        assert got.contexts == want, f"v'={1 << log_vh}"


@given(
    log_v=st.integers(2, 6),
    data=st.data(),
    g=st.sampled_from(FUNCTIONS),
)
@settings(max_examples=30, deadline=None)
def test_cross_cluster_send_raises(log_v, data, g):
    v = 1 << log_v
    label = data.draw(st.integers(1, log_v))
    v_host = 1 << data.draw(st.integers(0, log_v - 1))

    def leak(view):
        # one step past the end of my label-cluster
        csize = view.v >> label
        view.send((view.pid - view.pid % csize + csize) % view.v, 0)

    prog = Program(v, 2, [Superstep(label, leak, name="leak")])
    with pytest.raises(ValueError):
        BrentSimulator(g, v_host=v_host).simulate(prog)


class _Gather:
    """Every processor sends one message to the ``target``-th processor
    of its cluster and keeps the sum of what it receives."""

    def __init__(self, label: int, target: int):
        self.label = label
        self.target = target

    def __call__(self, view) -> None:
        view.ctx["w"] += sum(view.received())
        csize = view.v >> self.label
        view.send(view.pid - view.pid % csize + self.target % csize, view.pid)


def test_plan_shared_by_programs_that_send_differently():
    """Programs with one label sequence share a plan; the message
    charges kept with it must follow whichever program runs, even when
    every step sends as many messages as in the other program."""
    g = PolynomialAccess(0.5)

    def program(target: int) -> Program:
        return Program(
            16, 4,
            [Superstep(label, _Gather(label, target))
             for label in (0, 3, 1, 4, 2, 4, 1)],
            make_context=lambda pid: {"w": pid},
        )

    first, second = program(0), program(1)
    want = {id(p): _host_by_host(g, 4, p, "counters") for p in (first, second)}
    assert want[id(first)]["time"] != want[id(second)]["time"]
    for prog in (first, second, first, second):
        got = BrentSimulator(g, v_host=4, trace="counters").simulate(prog)
        assert got.time.hex() == want[id(prog)]["time"]
        assert got.counters == want[id(prog)]["counters"]
