"""The array body pass against the scalar one, on generated programs.

``kernel.run_bodies`` runs a program whose steps all carry an
``array_body`` (and which declares an ``array_schema``) one
whole-machine call per step, with one reused :class:`ArrayView`,
scalar charges summed as one float, one fused send check and fill-free
delivery.  Every generated program here has both body forms, so the
array pass must give exactly what the scalar bodies give: contexts,
the messages left in flight, every local time bit for bit and every
step's send arrays; and every engine that folds the pass must give the
result it gives for the same program run on its scalar bodies.

The programs draw random labels, dummy steps between bodies, sends
that permute each cluster (xor with an offset, rotation) of per-pid or
uniform payloads, steps that send nothing, sends left in flight behind
trailing dummies, and plain, numpy and per-processor charges in any
order.  Array steps that break the array contract — a second
full-width send, a send that is not a permutation — raise the errors
below on the engine path and on ``DBSPMachine.run``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dbsp.machine import DBSPMachine
from repro.dbsp.program import Program, Superstep
from repro.engines import build_program, resolve_access_function
from repro.sim import kernel

#: context values stay far below 2**63 through ``3x + payload + src``
MOD = 1_000_003
ENGINES = ("vec", "bt", "brent")


def destinations(pid, v: int, label: int, send: tuple):
    """Where ``pid`` (an int, or the pid array) sends: ``pid ^ c``, or
    ``pid`` rotated by ``r`` inside its ``label``-cluster."""
    kind, amount, _ = send
    size = v >> label
    if kind == "xor":
        return pid ^ (amount % size)
    return (pid & ~(size - 1)) | ((pid + amount) & (size - 1))


def per_processor(pid, x, k: int):
    return ((pid * k + x) % 7) * 0.125


class _Step:
    """One generated body step, as a scalar and as an array body.

    First the inbox is folded into ``x`` (with the sender, when
    ``use_src``), then the charges run in order, then ``x`` is sent
    (or, for a ``uniform`` send, the one int ``amount``).
    Charge kinds: ``"int"``/``"float"`` plain amounts, ``"numpy"`` the
    amount as a numpy scalar in the array body, ``"per"`` a
    per-processor amount and ``"read"`` a read of the local time.
    """

    def __init__(self, v, label, send, use_src, charges):
        self.v, self.label, self.send = v, label, send
        self.use_src, self.charges = use_src, charges

    def scalar(self, view) -> None:
        x = view.ctx["x"]
        for msg in view.inbox:
            x = (3 * x + msg.payload + (msg.src if self.use_src else 0)) % MOD
        view.ctx["x"] = x
        for kind, amount in self.charges:
            if kind == "per":
                view.charge(per_processor(view.pid, x, amount))
            elif kind == "read":
                assert view.local_time >= 1.0
            else:
                view.charge(amount)
        if self.send is not None:
            payload = self.send[1] if self.send[2] else x
            view.send(
                destinations(view.pid, self.v, self.label, self.send), payload
            )

    def array(self, view) -> None:
        x = view.ctx["x"]
        if view.inbox_payload is not None:
            got = view.inbox_payload + (view.inbox_src if self.use_src else 0)
            x = (3 * x + got) % MOD
        view.ctx["x"] = x
        for kind, amount in self.charges:
            if kind == "per":
                view.charge(per_processor(view.pids, x, amount))
            elif kind == "numpy":
                view.charge(np.float64(amount))
            elif kind == "read":
                assert (view.local_time >= 1.0).all()
            else:
                view.charge(amount)
        if self.send is not None:
            payload = self.send[1] if self.send[2] else x
            view.send(
                destinations(view.pids, self.v, self.label, self.send), payload
            )


charges = st.lists(
    st.one_of(
        st.tuples(st.just("int"), st.integers(0, 4)),
        st.tuples(
            st.sampled_from(("float", "numpy")),
            st.sampled_from((0.1, 0.2, 1e-17, 2.5, 0.0)),
        ),
        st.tuples(st.just("per"), st.integers(1, 5)),
        st.tuples(st.just("read"), st.none()),
    ),
    max_size=4,
)


@st.composite
def specs(draw):
    """``(log_v, seed, steps)``: each step ``None`` (a dummy, its label
    drawn apart) or ``(send, use_src, charges)``; a body step's last
    send may be left in flight behind trailing dummies."""
    log_v = draw(st.integers(1, 4))
    sends = st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(("xor", "rot")),
            st.integers(1, (1 << log_v) - 1),
            st.booleans(),
        ),
    )
    body = st.tuples(sends, st.booleans(), charges)
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, log_v),
            st.one_of(body, body, st.none()),
        ),
        min_size=1, max_size=7,
    ))
    return log_v, draw(st.integers(0, 1000)), steps


def build(spec, array: bool) -> Program:
    log_v, seed, steps = spec
    v = 1 << log_v
    supersteps = []
    for i, (label, step) in enumerate(steps):
        if step is None:
            supersteps.append(Superstep(label, None, name=f"dummy{i}"))
            continue
        send, use_src, step_charges = step
        body = _Step(v, label, send, use_src, step_charges)
        supersteps.append(Superstep(
            label, body.scalar, name=f"step{i}", array_body=body.array,
        ))
    return Program(
        v, 2, supersteps,
        make_context=lambda pid: {"x": (pid * 7919 + seed) % MOD},
        name="generated",
        array_schema={"x": "i8"} if array else None,
    )


def run_pass(program: Program):
    contexts = program.initial_contexts()
    pending = [[] for _ in range(program.v)]
    bodies = kernel.run_bodies(program, contexts, pending)
    return bodies, contexts, pending


@settings(max_examples=150, deadline=None)
@given(spec=specs())
def test_array_pass_is_the_scalar_pass(spec):
    array, scalar = build(spec, True), build(spec, False)
    assert kernel._array_mode_ok(array, [[]] * array.v)
    got, got_ctx, got_pending = run_pass(array)
    want, want_ctx, want_pending = run_pass(scalar)

    assert got_ctx == want_ctx
    assert [type(c["x"]) for c in got_ctx] == [int] * array.v
    # Message equality looks at the sender only: compare payloads too
    assert [[(m.src, m.payload) for m in box] for box in got_pending] == [
        [(m.src, m.payload) for m in box] for box in want_pending
    ]
    n, v = len(array.supersteps), array.v
    body = [not s.is_dummy for s in array.supersteps]
    assert (
        got.local.reshape(n, v)[body].tobytes()
        == want.local.reshape(n, v)[body].tobytes()
    )
    for s in range(n):
        assert (got.src[s] is None) == (want.src[s] is None), s
        if got.src[s] is not None:
            assert got.src[s].tolist() == want.src[s].tolist(), s
            assert got.dest[s].tolist() == want.dest[s].tolist(), s
    pid_type = np.min_scalar_type(v - 1)
    assert got.pattern(pid_type) == want.pattern(pid_type)


@settings(max_examples=25, deadline=None)
@given(spec=specs(), f=st.sampled_from(("x^0.5", "log")))
def test_engines_fold_the_array_pass_like_the_scalar_one(spec, f):
    array, scalar = build(spec, True), build(spec, False)
    for engine in ENGINES:
        got = repro.run(array, engine, f)
        want = repro.run(scalar, engine, f)
        assert got.to_json() == want.to_json(), engine
        assert got.contexts == want.contexts, engine
    # the folded baseline is a separate direct run's total
    direct = DBSPMachine(resolve_access_function(f))
    assert got.baseline_time == direct.run(array.with_global_sync()).total_time


def _sent_columns_program(array: bool) -> Program:
    """Step 0 sends the ``peer`` and ``x`` columns, then changes both in
    place; step 1 changes ``peer`` in place again before it reads the
    senders.  The messages are what was sent, as with scalar bodies."""
    v = 8

    def send_scalar(view):
        view.send(view.ctx["peer"], view.ctx["x"])
        view.ctx["x"] += 100
        view.ctx["peer"] ^= 1

    def send_array(view):
        view.send(view.ctx["peer"], view.ctx["x"])
        view.ctx["x"] += 100
        np.bitwise_xor(view.ctx["peer"], 1, out=view.ctx["peer"])

    def take_scalar(view):
        view.ctx["peer"] ^= 2
        (msg,) = view.inbox
        view.ctx["x"] = 3 * view.ctx["x"] + msg.payload + 1000 * msg.src

    def take_array(view):
        np.bitwise_xor(view.ctx["peer"], 2, out=view.ctx["peer"])
        view.ctx["x"] = (
            3 * view.ctx["x"] + view.inbox_payload + 1000 * view.inbox_src
        )

    return Program(
        v, 1,
        [
            Superstep(0, send_scalar, name="send", array_body=send_array),
            Superstep(0, take_scalar, name="take", array_body=take_array),
        ],
        make_context=lambda pid: {"x": 5 * pid, "peer": pid ^ 3},
        name="sent-columns",
        array_schema={"x": "i8", "peer": "i8"} if array else None,
    )


def test_a_sent_column_changed_in_place_keeps_its_messages():
    array, scalar = _sent_columns_program(True), _sent_columns_program(False)
    assert kernel._array_mode_ok(array, [[]] * array.v)
    got, got_ctx, _ = run_pass(array)
    want, want_ctx, _ = run_pass(scalar)
    assert got_ctx == want_ctx
    assert got.dest[0].tolist() == want.dest[0].tolist() == [
        pid ^ 3 for pid in range(array.v)
    ]


def test_brent_and_its_baseline_share_one_pattern():
    # brent's pass is the baseline's pass: the send pattern its fold
    # builds is the one the baseline's send-side memo keeps
    program = build_program("sort", 16)
    result = repro.run(program, "brent", "x^0.5")
    memo = program.with_global_sync()._send_memo
    assert memo[0] is result.native.body_pass._pattern[1]


# ------------------------------------------------------------- errors
V = 8


def broken(mu: int, sends) -> Program:
    """A send step whose array body makes the ``sends`` given (each a
    function of the pid array), then a step that reads the inbox."""

    def scalar_send(view):  # never the point here: the array path runs
        for dest in sends:
            view.send(int(dest(np.array([view.pid]))[0]), view.ctx["x"])

    def array_send(view):
        for dest in sends:
            view.send(dest(view.pids), view.ctx["x"])

    def read(view):
        view.ctx["x"] += sum(m.payload for m in view.inbox)

    def array_read(view):
        view.ctx["x"] = view.ctx["x"] + view.inbox_payload

    return Program(V, mu, [
        Superstep(0, scalar_send, name="bad", array_body=array_send),
        Superstep(0, read, name="read", array_body=array_read),
    ], make_context=lambda pid: {"x": pid}, array_schema={"x": "i8"})


MULTIPLE = (
    RuntimeError,
    "array step 'bad' delivered multiple messages to one processor — "
    "aligned array inboxes require at most one; use the scalar body for "
    "this program",
)


def degree(receives: int, mu: int) -> tuple[type, str]:
    return ValueError, (
        f"superstep 0 ('bad'): processor 0 receives {receives} messages > "
        f"mu = {mu} (buffers are part of the context, so h cannot exceed mu)"
    )


def flip(pids):
    return pids ^ 1


def pairs(pids):  # processor 2k gets two messages, 2k + 1 none
    return pids & ~1


def zeros(pids):
    return pids * 0


#: (mu, sends, error on an engine's pass, error on DBSPMachine.run):
#: the engines' passes check no degrees, so the array pass refuses
#: first; the direct run's degree check sees the pid-major
#: destinations before that
CASES = {
    "two permutations": (2, (flip, flip), MULTIPLE, MULTIPLE),
    "two permutations, mu=1": (
        1, (flip, flip),
        (ValueError, "exceeded the mu=1 outgoing message buffer in one "
                     "superstep"),
        (ValueError, "exceeded the mu=1 outgoing message buffer in one "
                     "superstep"),
    ),
    "a permutation, then pairs": (2, (flip, pairs), MULTIPLE, degree(3, 2)),
    "pairs within mu": (2, (pairs,), MULTIPLE, MULTIPLE),
    "pairs over mu": (1, (pairs,), MULTIPLE, degree(2, 1)),
    "all to one": (2, (zeros,), MULTIPLE, degree(V, 2)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_broken_array_steps_raise_todays_errors(case):
    mu, sends, on_pass, on_direct = CASES[case]
    program = broken(mu, sends)
    for engine in ENGINES:
        error, message = on_pass
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            repro.run(program, engine, "x^0.5")
    error, message = on_direct
    g = resolve_access_function("x^0.5")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        DBSPMachine(g).run(program.with_global_sync())


def test_a_short_payload_fails_at_the_send():
    # a payload must be full-width (or one scalar): a short one is
    # refused by the send that posts it, not one step later by delivery
    def scalar_send(view):
        view.send(view.pid ^ 1, view.pid)

    def array_send(view):
        view.send(view.pids ^ 1, view.pids[:-1])

    def array_read(view):
        view.ctx["x"] = view.ctx["x"] + view.inbox_payload

    program = Program(4, 1, [
        Superstep(0, scalar_send, name="short", array_body=array_send),
        Superstep(0, lambda view: None, name="read", array_body=array_read),
    ], make_context=lambda pid: {"x": pid}, array_schema={"x": "i8"})
    message = (
        "send is full-width: expected (4,) payloads or one scalar, got (3,)"
    )
    for engine in ENGINES:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            repro.run(program, engine, "x^0.5")
    g = resolve_access_function("x^0.5")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DBSPMachine(g).run(program.with_global_sync())
