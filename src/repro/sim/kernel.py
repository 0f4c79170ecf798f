"""Array primitives shared by the vectorized simulation kernel.

The scalar engines interleave *scheduling* (which cluster runs when,
what every elementary ``time +=`` charges) with *execution* (running
superstep bodies, moving messages).  The vectorized kernel
(:mod:`repro.sim.hmm_vec`) splits the two: scheduling is compiled once
into a :class:`~repro.sim.hmm_vec.ChargePlan` and execution becomes a
handful of array operations.  This module holds the execution-side
primitives, shared with the BT simulation and the direct executor, and
the cache the compiled schedules live in:

* :class:`ArrayView` — the whole-machine counterpart of
  :class:`~repro.dbsp.program.ProcView`, handed to
  ``Superstep.array_body`` over column-store contexts;
* :func:`ranges_concat` — concatenated ``arange`` ranges (the
  gather/scatter index builder for assembling charge streams);
* :func:`interleave2` — pairwise interleaving of two equal-length
  arrays (the ``src``/``dst`` charge pattern of message delivery);
* :func:`deliver_sorted` — batched replacement for per-message
  ``bisect.insort`` delivery loops (used by the BT simulation's
  inline and transpose paths), bit-identical in the resulting inbox
  order;
* :func:`run_bodies` — the superstep-major body pass: every superstep
  of a program run for every processor, in step order, returning the
  local times per ``(step, pid)`` and the send arrays per step.  The
  ``vec``, ``bt`` and ``brent`` simulations and the direct executor all
  execute bodies through it and keep only the *charging* to themselves;
* :class:`PlanCache` — the bounded LRU the simulation kernels keep
  their compiled, body-independent schedules in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

import numpy as np

from repro.dbsp.program import Message, ProcView, Program

__all__ = [
    "ArrayView",
    "GlobalizedArrayView",
    "ranges_concat",
    "interleave2",
    "deliver_sorted",
    "BodyPass",
    "run_bodies",
    "PlanCache",
]

#: below this many messages the numpy fixed cost exceeds the insort loop
_DELIVER_BATCH_MIN = 16


class ArrayView:
    """The resources a whole cluster sees during one superstep.

    The array counterpart of :class:`~repro.dbsp.program.ProcView`: one
    view per superstep execution, covering every processor at once.
    ``ctx`` maps context field names to length-``n`` column arrays
    (``n == len(pids)``); ``inbox_src`` / ``inbox_payload`` are aligned
    per-processor arrays (position ``k`` holds the message received by
    ``pids[k]``, ``inbox_src[k] == -1`` when it received none), or
    ``None`` when no messages were delivered.

    Contract for ``array_body`` authors: the body must be semantically
    identical to running the scalar ``body`` once per processor — same
    context updates, same messages, same ``charge`` calls.  Sends are
    full-width: every processor sends in each :meth:`send` call (partial
    sends need the scalar body), and each processor receives at most one
    message per superstep (the aligned inbox arrays hold one).  The
    equivalence suites enforce the contract for the built-in algorithm
    library.
    """

    __slots__ = (
        "pids",
        "v",
        "mu",
        "label",
        "ctx",
        "inbox_src",
        "inbox_payload",
        "local_time",
        "_sends",
    )

    def __init__(
        self,
        pids: np.ndarray,
        v: int,
        mu: int,
        label: int,
        ctx: dict[str, np.ndarray],
        inbox_src: np.ndarray | None,
        inbox_payload: np.ndarray | None,
    ):
        self.pids = pids
        self.v = v
        self.mu = mu
        self.label = label
        self.ctx = ctx
        self.inbox_src = inbox_src
        self.inbox_payload = inbox_payload
        #: per-processor local computation time; every superstep costs >= 1
        self.local_time = np.ones(len(pids), dtype=np.float64)
        self._sends: list[tuple[np.ndarray, np.ndarray]] = []

    def send(self, dest: np.ndarray, payload: np.ndarray) -> None:
        """Post one message per processor (``dest[k]`` from ``pids[k]``)."""
        dest = np.asarray(dest)
        if dest.shape != self.pids.shape:
            raise ValueError(
                f"send is full-width: expected {self.pids.shape} "
                f"destinations, got {dest.shape}"
            )
        if dest.size and (dest.min() < 0 or dest.max() >= self.v):
            raise ValueError(f"destination outside [0, {self.v})")
        # same aligned-cluster check as ProcView.send, over the whole batch
        if np.any((self.pids ^ dest) >= (self.v >> self.label)):
            raise ValueError(
                f"send crosses a {self.label}-cluster boundary"
            )
        if len(self._sends) >= self.mu:
            raise ValueError(
                f"exceeded the mu={self.mu} outgoing message buffer "
                f"in one superstep"
            )
        self._sends.append((dest, np.asarray(payload)))

    def charge(self, t: Any) -> None:
        """Account ``t`` additional units of local computation.

        ``t`` may be a scalar (uniform across the cluster) or a
        per-processor array.
        """
        if np.any(np.asarray(t) < 0):
            raise ValueError(f"cannot charge negative time {t!r}")
        self.local_time += t


class GlobalizedArrayView:
    """Present global pids to an array body running on a sub-machine.

    The array analog of :class:`repro.parallel.workers._GlobalizedView`: worker
    processes simulate a pid slice ``offset .. offset + v_sub`` as local
    pids ``0 .. v_sub``, while program bodies index processors globally.
    Sends are translated back to local coordinates; the underlying
    view's cluster check still applies (cluster widths agree because the
    label is shifted by the same amount as the machine is narrowed).
    """

    __slots__ = ("_view", "_offset", "pids", "v", "mu", "label", "ctx",
                 "inbox_src", "inbox_payload")

    def __init__(self, view: ArrayView, offset: int, v_global: int,
                 label_shift: int = 0):
        self._view = view
        self._offset = offset
        self.pids = view.pids + offset
        self.v = v_global
        self.mu = view.mu
        self.label = view.label + label_shift
        self.ctx = view.ctx
        self.inbox_src = (
            view.inbox_src + offset if view.inbox_src is not None else None
        )
        self.inbox_payload = view.inbox_payload

    def send(self, dest, payload) -> None:
        self._view.send(np.asarray(dest) - self._offset, payload)

    def charge(self, t) -> None:
        self._view.charge(t)


def ranges_concat(starts, lengths) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``.

    The standard repeat/cumsum construction — no Python loop, zero-length
    groups allowed.  This is how the kernel scatters per-round charge
    segments into one stream and gathers per-round delivery slices out
    of step-major arrays.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    if not keep.all():
        starts = starts[keep]
        lengths = lengths[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    out = np.ones(ends[-1], dtype=np.int64)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(out)


def interleave2(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Interleave two equal-length arrays: ``[e0, o0, e1, o1, ...]``."""
    out = np.empty(2 * len(even), dtype=np.float64)
    out[0::2] = even
    out[1::2] = odd
    return out


def deliver_sorted(
    pending: list[list[Message]], outgoing: list[tuple[int, Message]]
) -> None:
    """Deliver ``(dest, msg)`` pairs into per-pid sorted inboxes, batched.

    Bit-identical replacement for the per-message loop

    .. code-block:: python

        for dest, msg in outgoing:
            insort(pending[dest], msg)

    Messages compare by ``src`` only, and both ``insort_right`` and a
    stable sort resolve equal-``src`` ties to insertion order, so
    grouping the batch with one stable ``np.lexsort`` over
    ``(src, dest)`` and splicing per destination reproduces exactly the
    inboxes the scalar loop builds — in O(m log m) array work instead of
    m bisections and list shifts.
    """
    m = len(outgoing)
    if m < _DELIVER_BATCH_MIN:
        from bisect import insort

        for dest, msg in outgoing:
            insort(pending[dest], msg)
        return
    dests = np.fromiter(
        (d for d, _ in outgoing), dtype=np.int64, count=m
    )
    srcs = np.fromiter(
        (msg.src for _, msg in outgoing), dtype=np.int64, count=m
    )
    # stable: equal (dest, src) pairs keep batch order, like insort_right
    order = np.lexsort((srcs, dests))
    d_sorted = dests[order]
    uniq, starts = np.unique(d_sorted, return_index=True)
    starts = starts.tolist()
    starts.append(m)
    order = order.tolist()
    for i, dest in enumerate(uniq.tolist()):
        batch = [outgoing[k][1] for k in order[starts[i] : starts[i + 1]]]
        box = pending[dest]
        if box:
            # rare path: the inbox already holds messages — splice and
            # re-sort (stable, so existing-before-new on equal src, the
            # insort_right tie order)
            box.extend(batch)
            box.sort()
        else:
            pending[dest] = batch


class BodyPass(NamedTuple):
    """What one superstep-major body pass produced.

    ``local[s * v + pid]`` is the local time processor ``pid`` charged
    in superstep ``s`` (left unset for dummy steps); ``src[s]`` /
    ``dest[s]`` are the endpoints of the messages sent in superstep
    ``s``, pid-major (the order the scalar outboxes produce), or
    ``None`` when the step sent none.
    """

    local: np.ndarray
    src: list
    dest: list


def run_bodies(
    program: Program,
    contexts: list[dict],
    pending: list[list[Message]],
    check_sends: Callable[[int, np.ndarray], None] | None = None,
) -> BodyPass:
    """Run every superstep of ``program`` for every processor, step-major.

    Processor bodies within a superstep are independent and messages
    are delivered at the next superstep, so running step ``s`` for all
    pids before step ``s + 1`` yields exactly the contexts and inboxes
    of any schedule that keeps each processor's supersteps in order —
    the round schedules of the simulations included.  ``contexts`` and
    ``pending`` are updated in place; ``pending`` ends holding the
    messages no body consumed.

    Array mode — the program declares an ``array_schema``, every
    non-dummy step carries an ``array_body`` and no message is in
    flight at the start — runs each step as one whole-machine numpy
    call; otherwise the scalar bodies run per processor.

    ``check_sends(s, dest)``, when given, sees the destinations of each
    step that sent messages right after the step ran, and may raise
    (the direct executor's ``h <= mu`` degree check).
    """
    n = len(program.supersteps)
    out = BodyPass(
        np.empty(n * program.v, dtype=np.float64), [None] * n, [None] * n
    )
    if _array_mode_ok(program, pending):
        _run_bodies_array(program, contexts, pending, out, check_sends)
    else:
        _run_bodies_scalar(program, contexts, pending, out, check_sends)
    return out


def _array_mode_ok(program: Program, pending: list[list[Message]]) -> bool:
    if program.array_schema is None:
        return False
    if any(
        s.array_body is None for s in program.supersteps if s.body is not None
    ):
        return False
    # a run that starts with in-flight messages (``initial_pending``)
    # would need list->array inbox bridging; take the scalar-body path
    # instead
    return all(not box for box in pending)


def _run_bodies_array(program, contexts, pending, out, check_sends):
    """Array mode: column contexts, one ``array_body`` call per step."""
    v = program.v
    mu = program.mu
    local_flat, step_src, step_dest = out
    cols = {
        name: np.array([ctx[name] for ctx in contexts], dtype=dt)
        for name, dt in program.array_schema.items()
    }
    pids = np.arange(v, dtype=np.int64)
    unconsumed = None  # (src, dest, payload) sent but not yet delivered
    for s, st in enumerate(program.supersteps):
        if st.body is None:
            continue
        if unconsumed is not None:
            u_src, u_dest, u_payload = unconsumed
            in_src = np.full(v, -1, dtype=np.int64)
            in_src[u_dest] = u_src
            in_payload = np.zeros(v, dtype=u_payload.dtype)
            in_payload[u_dest] = u_payload
            unconsumed = None
        else:
            in_src = in_payload = None
        view = ArrayView(pids, v, mu, st.label, cols, in_src, in_payload)
        st.array_body(view)
        local_flat[s * v : (s + 1) * v] = view.local_time
        sends = view._sends
        if not sends:
            continue
        if len(sends) == 1:
            dest, payload = sends[0]
            src = pids
        else:
            # pid-major interleave: processor k's sends in call order,
            # then processor k+1's — the scalar outbox order
            dest = np.stack([d for d, _ in sends], axis=1).ravel()
            payload = np.stack([p for _, p in sends], axis=1).ravel()
            src = np.repeat(pids, len(sends))
        if check_sends is not None:
            check_sends(s, dest)
        if np.bincount(dest, minlength=v).max() > 1:
            raise RuntimeError(
                f"array step {st.name!r} delivered multiple messages to "
                f"one processor — aligned array inboxes require at most "
                f"one; use the scalar body for this program"
            )
        step_src[s] = src
        step_dest[s] = dest
        unconsumed = (src, dest, payload)

    # write columns back into the per-processor dicts (native scalars,
    # exactly what the scalar bodies would have stored)
    for name, col in cols.items():
        values = col.tolist()
        for pid in range(v):
            contexts[pid][name] = values[pid]
    if unconsumed is not None:
        # the program ended with undelivered-to-a-body messages (its
        # trailing steps were dummies): group them into sorted inboxes
        src, dest, payload = unconsumed
        order = np.argsort(dest, kind="stable")
        d_sorted = dest[order].tolist()
        s_sorted = src[order].tolist()
        p_sorted = payload[order].tolist()
        box: list[Message] = []
        prev = None
        for d, sp, pp in zip(d_sorted, s_sorted, p_sorted):
            if d != prev:
                box = pending[d] = []
                prev = d
            box.append(Message(sp, pp))


def _run_bodies_scalar(program, contexts, pending, out, check_sends):
    """Per-processor mode: scalar bodies, step-major, batched delivery."""
    v = program.v
    local_flat, step_src, step_dest = out
    # one recycled view: pid/ctx/inbox/label/local_time are reset before
    # every body call
    view = ProcView(0, v, program.mu, 0, {}, [])
    outbox = view.outbox
    clear = outbox.clear
    for s, st in enumerate(program.supersteps):
        if st.body is None:
            continue
        body = st.body
        view.label = st.label
        base = s * v
        src_list: list[int] = []
        dest_list: list[int] = []
        deliveries: list[tuple[int, Message]] = []
        for pid in range(v):
            view.pid = pid
            view.ctx = contexts[pid]
            view.inbox = pending[pid]
            pending[pid] = []
            view.local_time = 1.0
            body(view)
            local_flat[base + pid] = view.local_time
            if outbox:
                for dest, msg in outbox:
                    src_list.append(msg.src)
                    dest_list.append(dest)
                    deliveries.append((dest, msg))
                clear()
        if src_list:
            step_src[s] = np.array(src_list, dtype=np.int64)
            step_dest[s] = np.array(dest_list, dtype=np.int64)
            if check_sends is not None:
                check_sends(s, step_dest[s])
        # deliveries are pid-major, so appending keeps every inbox
        # sorted by sender — the invariant insort maintains serially
        for dest, msg in deliveries:
            pending[dest].append(msg)


class PlanCache:
    """A bounded LRU of compiled plans, with lifetime counters.

    The ``vec``, ``bt`` and ``brent`` simulations each compile a
    body-independent plan per schedule key and keep the ``maxsize`` most
    recently used ones (process-wide, shared by every thread);
    :meth:`info` is their introspection hook for tests, ``/v1/metrics``
    and the benchmark.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._plans: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The plan cached under ``key``, built and cached on a miss.

        ``build`` runs outside the lock, so two threads missing on one
        key may both build it (plans are pure functions of the key).  A
        key that cannot be hashed (a custom access function without
        value equality) builds a fresh plan every time, uncached.
        """
        try:
            hash(key)
        except TypeError:
            with self._lock:
                self.misses += 1
            return build()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        plan = build()
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def info(self) -> dict:
        """Cached plan count plus lifetime hit/miss/eviction counters."""
        with self._lock:
            return {
                "size": len(self._plans),
                "max": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
