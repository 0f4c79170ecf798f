"""Array primitives and the charge tape shared by the simulation kernels.

A round loop that charges as it goes interleaves *scheduling* (which
cluster runs when, what every elementary ``time +=`` charges) with
*execution* (running superstep bodies, moving messages).  The HMM
(``hmm``/``vec``), ``bt`` and ``brent`` simulations split the two: Theorems 5, 12 and 10 all charge a run as a
sequence of per-round charges fixed by the schedule, with holes for the
guest's local times, so each engine compiles its figure into a
body-independent :class:`Tape` once and folds it per run.  This module
holds what they share:

* :class:`ArrayView` — the whole-machine counterpart of
  :class:`~repro.dbsp.program.ProcView`, handed to
  ``Superstep.array_body`` over column-store contexts: one view per
  pass, reset for every step.  A step whose messages are delivered
  sent one permutation of the pids, so the next step's inbox is one
  scatter of the payloads, and ``inbox_src`` is built only when a body
  reads it;
* :func:`ranges_concat` — concatenated ``arange`` ranges (the
  gather/scatter index builder for assembling charge streams);
* :func:`interleave2` — pairwise interleaving of two equal-length
  arrays (the ``src``/``dst`` charge pattern of message delivery);
* :func:`deliver_sorted` — batched replacement for per-message
  ``bisect.insort`` delivery loops (used by the BT simulation's
  inline ablations), bit-identical in the resulting inbox order;
* :func:`run_bodies` — the superstep-major body pass: every superstep
  of a program run for every processor, in step order, returning the
  local times per ``(step, pid)`` and the send arrays per step.  The
  ``vec``, ``bt`` and ``brent`` simulations and the direct executor all
  execute bodies through it and keep only the *charging* to themselves;
* :class:`Tape` — an operand gather over a pool, a span table
  (:class:`~repro.obs.trace.Spans`, the table a
  :class:`~repro.obs.trace.Tracer` writes, recorded over stream
  positions) and counter constants; :func:`fold` (seeded take +
  ``cumsum``, one row per host for Brent) and :meth:`Tape.trace`,
  which reads the span table over the folded clock: the ``phases``
  breakdown in two ``bincount`` calls, and at ``full`` the spans;
  :func:`observed`, the breakdown and counters a result reports at
  each trace level;
* :data:`PLANS` — the one bounded LRU every engine keeps its compiled
  plans in, keyed ``(engine, key)`` (:func:`cached_plan`,
  :func:`plan_cache_info`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

from repro.dbsp.program import Message, ProcView, Program
from repro.obs.trace import EventRecorder  # noqa: F401  (importable here too)
from repro.obs.trace import (
    OTHER,
    PhaseEvents,
    SpanRecord,
    Spans,
    fold_phases,
    phase_events,
    span_records,
)

__all__ = [
    "ArrayView",
    "ranges_concat",
    "interleave2",
    "deliver_sorted",
    "BodyPass",
    "run_bodies",
    "fold",
    "Tape",
    "observed",
    "PlanCache",
    "PLANS",
    "cached_plan",
    "plan_cache_info",
]

#: below this many messages the numpy fixed cost exceeds the insort loop
_DELIVER_BATCH_MIN = 16


class ArrayView:
    """The resources a whole cluster sees during one superstep.

    The array counterpart of :class:`~repro.dbsp.program.ProcView`,
    covering every processor at once.  ``ctx`` maps context field names
    to length-``n`` column arrays (``n == len(pids)``);
    ``inbox_payload`` and ``inbox_src`` are aligned per-processor arrays
    (position ``k`` holds the payload and the sender of the message
    ``pids[k]`` received), or ``None`` when no messages were delivered.
    :func:`run_bodies` makes one view per pass and resets it for every
    step; charges go straight into the step's row of
    :attr:`BodyPass.local`.

    Contract for ``array_body`` authors: the body must be semantically
    identical to running the scalar ``body`` once per processor — same
    context updates, same messages, same ``charge`` calls.  Sends are
    full-width: every processor sends in each :meth:`send` call (partial
    sends need the scalar body), and each processor receives at most one
    message per superstep.  So a step whose messages are delivered made
    exactly one ``send``, and its destinations are a permutation of the
    pids: every processor gets exactly one message.  ``inbox_src`` is
    then the inverse permutation, built the first time a body reads it
    (sort and FFT read only the payloads).  ``v`` is the machine width,
    a power of two, as for every :class:`~repro.dbsp.program.Program`.
    The equivalence suites enforce the contract for the built-in
    algorithm library.
    """

    __slots__ = (
        "pids",
        "v",
        "mu",
        "label",
        "ctx",
        "inbox_payload",
        "_inbox_src",
        "_dest",
        "_local",
        "_acc",
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
        self.inbox_payload = inbox_payload
        self._inbox_src = inbox_src
        #: destinations of the delivered step, while ``inbox_src`` is unbuilt
        self._dest: np.ndarray | None = None
        #: the local times, once a charge or a read needs them per processor
        self._local = np.empty(len(pids), dtype=np.float64)
        #: every processor's local time while all charges were plain
        #: scalars (``None`` once ``_local`` holds them); a superstep
        #: costs at least 1
        self._acc: float | None = 1.0
        self._sends: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def inbox_src(self) -> np.ndarray | None:
        """The sender of each processor's message (see the class notes)."""
        if self._inbox_src is None and self._dest is not None:
            src = self._inbox_src = np.empty_like(self.pids)
            src[self._dest] = self.pids
        return self._inbox_src

    @property
    def local_time(self) -> np.ndarray:
        """Per-processor local computation time of the superstep."""
        acc = self._acc
        if acc is not None:
            self._local.fill(acc)
            self._acc = None
        return self._local

    def send(self, dest: np.ndarray, payload: np.ndarray) -> None:
        """Post one message per processor (``dest[k]`` from ``pids[k]``).

        ``payload`` holds one value per processor (leading axis), or is
        one scalar that every processor sends.  Both arrays are copied,
        so each message is what it was at the call, as with
        :meth:`ProcView.send <repro.dbsp.program.ProcView.send>`: a body
        may go on to change a context column it sent, in place, in this
        step or a later one.
        """
        dest = np.array(dest)
        if dest.shape != self.pids.shape:
            raise ValueError(
                f"send is full-width: expected {self.pids.shape} "
                f"destinations, got {dest.shape}"
            )
        payload = np.array(payload)
        if payload.ndim and payload.shape[:1] != self.pids.shape:
            raise ValueError(
                f"send is full-width: expected {self.pids.shape} payloads "
                f"or one scalar, got {payload.shape}"
            )
        # one test for all three rules: ``pid ^ dest`` shifted right by
        # log2 of the cluster size is nonzero exactly where ``dest`` is
        # negative (the sign bit), at least ``v`` (a power of two) or in
        # another ``label``-cluster (ProcView.send's check); which one
        # failed is worked out only then
        shift = int(self.v).bit_length() - 1 - self.label
        if np.count_nonzero((self.pids ^ dest) >> shift):
            if dest.min() < 0 or dest.max() >= self.v:
                raise ValueError(f"destination outside [0, {self.v})")
            raise ValueError(f"send crosses a {self.label}-cluster boundary")
        if len(self._sends) >= self.mu:
            raise ValueError(
                f"exceeded the mu={self.mu} outgoing message buffer "
                f"in one superstep"
            )
        self._sends.append((dest, payload))

    def charge(self, t: Any) -> None:
        """Account ``t`` additional units of local computation.

        ``t`` may be a scalar (uniform across the cluster) or a
        per-processor array.  A plain ``int`` or ``float`` (what the
        algorithm library passes) is compared with 0 directly and, while
        every charge so far was one, added to one Python float: the same
        IEEE additions, in the same order, as adding it to every
        processor's time.  Anything else is checked as an array.

        >>> view = ArrayView(np.arange(2), 2, 1, 0, {}, None, None)
        >>> view.charge(1)
        >>> view.charge(np.float64(0.5))
        >>> view.charge(np.array([0.0, 2.0]))
        >>> view.local_time.tolist()
        [2.5, 4.5]
        >>> view.charge(-1)
        Traceback (most recent call last):
        ...
        ValueError: cannot charge negative time -1
        """
        kind = type(t)
        if kind is int or kind is float:
            if t < 0:
                raise ValueError(f"cannot charge negative time {t!r}")
            if self._acc is not None:
                self._acc += t
                return
        elif (np.asarray(t) < 0).any():
            raise ValueError(f"cannot charge negative time {t!r}")
        local = self.local_time
        local += t


def ranges_concat(starts, lengths) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``.

    The standard repeat/cumsum construction — no Python loop, zero-length
    groups allowed.  This is how the kernel scatters per-round charge
    segments into one stream and lays each round's pid range into a
    schedule's round table.
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


class BodyPass:
    """What one superstep-major body pass produced.

    ``local[s * v + pid]`` is the local time processor ``pid`` charged
    in superstep ``s`` (left unset for dummy steps); ``src[s]`` /
    ``dest[s]`` are the endpoints of the messages sent in superstep
    ``s``, pid-major (the order the scalar outboxes produce), or
    ``None`` when the step sent none.
    """

    __slots__ = ("local", "src", "dest", "_pattern")

    def __init__(self, local: np.ndarray, src: list, dest: list) -> None:
        self.local = local
        self.src = src
        self.dest = dest
        #: ``(pid_type, pattern)`` of the last :meth:`pattern` call
        self._pattern: tuple[np.dtype, bytes] | None = None

    def select(self, steps) -> "BodyPass":
        """The pass restricted to ``steps`` (ascending step indices),
        renumbered ``0 .. len(steps) - 1`` — how a simulation maps its
        smoothed program's pass back onto the original steps."""
        n = len(self.src)
        local = self.local.reshape(n, -1) if n else self.local
        return BodyPass(
            local[steps].ravel(),
            [self.src[s] for s in steps],
            [self.dest[s] for s in steps],
        )

    def pattern(self, pid_type: np.dtype) -> bytes:
        """Every message the pass sent, as one compact byte string: the
        per-step send counts (``-1`` for a step that sent none), then
        each sending step's endpoints in ``pid_type`` (the smallest type
        that holds a pid; both send paths keep pids in ``[0, v)``).  The
        counts fix the length, so equal strings mean equal messages —
        what the brent layouts and the direct baseline's send side are
        memoized by.  Kept for the last ``pid_type``, so brent's fold
        and the baseline fold of one pass build it once."""
        memo = self._pattern
        if memo is not None and memo[0] == pid_type:
            return memo[1]
        counts = np.array([-1 if src is None else len(src) for src in self.src])
        ends = [
            end for src, dest in zip(self.src, self.dest) if src is not None
            for end in (src, dest)
        ]
        pattern = counts.tobytes()
        if ends:
            pattern += np.concatenate(ends).astype(pid_type).tobytes()
        self._pattern = (pid_type, pattern)
        return pattern


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
    call on one reused :class:`ArrayView`; otherwise the scalar bodies
    run per processor.

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
    """Array mode: column contexts, one ``array_body`` call per step.

    A step that sent made one full-width ``send`` whose destinations
    are a permutation of the pids (see :class:`ArrayView`), so its
    messages reach the next body step as one scatter of the payloads,
    with nothing to fill.
    """
    v = program.v
    cols = {
        name: np.array([ctx[name] for ctx in contexts], dtype=dt)
        for name, dt in program.array_schema.items()
    }
    pids = np.arange(v, dtype=np.int64)
    local = out.local.reshape(-1, v)
    view = ArrayView(pids, v, program.mu, 0, cols, None, None)
    sends = view._sends
    sent = None  # (dest, payload) sent but not yet delivered
    for s, st in enumerate(program.supersteps):
        if st.body is None:
            continue
        view.label = st.label
        view._local = local[s]
        view._acc = 1.0
        view._inbox_src = None
        if sent is not None:
            view._dest, payload = sent
            view.inbox_payload = np.empty(v, dtype=payload.dtype)
            view.inbox_payload[view._dest] = payload
            sent = None
        else:
            view._dest = view.inbox_payload = None
        sends.clear()
        st.array_body(view)
        if view._acc is not None:
            view._local.fill(view._acc)
        if not sends:
            continue
        if len(sends) > 1:
            # v messages per send into v inboxes: some processor gets
            # two.  The direct run's degree check sees them first,
            # pid-major: processor k's sends in call order, then k+1's
            if check_sends is not None:
                check_sends(s, np.stack([d for d, _ in sends], axis=1).ravel())
            raise _multiple_messages(st)
        dest, payload = sends[0]
        if check_sends is not None:
            check_sends(s, dest)
        # v messages reach every one of the v processors only as a
        # permutation
        if np.count_nonzero(np.bincount(dest, minlength=v)) != v:
            raise _multiple_messages(st)
        out.src[s] = pids
        out.dest[s] = dest
        sent = (dest, payload)

    # write columns back into the per-processor dicts (native scalars,
    # exactly what the scalar bodies would have stored)
    for name, col in cols.items():
        values = col.tolist()
        for pid in range(v):
            contexts[pid][name] = values[pid]
    if sent is not None:
        # the program ended with undelivered-to-a-body messages (its
        # trailing steps were dummies): one per processor, in its inbox
        # (a uniform payload was sent as one scalar)
        dest, payload = sent
        payloads = np.broadcast_to(payload, dest.shape).tolist()
        for d, sp, pp in zip(dest.tolist(), pids.tolist(), payloads):
            pending[d] = [Message(sp, pp)]


def _multiple_messages(st) -> RuntimeError:
    return RuntimeError(
        f"array step {st.name!r} delivered multiple messages to "
        f"one processor — aligned array inboxes require at most "
        f"one; use the scalar body for this program"
    )


def _run_bodies_scalar(program, contexts, pending, out, check_sends):
    """Per-processor mode: scalar bodies, step-major, batched delivery."""
    v = program.v
    local_flat, step_src, step_dest = out.local, out.src, out.dest
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


# ---------------------------------------------------------------- tapes
def fold(gather: np.ndarray, pool: np.ndarray, seed: float = 0.0) -> np.ndarray:
    """Fold a charge tape: the clock after each of its operands.

    The operands are ``pool[gather]``; ``clk[..., 0] = seed`` and
    ``clk[..., p]`` is the clock after the first ``p`` operands, added
    one at a time in stream order (``np.cumsum``), so every value is
    the serial ``t += c`` sum bit for bit.  A 2-D ``gather`` folds one
    stream per row (Brent's hosts), each from ``seed``.
    """
    clk = np.empty(gather.shape[:-1] + (gather.shape[-1] + 1,))
    clk[..., 0] = seed
    pool.take(gather, out=clk[..., 1:], mode="clip")
    return np.cumsum(clk, axis=-1, out=clk)


class Tape:
    """One compiled charge tape: a simulation's body-independent part.

    ``gather`` takes each stream position's operand from a run's pool
    (a priced value table, the holes' local times, message charges —
    laid out by the engine that compiled the tape) for :func:`fold`;
    ``spans`` is the tracer walk over its positions (``None`` until an
    engine compiles it); ``counts`` the counter amounts every run adds,
    in key-creation order.
    """

    __slots__ = ("gather", "spans", "counts", "_events")

    def __init__(self, gather: np.ndarray, spans: Spans | None = None,
                 counts: dict[str, int] | None = None) -> None:
        self.gather = gather
        self.spans = spans
        self.counts = counts if counts is not None else {}
        self._events: PhaseEvents | None = None

    def trace(self, clk, trace: str) -> tuple[dict[str, float], list[SpanRecord]]:
        """The phase totals and spans of the walk over ``clk`` at trace
        level ``trace``: the totals at ``phases`` and ``full``, folded
        from the walk compiled once per tape, and the spans at ``full``.
        """
        if trace not in ("phases", "full"):
            return {}, []
        if self._events is None:
            self._events = phase_events(self.spans)
        spans = span_records(self.spans, clk) if trace == "full" else []
        return fold_phases(self._events, clk), spans

    def add_counts(self, counters, **per_run: int) -> None:
        """Add the tape's counter amounts, plus ``per_run`` to those
        it holds (the run's message counts, say)."""
        for name, amount in self.counts.items():
            counters.add(name, amount + per_run.get(name, 0))


def observed(trace: str, totals, counters, phases, rounds: int | None = None):
    """The ``breakdown`` and ``counters`` a simulation reports at trace
    level ``trace``: the phase ``totals`` over every key of ``phases``
    (at ``phases`` and ``full``; an ``"other"`` total of zero left
    out), and the counter snapshot, ``rounds`` added (unless
    ``None``)."""
    if trace == "off":
        return {}, {}
    breakdown: dict[str, float] = {}
    if trace != "counters":
        breakdown = dict.fromkeys(phases, 0.0)
        breakdown.update(totals)
        if breakdown.get(OTHER) == 0.0:
            del breakdown[OTHER]
    if rounds is not None:
        counters.add("rounds", rounds)
    return breakdown, counters.snapshot()


class PlanCache:
    """A bounded LRU of compiled plans, with lifetime counters.

    :data:`PLANS` is the one process-wide instance (shared by every
    thread); :meth:`info` is its introspection hook for tests,
    ``/v1/metrics`` and the benchmark.
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


#: the compiled plans of the ``vec``, ``bt`` and ``brent`` simulations,
#: keyed ``(engine, key)``.  vec's schedules are f-free, so about 80
#: cover the benchmark's serve-cold sweep, where every request brings a
#: fresh f; bt and brent plans keep their access function in the key
PLANS = PlanCache(128)


def cached_plan(engine: str, key: Hashable, build: Callable[[], Any]) -> Any:
    """``engine``'s plan for ``key`` from :data:`PLANS`, built on a miss."""
    return PLANS.get((engine, key), build)


def plan_cache_info() -> dict:
    """Cached plan count plus lifetime hit/miss/eviction counters of
    :data:`PLANS` (process-wide, every engine)."""
    return PLANS.info()
