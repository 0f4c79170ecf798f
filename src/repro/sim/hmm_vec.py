"""The Figure 1 round scheduler, compiled: how every HMM simulation runs.

The key observation: for a fixed machine shape, the Figure 1 schedule
— which cluster runs in which round, which context every cycling and
swap charge touches, the *order* of every elementary ``time +=`` —
depends only on the smoothed label sequence, never on what the
superstep bodies compute; the access function only sets the price of
each charge.  So the scheduler's round loop runs once per shape, as a
walk of its bookkeeping (:func:`_build_schedule`, which asserts
Theorem 4's invariants on every round), compiled into a
:class:`ChargePlan` (cached per ``(v, mu, labels, dummy flags)``, with
its charges as codes into a small value table and its swaps as slot
ranges, in the kernel's one plan cache), priced per access function by
a few array gathers (:class:`Prices`, the latest two kept on the plan),
bodies are run superstep-major (valid because processor bodies within a
superstep are independent — the direct engine already executes
step-major and passes the equivalence suites), and the charged clock is
the fold of a :class:`~repro.sim.kernel.Tape` per delivery pattern: one
gather of the priced charge templates, the bodies' local times and the
batched delivery charges, then a single ``np.cumsum``
(:func:`~repro.sim.kernel.fold`), which reproduces the serial
``t += c`` sequence of a simulator charging one access at a time
bit-for-bit, including every intermediate clock value.  Brent's fine
runs assemble their per-host tapes here too.  The walk takes an
optional per-round hook, which an uncached walk gives the simulator's
Figure 2 snapshots and its full contiguity check.

Observability is exact in the same sense: the counters are the totals
of a per-charge run's ``add`` calls (amounts *and* key-creation order).
The span structure of a run — which open/leaf/close calls a per-charge
round loop makes, at which stream positions — is fixed by the plan and
the per-round message counts, so it is compiled into the tape's span
table — the table a live :class:`~repro.obs.trace.Tracer` writes — on
the pattern's first traced run, and read over the folded clock with no
tracer call per span: at ``phases`` the breakdown is two
``np.bincount`` folds (:func:`~repro.obs.trace.fold_phases`), and at
``full`` the spans come from the same table
(:func:`~repro.obs.trace.span_records`).  The per-charge loop itself is
kept under ``tests/`` as the oracle these results are compared ``==``
against.

Bodies run in the shared superstep-major pass
(:func:`repro.sim.kernel.run_bodies`), in one of its two modes:

* **array mode** — every non-dummy superstep carries an ``array_body``
  and the program declares an ``array_schema``: contexts become column
  arrays, bodies run as whole-machine numpy programs, and message
  delivery is an aligned scatter.  This is the fast path.
* **per-processor mode** — scalar bodies are executed step-major with
  the ordinary :class:`~repro.dbsp.program.ProcView`; charging and
  delivery batching are still vectorized.  Any program runs this way
  (it is also the fallback when a run starts with in-flight messages,
  e.g. a simulation given ``initial_pending``).

The pass, mapped back onto the original supersteps, is kept on the
result (``HMMSimResult.body_pass``): :func:`repro.run` folds the direct
baseline from it instead of running the bodies a second time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.functions import CostTable
from repro.obs.trace import CLOSE, LEAF, OPEN, Spans
from repro.sim.kernel import (
    Tape,
    cached_plan,
    fold,
    interleave2,
    plan_cache_info,
    ranges_concat,
    run_bodies,
)

__all__ = ["ChargePlan", "execute", "plan_cache_info"]

#: prices a schedule keeps, for its most recent access functions: a
#: repeated call finds its prices, and a fresh f on a known shape (a
#: serve-cold request) adds one small entry in place of the oldest
_PRICES_KEPT = 2


class Prices(NamedTuple):
    """A schedule's charges under one access function: a few values
    per slot, so a schedule can keep several."""

    values: np.ndarray  #: the value table ``a_code`` indexes
    C_all: np.ndarray  #: one charge per swap, in round order
    wc: np.ndarray  #: per slot: the cost of its block's first word


class ChargePlan:
    """The compiled Fig. 1 schedule of one HMM simulation run, with the
    access function left out.

    Per round: the superstep simulated, the cluster (``first``/``csize``),
    the fixed charge template as codes into a value table (``a_code``:
    code ``k < v`` is slot ``k``'s block cost, code ``v`` a hole for a
    local time, code ``v + 1 + label`` a dummy's unit sync charge
    ``v >> label``) and the Step 4 swaps as slot triples
    (``swaps[:, i] = (a, b, length)``).  Plus the hole indices needed
    to assemble a run's charge stream; the round table
    (``round_of[s * v + pid]``: the round that simulates ``pid``'s
    cluster in step ``s``, the inverse of ``local_src``) and each
    step's slot mask (``slot_mask[s] = |C| - 1``), which place a
    message in its round and its endpoints in the top slots; the stream
    layout of the last delivery pattern (``pattern_cache``: one
    :class:`~repro.sim.kernel.Tape`, keyed by the bytes of its
    per-round message charge counts ``b_len``); the prices of the
    access functions it last ran under; and the counter amounts of a
    run (``counts``), messages left out.  Cached per ``(v, mu, labels,
    dummy flags)``: :func:`_price` turns it into one function's
    charges.
    """

    __slots__ = (
        "v", "mu", "n_steps", "R",
        "step", "first", "csize", "label", "dummy",
        "a_len", "a_code", "fixed_values", "local_pos", "local_src",
        "c_len", "swaps",
        "round_of", "slot_mask", "pattern_cache", "prices", "counts",
    )


def _index_array(values, bound: int) -> np.ndarray:
    """``values`` in the smallest unsigned type that holds ``bound``."""
    return np.asarray(values, dtype=np.min_scalar_type(bound))


def _step4_swaps(labels, s, first, csize) -> list:
    """The Step 4 swaps after the round that simulated step ``s`` for the
    cluster ``C = [first, first + csize)``, when step ``s + 1`` is
    coarser, as slot triples ``(a, b, length)``: ``C`` (on top) with
    ``C_0``, parked at ``C``'s home, unless ``C`` is ``C_0``; then
    ``C_0`` with ``C_{j+1}``, at its home, unless ``C`` closes the
    cycle."""
    b = 1 << (labels[s] - labels[s + 1])
    j = first // csize & (b - 1)  # C's place in its parent cluster
    return [(0, at * csize, csize) for at in (j, j + 1) if 0 < at < b]


def _end_round(slot_to_pid, next_step, labels, s, first, csize) -> list:
    """Steps 3-4 of the round that simulated step ``s`` for the cluster
    ``[first, first + csize)`` on top: the cluster moves past ``s``, and
    when the next step is coarser, the swaps of :func:`_step4_swaps`
    are made on ``slot_to_pid``.  Returns the swaps."""
    next_step[first : first + csize] = [s + 1] * csize
    if s + 1 == len(labels) or labels[s + 1] >= labels[s]:
        return []
    swaps = _step4_swaps(labels, s, first, csize)
    for _, at, _ in swaps:
        top = slot_to_pid[:csize]
        slot_to_pid[:csize] = slot_to_pid[at : at + csize]
        slot_to_pid[at : at + csize] = top
    return swaps


def _build_schedule(v, mu, steps, on_round=None) -> ChargePlan:
    """Walk the Figure 1 scheduler's bookkeeping (no bodies, no clock,
    no access function) into the run's :class:`ChargePlan`.

    Round by round: the top processor's next step ``s`` names the
    cluster to simulate; Theorem 4's invariants are asserted for it
    (Invariant 1, the cluster is ``s``-ready; Invariant 2, it fills the
    top slots sorted by pid), so every run on a cached schedule inherits
    the check; then :func:`_end_round` advances the cluster and makes
    the Step 4 swaps.  ``on_round(r, s, label, slot_to_pid, next_step)``,
    when given, sees the state at the start of every round ``r`` after
    the assertions (the simulator's Figure 2 snapshots and its
    ``check_invariants="full"`` contiguity check); such a walk is never
    cached.
    """
    n_steps = len(steps)
    labels = [s.label for s in steps]
    dummy_step = [s.body is None for s in steps]
    slot_to_pid = list(range(v))
    next_step = [0] * v
    hole = v
    code_type = np.min_scalar_type(v + v.bit_length())

    r_step: list[int] = []
    r_first: list[int] = []
    r_csize: list[int] = []
    r_label: list[int] = []
    r_dummy: list[bool] = []
    c_len: list[int] = []
    a_parts: list[np.ndarray] = []
    a_len: list[int] = []
    swaps: list[tuple[int, int, int]] = []

    # per-csize charge template for a normal round: a hole for the k=0
    # local time, then (bc_k, bc_k, top, top, hole) per cycled context
    templates: dict[int, np.ndarray] = {}

    def template_for(csize: int) -> np.ndarray:
        tpl = templates.get(csize)
        if tpl is None:
            tpl = templates[csize] = np.full(5 * csize - 4, hole, dtype=code_type)
            k = np.arange(1, csize)
            tpl[5 * k - 4] = tpl[5 * k - 3] = k
            tpl[5 * k - 2] = tpl[5 * k - 1] = 0
        return tpl

    while True:
        top_pid = slot_to_pid[0]
        s = next_step[top_pid]
        if s >= n_steps:
            break
        label = labels[s]
        csize = v >> label
        first = top_pid & -csize
        if slot_to_pid[:csize] != list(range(first, first + csize)):
            raise AssertionError(
                f"Invariant 2 violated at round {len(r_step)}: top slots "
                f"{slot_to_pid[:csize]} != cluster [{first}, {first + csize})"
            )
        if next_step[first : first + csize] != [s] * csize:
            raise AssertionError(
                f"Invariant 1 violated at round {len(r_step)}: cluster "
                f"[{first}, {first + csize}) not {s}-ready"
            )
        if on_round is not None:
            on_round(len(r_step), s, label, slot_to_pid, next_step)
        r_step.append(s)
        r_first.append(first)
        r_csize.append(csize)
        r_label.append(label)
        r_dummy.append(dummy_step[s])
        if dummy_step[s]:
            a_parts.append(np.array([hole + 1 + label], dtype=code_type))
        else:
            a_parts.append(template_for(csize))
        a_len.append(len(a_parts[-1]))
        made = _end_round(slot_to_pid, next_step, labels, s, first, csize)
        swaps += made
        c_len.append(len(made))

    plan = ChargePlan()
    plan.v = v
    plan.mu = mu
    plan.n_steps = n_steps
    plan.R = len(r_step)
    plan.step = np.array(r_step, dtype=np.int64)
    plan.first = np.array(r_first, dtype=np.int64)
    plan.csize = np.array(r_csize, dtype=np.int64)
    plan.label = np.array(r_label, dtype=np.int64)
    plan.dummy = np.array(r_dummy, dtype=bool)
    plan.a_len = np.array(a_len, dtype=np.int64)
    plan.a_code = (
        np.concatenate(a_parts) if a_parts else np.empty(0, dtype=code_type)
    )
    # the value table's f-free tail: the hole, then per label the dummy
    # round's unit sync charge
    plan.fixed_values = np.array(
        [0.0] + [float(v >> label) for label in range(v.bit_length())]
    )
    plan.c_len = np.array(c_len, dtype=np.int64)
    plan.swaps = _index_array(swaps, v).reshape(-1, 3).T
    # every step runs every pid once, so the rounds' pid ranges tile
    # the (step, pid) grid; smallest types, as the schedule stays cached
    plan.round_of = np.empty(n_steps * v, dtype=np.min_scalar_type(plan.R))
    plan.round_of[ranges_concat(plan.step * v + plan.first, plan.csize)] = (
        np.repeat(np.arange(plan.R), plan.csize)
    )
    plan.slot_mask = _index_array([(v >> lb) - 1 for lb in labels], v - 1)
    # a per-charge run's add totals, in their key-creation order: delivery
    # creates words_touched/messages on every normal round (the run adds
    # its message counts), swaps create their keys whenever one happens
    normal = ~plan.dummy
    n_dummy_rounds = plan.R - int(normal.sum())
    total_context_swaps = 2 * sum(length for _, _, length in swaps)
    counts = plan.counts = {}
    if plan.R > n_dummy_rounds:
        counts.update(
            words_touched=4 * mu * int((plan.csize[normal] - 1).sum()),
            messages=0,
        )
    if total_context_swaps:
        counts["context_swaps"] = total_context_swaps
        counts["words_touched"] = (
            counts.get("words_touched", 0) + total_context_swaps * mu
        )
        counts["words_moved"] = total_context_swaps * mu
    if n_dummy_rounds:
        counts["dummy_supersteps"] = n_dummy_rounds
    plan.pattern_cache = {}
    plan.prices = {}

    # positions of the local-time holes inside the templates, and the
    # (step * v + pid) source index each hole reads from local_flat
    a_off = np.zeros(plan.R, dtype=np.int64)
    np.cumsum(plan.a_len[:-1], out=a_off[1:])
    n_csize = plan.csize[normal]
    intra = ranges_concat(np.zeros(len(n_csize), dtype=np.int64), n_csize)
    plan.local_pos = _index_array(
        np.repeat(a_off[normal], n_csize) + 5 * intra, len(plan.a_code)
    )
    plan.local_src = _index_array(
        ranges_concat(plan.step[normal] * v + plan.first[normal], n_csize),
        n_steps * v,
    )
    return plan


def _price(plan: ChargePlan, table) -> Prices:
    """``plan``'s charges under the access function of ``table``.

    Touching slot ``k``'s context block costs ``range_cost(k mu,
    (k + 1) mu)`` and its first word ``access(k mu)``; a swap of slots
    ``[a, a+n)`` and ``[b, b+n)`` costs ``2.0 * (range_cost(a) +
    range_cost(b))``, in the order of addition of
    :meth:`~repro.hmm.machine.HMMMachine.swap_ranges`.  Each range cost
    is a difference of the table's prefix sums, as the table's own
    methods compute it, so the charges are those of an HMM machine
    charging one access at a time, bit for bit.
    """
    prefix = table._prefix
    at = np.arange(plan.v + 1) * plan.mu
    a, b, n = plan.swaps.astype(np.intp) * plan.mu
    return Prices(
        np.concatenate((prefix[at[1:]] - prefix[at[:-1]], plan.fixed_values)),
        2.0 * ((prefix[a + n] - prefix[a]) + (prefix[b + n] - prefix[b])),
        prefix[at[:-1] + 1] - prefix[at[:-1]],
    )


def _schedule_for(v: int, mu: int, steps) -> ChargePlan:
    """The cached schedule of ``steps`` on ``v`` processors of ``mu``
    words, built on a miss."""
    sig = (v, mu, tuple((s.label, s.body is None) for s in steps))
    return cached_plan("vec", sig, lambda: _build_schedule(v, mu, steps))


def _prices_for(plan: ChargePlan, f) -> Prices:
    """``plan``'s prices under ``f``, from the schedule's memo of recent
    functions when ``f`` can be hashed."""
    try:
        prices = plan.prices.get(f)
        hashable = True
    except TypeError:  # a custom access function without value equality
        prices, hashable = None, False
    if prices is None:
        prices = _price(plan, CostTable.shared(f, plan.v * plan.mu))
        if hashable:
            kept = list(plan.prices.items())[: _PRICES_KEPT - 1]
            plan.prices = dict([(f, prices), *kept])
    return prices


# ------------------------------------------------------------- assembly
def _delivery_stream(plan, wc, step_src, step_dest, rows: int = 1):
    """Per-round delivery charges, in stream order, and ``b_len``, the
    number of charges in each round (two per message).

    ``step_src[s]`` / ``step_dest[s]`` are step ``s``'s send arrays (or
    ``None``).  One pass over all the messages, in step order and
    pid-major within a step: each is looked up in the round table, a
    stable sort by round brings them into round order (a round's
    messages are one step's, so they stay pid-major, the serial order),
    and each contributes ``wc`` of its source slot, then of its
    destination slot.  A delivering round has its cluster on top sorted
    by pid, so an endpoint's slot is its offset in the cluster.

    Endpoints are taken modulo ``plan.v``, so a Brent fine run can pass
    its guests' sends: with ``rows`` hosts (host ``j`` simulating pids
    ``[j v, (j + 1) v)`` on the same schedule) the stream is host-major
    and ``b_len`` holds ``rows`` round tables end to end.
    """
    sent = [s for s, src in enumerate(step_src) if src is not None]
    if not sent:
        return np.empty(0), np.zeros(rows * plan.R, dtype=np.int64)
    src = np.concatenate([step_src[s] for s in sent])
    dest = np.concatenate([step_dest[s] for s in sent])
    step = np.repeat(sent, [len(step_src[s]) for s in sent])
    mask = plan.slot_mask[step]
    key = src // plan.v * plan.R + plan.round_of[step * plan.v + (src & (plan.v - 1))]
    order = key.argsort(kind="stable")
    stream = interleave2(wc[(src & mask)[order]], wc[(dest & mask)[order]])
    return stream, 2 * np.bincount(key, minlength=rows * plan.R)


def _tape(plan: ChargePlan, b_len, rows: int) -> Tape:
    """One delivery pattern's tape: for every stream position of each
    row (host), the operand it takes from a run's pool ``[value table,
    holes' local times, delivery charges, swap charges]`` (the holes and
    delivery charges row-major; a row shorter than the longest is padded
    with the hole code, whose value is 0.0).  Indices are in the
    smallest type that holds them: tapes stay cached with their plan."""
    b_len = b_len.reshape(rows, plan.R)
    off = np.zeros((rows, plan.R + 1), dtype=np.int64)
    np.cumsum(plan.a_len + b_len + plan.c_len, axis=1, out=off[:, 1:])
    width = int(off[:, -1].max())
    # where each part of the pool starts
    holes = plan.v + len(plan.fixed_values)
    delivery = holes + rows * len(plan.local_pos)
    swaps = delivery + int(b_len.sum())
    a_src = np.tile(plan.a_code.astype(np.int64), (rows, 1))
    a_src[:, plan.local_pos] = np.arange(holes, delivery).reshape(rows, -1)
    # each (row, round) lays out its template, deliveries and swaps
    at = off[:, :-1] + (np.arange(rows) * width)[:, None]
    gather = np.full(rows * width, plan.v, dtype=np.int64)
    gather[ranges_concat(at.ravel(), np.tile(plan.a_len, rows))] = a_src.ravel()
    at += plan.a_len
    gather[ranges_concat(at.ravel(), b_len.ravel())] = np.arange(delivery, swaps)
    at += b_len
    n_swaps = plan.swaps.shape[1]
    gather[ranges_concat(at.ravel(), np.tile(plan.c_len, rows))] = np.tile(
        np.arange(swaps, swaps + n_swaps), rows
    )
    return Tape(
        _index_array(gather.reshape(rows, width), swaps + n_swaps),
        counts=plan.counts,
    )


def _assemble(plan, prices, step_src, step_dest, rows: int = 1):
    """A run's tape, its delivery charges and ``b_len``.

    The layout depends on the plan and on ``b_len`` only — and repeated
    runs of the same program deliver the same per-round message counts —
    so it is cached on the plan (one tape, keyed by the ``b_len`` bytes;
    a different delivery pattern just rebuilds).  A run then lays its
    pool ``[prices.values, local times at the holes, delivery charges,
    prices.C_all]`` end to end and folds the tape over it.
    """
    B, b_len = _delivery_stream(plan, prices.wc, step_src, step_dest, rows)
    key = b_len.tobytes()
    tape = plan.pattern_cache.get(key)
    if tape is None:
        tape = _tape(plan, b_len, rows)
        plan.pattern_cache = {key: tape}  # keep exactly one pattern resident
    return tape, B, b_len


# ----------------------------------------------------------- observability
#: the Fig. 1 scheme's span names by code: ``(name, category, attribute
#: keys)`` of its opens and leaves, as a per-charge round loop passes them
_SPAN_NAMES = (
    ("round", None, ("superstep", "label", "cluster")),
    ("dummy", "dummies", ()),
    ("local", "local", ()),
    ("cycle-context", "cycling", ()),
    ("delivery", "delivery", ()),
    ("cycle-swaps", "swaps", ()),
    ("swap", "swaps", ()),
)


def _spans(plan: ChargePlan, b_len) -> Spans:
    """A per-charge round loop's span calls at ``b_len``'s stream
    positions, compiled on the pattern's first traced run.

    Each kind of row is laid out for every round at once — the round's
    open; a dummy's leaf, or the template's ``local`` leaves at ``5k``
    and ``cycle-context`` leaves from ``5k - 4`` and the delivery leaf;
    the swap span; the close — and one sort by (round, position, rank)
    puts them in call order.
    """
    off = np.zeros(plan.R + 1, dtype=np.int64)
    np.cumsum(plan.a_len + b_len + plan.c_len, out=off[1:])
    rounds = np.arange(plan.R)
    dummy = rounds[plan.dummy]
    normal = rounds[~plan.dummy]
    ctx = np.repeat(normal, plan.csize[normal])  # round of each context
    local = off[ctx] + 5 * ranges_concat(np.zeros_like(normal), plan.csize[normal])
    cycled = local > off[ctx]
    delivery = off[normal] + plan.a_len[normal]
    swap_at = off[:-1] + plan.a_len + b_len
    swapping = rounds[plan.c_len > 0]
    swap = np.repeat(swapping, plan.c_len[swapping])  # round of each swap
    swap_leaf = ranges_concat(swap_at[swapping], plan.c_len[swapping])
    groups = (  # round, position, rank, kind, code, leaf end
        (rounds, off[:-1], 0, OPEN, 0, 0),
        (dummy, off[dummy], 1, LEAF, 1, off[dummy] + 1),
        (ctx, local, 1, LEAF, 2, local + 1),
        (ctx[cycled], local[cycled] - 4, 1, LEAF, 3, local[cycled]),
        (normal, delivery, 1, LEAF, 4, delivery + b_len[normal]),
        (swapping, swap_at[swapping], 2, OPEN, 5, 0),
        (swap, swap_leaf, 3, LEAF, 6, swap_leaf + 1),
        (swapping, swap_at[swapping] + plan.c_len[swapping], 4, CLOSE, 0, 0),
        (rounds, off[1:], 5, CLOSE, 0, 0),
    )
    rnd, pos, rank, kind, code, end = (
        np.concatenate([np.broadcast_to(g[i], g[0].shape) for g in groups])
        for i in range(6)
    )
    rows = np.stack((kind, code, pos, end), axis=1)[np.lexsort((rank, pos, rnd))]
    attrs = np.stack((plan.step, plan.label, plan.first // plan.csize), axis=1)
    return Spans(
        rows.astype(np.min_scalar_type(rows.max(initial=0))),
        _SPAN_NAMES,
        tuple(attrs.ravel().tolist()),
    )


# ------------------------------------------------------------------ entry
def execute(program, f, contexts, pending, counters, trace, on_round=None):
    """Simulate the smoothed ``program`` from ``contexts`` and
    ``pending`` (both advanced in place) on its Figure 1 schedule priced
    under ``f``: the cached schedule, or a fresh walk that calls
    ``on_round`` (see :func:`_build_schedule`).  Adds the run's counts
    to ``counters``; returns the charged time, the number of rounds, the
    body pass and the phase totals and spans at trace level ``trace``
    (:meth:`Tape.trace <repro.sim.kernel.Tape.trace>`)."""
    v, mu, steps = program.v, program.mu, program.supersteps
    if on_round is None:
        plan = _schedule_for(v, mu, steps)
    else:
        plan = _build_schedule(v, mu, steps, on_round)
    prices = _prices_for(plan, f)
    bodies = run_bodies(program, contexts, pending)
    tape, B, b_len = _assemble(plan, prices, bodies.src, bodies.dest)
    pool = np.concatenate(
        (prices.values, bodies.local[plan.local_src], B, prices.C_all)
    )
    clk = fold(tape.gather, pool)[0]
    # two words touched per message
    tape.add_counts(counters, words_touched=len(B), messages=len(B) // 2)
    if tape.spans is None and trace in ("phases", "full"):
        tape.spans = _spans(plan, b_len)
    return float(clk[-1]), plan.R, bodies, tape.trace(clk, trace)
