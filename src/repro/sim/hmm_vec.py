"""Vectorized execution of the HMM round scheduler (the ``vec`` kernel).

The key observation: for a fixed machine shape, the Figure 1 schedule
— which cluster runs in which round, which context every cycling and
swap charge touches, the *order* of every elementary ``time +=`` —
depends only on the smoothed label sequence, never on what the
superstep bodies compute; the access function only sets the price of
each charge.  So the schedule is compiled once into a
:class:`ChargePlan` (cached per ``(v, mu, labels, dummy flags)``, with
its charges as codes into a small value table and its swaps as slot
ranges), priced per access function by a few array gathers
(:class:`Prices`, the latest two kept on the plan), bodies are run
superstep-major (valid because processor bodies within a superstep are
independent — the direct engine already executes step-major and passes
the equivalence suites), and the charged clock is produced by gathering
the plan's priced charge templates, the bodies' local times and the
batched delivery charges into one operand stream and folding it with a single
``np.cumsum`` — the same fold :meth:`repro.functions.CostTable.fold_access`
uses, which reproduces the serial ``t += c`` sequence bit-for-bit,
including every intermediate clock value.

Observability is preserved exactly: counters replicate the scalar
``add`` calls (amounts *and* key-creation).  The span structure of a
run — which open/leaf/close calls the scalar engine makes, at which
stream positions — is fixed by the plan and the per-round message
counts, so at ``phases`` it is compiled once per delivery pattern into
an event table (:class:`~repro.sim.kernel.PhaseEvents`) and the
breakdown is two ``np.bincount`` folds over the clock
(:func:`~repro.sim.kernel.fold_phases`), with no tracer call per span.
At ``full``, which records every span, a post-pass walks the plan
against the folded clock and drives the real
:class:`~repro.obs.trace.Tracer` through that call sequence.  Either
way: same breakdowns, same span records, same ±ulp self-cost
attribution as the scalar engine.

Bodies run in the shared superstep-major pass
(:func:`repro.sim.kernel.run_bodies`), in one of its two modes:

* **array mode** — every non-dummy superstep carries an ``array_body``
  and the program declares an ``array_schema``: contexts become column
  arrays, bodies run as whole-machine numpy programs, and message
  delivery is an aligned scatter.  This is the ≥10x path.
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

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.obs.counters import NULL_COUNTERS
from repro.sim.kernel import (
    EventRecorder,
    PhaseEvents,
    PlanCache,
    fold_phases,
    interleave2,
    ranges_concat,
    run_bodies,
)

__all__ = ["ChargePlan", "execute_vec", "plan_cache_info"]

#: schedules are f-free, so the capacity follows the distinct
#: ``(v, mu, labels)`` signatures of a worker's traffic: about 80 for
#: the benchmark's serve-cold sweep, where every request brings a fresh f
_PLANS = PlanCache(128)
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
    (``swaps[:, i] = (a, b, length)``).  Plus the hole indices and
    counter constants needed to assemble a run's charge stream, the
    stream layout of the last delivery pattern, and the prices of the
    access functions it last ran under.  Cached per
    ``(v, mu, labels, dummy flags)``: :func:`_price` turns it into one
    function's charges.
    """

    __slots__ = (
        "v", "mu", "n_steps", "R",
        "step", "first", "csize", "label", "dummy",
        "a_len", "a_code", "fixed_values", "local_pos", "local_src",
        "c_len", "swaps",
        "b_starts_cache", "prices",
        "rounds_of_step", "csize_of_step",
        "cycle_words", "n_normal_rounds", "n_dummy_rounds",
        "total_context_swaps", "total_swap_words",
    )


def _index_array(values, bound: int) -> np.ndarray:
    """``values`` in the smallest unsigned type that holds ``bound``."""
    return np.asarray(values, dtype=np.min_scalar_type(bound))


def _build_schedule(v, mu, steps) -> ChargePlan:
    """Replay the Figure 1 scheduler bookkeeping (no bodies, no clock,
    no access function).

    This is a faithful replication of ``_HMMSimRun.execute``'s control
    flow; the Theorem 4 invariants are asserted while building, so every
    run on the schedule inherits the ``check_invariants="top"`` guarantee.
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
    rounds_of_step: dict[int, list[int]] = {}

    cycle_words = 0
    n_dummy_rounds = 0
    total_context_swaps = 0
    total_swap_words = 0

    # per-csize charge template for a normal round: a hole for the k=0
    # local time, then (bc_k, bc_k, top, top, hole) per cycled context
    templates: dict[int, np.ndarray] = {}

    def template_for(csize: int) -> np.ndarray:
        tpl = templates.get(csize)
        if tpl is None:
            tpl = np.full(5 * csize - 4, hole, dtype=code_type)
            for k in range(1, csize):
                base = 5 * k - 4
                tpl[base] = k
                tpl[base + 1] = k
                tpl[base + 2] = 0
                tpl[base + 3] = 0
            templates[csize] = tpl
        return tpl

    def do_swap(a: int, b: int, length: int) -> None:
        nonlocal total_context_swaps, total_swap_words
        swaps.append((a, b, length))
        total_context_swaps += 2 * length
        total_swap_words += 2 * length * mu
        pids_a = slot_to_pid[a : a + length]
        slot_to_pid[a : a + length] = slot_to_pid[b : b + length]
        slot_to_pid[b : b + length] = pids_a

    while True:
        top_pid = slot_to_pid[0]
        s = next_step[top_pid]
        if s >= n_steps:
            break
        label = labels[s]
        csize = v >> label
        first = top_pid & -csize
        # Theorem 4 invariants, asserted once per (v, mu, labels)
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
        r = len(r_step)
        r_step.append(s)
        r_first.append(first)
        r_csize.append(csize)
        r_label.append(label)
        if dummy_step[s]:
            r_dummy.append(True)
            a_parts.append(np.array([hole + 1 + label], dtype=code_type))
            a_len.append(1)
            n_dummy_rounds += 1
        else:
            r_dummy.append(False)
            tpl = template_for(csize)
            a_parts.append(tpl)
            a_len.append(len(tpl))
            cycle_words += 4 * mu * (csize - 1)
            rounds_of_step.setdefault(s, []).append(r)
        for pid in range(first, first + csize):
            next_step[pid] += 1

        n_swaps_before = len(swaps)
        done = next_step[slot_to_pid[0]] >= n_steps
        if not done and s + 1 < n_steps:
            next_label = labels[s + 1]
            if next_label < label:
                b = 1 << (label - next_label)
                parent_size = v >> next_label
                parent_first = first & -parent_size
                j = (first - parent_first) // csize
                if j > 0:
                    do_swap(0, j * csize, csize)
                if j < b - 1:
                    do_swap(0, (j + 1) * csize, csize)
        c_len.append(len(swaps) - n_swaps_before)
        if done:
            break

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
    plan.rounds_of_step = {
        s: np.array(rs, dtype=np.int64) for s, rs in rounds_of_step.items()
    }
    plan.csize_of_step = {s: v >> labels[s] for s in rounds_of_step}
    plan.cycle_words = cycle_words
    plan.n_normal_rounds = int(plan.R - n_dummy_rounds)
    plan.n_dummy_rounds = n_dummy_rounds
    plan.total_context_swaps = total_context_swaps
    plan.total_swap_words = total_swap_words
    plan.b_starts_cache = {}
    plan.prices = {}

    # positions of the local-time holes inside the templates, and the
    # (step * v + pid) source index each hole reads from local_flat
    normal = ~plan.dummy
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


def _price(plan: ChargePlan, block_cost, word_cost, table) -> Prices:
    """``plan``'s charges under the access function of ``table``.

    ``block_cost[k]`` is what touching slot ``k``'s context block costs
    and ``word_cost[k]`` its first word.  A swap of slots ``[a, a+n)``
    and ``[b, b+n)`` costs ``2.0 * (range_cost(a) + range_cost(b))``
    over the table's prefix sums: the floats and the order of addition
    of :meth:`~repro.hmm.machine.HMMMachine.swap_ranges`, so the charges
    are those of the scalar engine bit for bit.
    """
    prefix = table._prefix
    a, b, n = plan.swaps.astype(np.intp) * plan.mu
    return Prices(
        np.concatenate((block_cost, plan.fixed_values)),
        2.0 * ((prefix[a + n] - prefix[a]) + (prefix[b + n] - prefix[b])),
        np.array(word_cost, dtype=np.float64),
    )


def _schedule_for(v: int, mu: int, steps) -> ChargePlan:
    """The cached schedule of ``steps`` on ``v`` processors of ``mu``
    words, built on a miss."""
    sig = (v, mu, tuple((s.label, s.body is None) for s in steps))
    return _PLANS.get(sig, lambda: _build_schedule(v, mu, steps))


def _plan_for(run) -> tuple[ChargePlan, Prices]:
    """The run's schedule and its prices under the run's access
    function, from the schedule's memo of recent ones when the function
    can be hashed."""
    plan = _schedule_for(run.v, run.mu, run.steps)
    f = run.sim.f
    try:
        prices = plan.prices.get(f)
    except TypeError:  # a custom access function without value equality
        return plan, _price(
            plan, run._block_cost, run._slot_word_cost, run.machine.table
        )
    if prices is None:
        prices = _price(
            plan, run._block_cost, run._slot_word_cost, run.machine.table
        )
        kept = list(plan.prices.items())[: _PRICES_KEPT - 1]
        plan.prices = dict([(f, prices), *kept])
    return plan, prices


def plan_cache_info() -> dict:
    """Introspection hook for tests and ``/v1/metrics``: cached plan
    count plus lifetime hit/miss/eviction counters (process-wide)."""
    return _PLANS.info()


# ------------------------------------------------------------- assembly
def _delivery_stream(plan, wc, step_src, step_dest):
    """Per-round delivery charges, in round order.

    Step-major send arrays are charged in one vectorized pass per step
    (``wc[src & (csize-1)]`` — the top slots hold the cluster sorted by
    pid at delivery time, so a message endpoint's slot is just its pid
    offset within the cluster), then gathered into round order: each
    round's messages are a contiguous pid-range slice of its step's
    pid-major arrays.
    """
    R = plan.R
    b_len = np.zeros(R, dtype=np.int64)
    b_start = np.zeros(R, dtype=np.int64)
    parts: list[np.ndarray] = []
    base = 0
    for s, rounds_idx in plan.rounds_of_step.items():
        src = step_src[s]
        if src is None:
            continue
        dest = step_dest[s]
        csize = plan.csize_of_step[s]
        mask = csize - 1
        inter = interleave2(wc[src & mask], wc[dest & mask])
        firsts = plan.first[rounds_idx]
        lo = np.searchsorted(src, firsts)
        hi = np.searchsorted(src, firsts + csize)
        b_len[rounds_idx] = 2 * (hi - lo)
        b_start[rounds_idx] = base + 2 * lo
        parts.append(inter)
        base += len(inter)
    if not parts:
        return np.empty(0, dtype=np.float64), b_len
    inter_concat = np.concatenate(parts)
    return inter_concat[ranges_concat(b_start, b_len)], b_len


class _Pattern:
    """One delivery pattern's stream layout: the round offsets, and for
    every stream position the operand it takes from a run's pool
    ``[value table, hole local times, delivery charges, swap charges]``
    (in the smallest type that holds a pool index: patterns stay cached
    with their plan); plus the plan's span walk at this pattern's
    stream positions (compiled on first use)."""

    __slots__ = ("off", "gather", "events")

    def __init__(self, plan, b_len):
        off = self.off = np.zeros(plan.R + 1, dtype=np.int64)
        np.cumsum(plan.a_len + b_len + plan.c_len, out=off[1:])
        b_at = off[:-1] + plan.a_len
        # the pool: value table, holes' local times, then the delivery
        # and swap charges in stream order
        n_a = plan.v + len(plan.fixed_values)
        a_src = plan.a_code.astype(np.int64)
        a_src[plan.local_pos] = np.arange(n_a, n_a + len(plan.local_pos))
        n_a += len(plan.local_pos)
        bc_pos = np.concatenate((
            ranges_concat(b_at, b_len), ranges_concat(b_at + b_len, plan.c_len)
        ))
        gather = np.empty(int(off[-1]), dtype=np.int64)
        gather[ranges_concat(off[:-1], plan.a_len)] = a_src
        gather[bc_pos] = np.arange(n_a, n_a + len(bc_pos))
        self.gather = _index_array(gather, n_a + len(bc_pos))
        self.events: PhaseEvents | None = None


def _assemble_stream(plan, prices, local_flat, step_src, step_dest):
    """Gather charge templates, local times and delivery charges into
    the one operand stream the scalar engine folds serially.

    The layout depends on the plan and on ``b_len`` only — and repeated
    runs of the same program deliver the same per-round message counts —
    so it is cached on the plan (one :class:`_Pattern`, keyed by the
    ``b_len`` bytes; a different delivery pattern just rebuilds).  A run
    then lays its few operand sources end to end and takes the stream
    from them with one gather.
    """
    B, b_len = _delivery_stream(plan, prices.wc, step_src, step_dest)
    key = b_len.tobytes()
    pattern = plan.b_starts_cache.get(key)
    if pattern is None:
        pattern = _Pattern(plan, b_len)
        plan.b_starts_cache.clear()  # keep exactly one pattern resident
        plan.b_starts_cache[key] = pattern
    pool = np.concatenate(
        (prices.values, local_flat[plan.local_src], B, prices.C_all)
    )
    # one extra slot up front: the caller seeds it with the machine
    # clock and cumsums in place, so the stream never has to be copied
    # into a separate fold buffer
    buf = np.empty(len(pattern.gather) + 1, dtype=np.float64)
    pool.take(pattern.gather, out=buf[1:], mode="clip")
    return buf, pattern, b_len


# ----------------------------------------------------------- observability
def _add_counters(run, plan, b_len) -> None:
    counters = run.counters
    if counters is NULL_COUNTERS:
        return
    # same totals and same key-creation as the scalar adds: delivery
    # creates words_touched/messages on every normal round (amount may
    # be zero), swaps create their keys whenever at least one happens
    if plan.n_normal_rounds:
        total_msgs = int(b_len.sum()) // 2
        counters.add("words_touched", plan.cycle_words + 2 * total_msgs)
        counters.add("messages", total_msgs)
    if plan.total_context_swaps:
        counters.add("context_swaps", plan.total_context_swaps)
        counters.add("words_touched", plan.total_swap_words)
        counters.add("words_moved", plan.total_swap_words)
    if plan.n_dummy_rounds:
        counters.add("dummy_supersteps", plan.n_dummy_rounds)


def _walk_tracer(tracer, machine, plan, clk, off, b_len) -> None:
    """Drive ``tracer`` through the scalar call sequence.

    ``clk[i]`` is the charged clock after the first ``i`` elementary
    operands — every value the serial run's ``machine.time`` ever takes,
    reproduced by the cumsum fold.  ``open``/``close`` sample the clock
    through ``machine.time``, so it is positioned before each call
    exactly where the scalar engine would have it.  With an
    :class:`~repro.sim.kernel.EventRecorder` over positions (``clk`` a
    ``range``) the same walk compiles the plan's event table.
    """
    record = tracer.record
    off_l = off.tolist()
    b_l = b_len.tolist()
    c_l = plan.c_len.tolist()
    dummy_l = plan.dummy.tolist()
    csize_l = plan.csize.tolist()
    add_leaf = tracer.add_leaf
    for r in range(plan.R):
        i = off_l[r]
        machine.time = clk[i]
        if record:
            s = int(plan.step[r])
            csize = csize_l[r]
            first = int(plan.first[r])
            tracer.open(
                "round",
                None,
                {
                    "superstep": s,
                    "label": int(plan.label[r]),
                    "cluster": first // csize,
                },
            )
        else:
            tracer.open("round", None, None)
        if dummy_l[r]:
            add_leaf("dummy", "dummies", clk[i], clk[i + 1])
            i += 1
        else:
            csize = csize_l[r]
            add_leaf("local", "local", clk[i], clk[i + 1])
            i += 1
            for _ in range(csize - 1):
                add_leaf("cycle-context", "cycling", clk[i], clk[i + 4])
                i += 4
                add_leaf("local", "local", clk[i], clk[i + 1])
                i += 1
            nb = b_l[r]
            add_leaf("delivery", "delivery", clk[i], clk[i + nb])
            i += nb
        n_swaps = c_l[r]
        if n_swaps:
            machine.time = clk[i]
            tracer.open("cycle-swaps", "swaps")
            for _ in range(n_swaps):
                add_leaf("swap", "swaps", clk[i], clk[i + 1])
                i += 1
            machine.time = clk[i]
            tracer.close()
        machine.time = clk[i]
        tracer.close()


def _phase_events(plan, pattern: _Pattern, b_len) -> PhaseEvents:
    """The plan's span walk at ``pattern``'s stream positions, compiled
    on the pattern's first ``phases`` run."""
    if pattern.events is None:
        at = SimpleNamespace(time=0)
        rec = EventRecorder(clock=lambda: at.time)
        _walk_tracer(
            rec, at, plan, range(pattern.off[-1] + 1), pattern.off, b_len
        )
        pattern.events = rec.table()
    return pattern.events


# ------------------------------------------------------------------ entry
def execute_vec(run) -> None:
    """Vectorized replacement for ``_HMMSimRun._execute_scalar()``:
    runs the whole program, from the run's initial state."""
    assert run.round_index == 0, "vec kernel only executes full runs"
    plan, prices = _plan_for(run)
    bodies = run_bodies(run.program, run.contexts, run.pending)
    run.body_pass = bodies.select(run.smoothed.original_steps)
    buf, pattern, b_len = _assemble_stream(
        plan, prices, bodies.local, bodies.src, bodies.dest
    )
    _add_counters(run, plan, b_len)

    machine = run.machine
    buf[0] = machine.time
    np.cumsum(buf, out=buf)
    tracer = run.tracer
    if tracer.record:
        _walk_tracer(tracer, machine, plan, buf.tolist(), pattern.off, b_len)
    elif tracer.enabled:
        # the totals the walk would leave in this fresh tracer
        tracer.totals = fold_phases(_phase_events(plan, pattern, b_len), buf)
    machine.time = float(buf[-1])
    run.round_index = plan.R
