"""Vectorized execution of the HMM round scheduler (the ``vec`` kernel).

The key observation (the charge-tape contract of the parallel scheduler,
taken to its conclusion): for a fixed access function and machine shape,
the Figure 1 schedule — which cluster runs in which round, every context
cycling charge, every swap charge, the *order* of every elementary
``time +=`` — depends only on the smoothed label sequence, never on what
the superstep bodies compute.  So the schedule is compiled once into a
:class:`ChargePlan` (cached per ``(f, v, mu, labels)``), bodies are run
superstep-major (valid because processor bodies within a superstep are
independent — the direct engine already executes step-major and passes
the equivalence suites), and the charged clock is produced by scattering
the plan's charge templates, the bodies' local times and the batched
delivery charges into one operand stream and folding it with a single
``np.cumsum`` — the same fold :meth:`repro.functions.CostTable.fold_access`
uses, which reproduces the serial ``t += c`` sequence bit-for-bit,
including every intermediate clock value.

Observability is preserved exactly: counters replicate the scalar
``add`` calls (amounts *and* key-creation), and in ``phases``/``full``
trace modes a post-pass walks the plan against the folded clock and
drives the real :class:`~repro.obs.trace.Tracer` through the identical
open/leaf/close sequence the scalar engine performs — same breakdowns,
same span records, same ±ulp self-cost attribution.

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
"""

from __future__ import annotations

import numpy as np

from repro.obs.counters import NULL_COUNTERS
from repro.sim.kernel import PlanCache, interleave2, ranges_concat, run_bodies

__all__ = ["ChargePlan", "execute_vec", "plan_cache_info"]

_PLANS = PlanCache(8)


class ChargePlan:
    """The compiled, body-independent part of one HMM simulation run.

    Per round: the superstep simulated, the cluster (``first``/``csize``),
    the fixed charge template (dummy sync or cycling charges with holes
    for the bodies' local times) and the Step 4 swap charges.  Plus the
    gather/scatter indices and counter constants needed to assemble a
    full run's charge stream without touching the scalar loop.
    """

    __slots__ = (
        "v", "mu", "n_steps", "R",
        "step", "first", "csize", "label", "dummy",
        "a_len", "A_all", "local_pos", "local_src",
        "c_len", "C_all",
        "b_starts_cache",
        "rounds_of_step", "csize_of_step",
        "wc",
        "cycle_words", "n_normal_rounds", "n_dummy_rounds",
        "total_context_swaps", "total_swap_words",
    )


def _build_plan(v, mu, steps, block_cost, word_cost, table) -> ChargePlan:
    """Replay the Figure 1 scheduler bookkeeping (no bodies, no clock).

    This is a faithful replication of ``_HMMSimRun.execute``'s control
    flow; the Theorem 4 invariants are asserted while building, so every
    run on the plan inherits the ``check_invariants="top"`` guarantee.
    """
    n_steps = len(steps)
    labels = [s.label for s in steps]
    dummy_step = [s.body is None for s in steps]
    slot_to_pid = list(range(v))
    next_step = [0] * v

    r_step: list[int] = []
    r_first: list[int] = []
    r_csize: list[int] = []
    r_label: list[int] = []
    r_dummy: list[bool] = []
    c_len: list[int] = []
    a_parts: list[np.ndarray] = []
    a_len: list[int] = []
    swap_charges: list[float] = []
    rounds_of_step: dict[int, list[int]] = {}

    cycle_words = 0
    n_dummy_rounds = 0
    total_context_swaps = 0
    total_swap_words = 0

    top_cost = block_cost[0]
    # per-csize charge template for a normal round: a hole for the k=0
    # local time, then (bc_k, bc_k, top, top, hole) per cycled context
    templates: dict[int, np.ndarray] = {}

    def template_for(csize: int) -> np.ndarray:
        tpl = templates.get(csize)
        if tpl is None:
            tpl = np.zeros(5 * csize - 4, dtype=np.float64)
            for k in range(1, csize):
                bc = block_cost[k]
                base = 5 * k - 4
                tpl[base] = bc
                tpl[base + 1] = bc
                tpl[base + 2] = top_cost
                tpl[base + 3] = top_cost
            templates[csize] = tpl
        return tpl

    def do_swap(a: int, b: int, length: int) -> None:
        nonlocal total_context_swaps, total_swap_words
        charge = 2.0 * (
            table.range_cost(a * mu, (a + length) * mu)
            + table.range_cost(b * mu, (b + length) * mu)
        )
        swap_charges.append(charge)
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
        # Theorem 4 invariants, asserted once per (f, v, mu, labels)
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
            a_parts.append(np.array([float(csize)]))
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

        n_swaps_before = len(swap_charges)
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
        c_len.append(len(swap_charges) - n_swaps_before)
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
    plan.A_all = (
        np.concatenate(a_parts) if a_parts else np.empty(0, dtype=np.float64)
    )
    plan.c_len = np.array(c_len, dtype=np.int64)
    plan.C_all = np.array(swap_charges, dtype=np.float64)
    plan.wc = np.array(word_cost, dtype=np.float64)
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

    # positions of the local-time holes inside A_all, and the
    # (step * v + pid) source index each hole reads from local_flat
    normal = ~plan.dummy
    a_off = np.zeros(plan.R, dtype=np.int64)
    np.cumsum(plan.a_len[:-1], out=a_off[1:])
    n_csize = plan.csize[normal]
    if n_csize.size:
        intra = ranges_concat(np.zeros(len(n_csize), dtype=np.int64), n_csize)
        plan.local_pos = np.repeat(a_off[normal], n_csize) + 5 * intra
        plan.local_src = ranges_concat(
            plan.step[normal] * v + plan.first[normal], n_csize
        )
    else:
        plan.local_pos = np.empty(0, dtype=np.int64)
        plan.local_src = np.empty(0, dtype=np.int64)
    return plan


def _plan_for(run) -> ChargePlan:
    sim = run.sim
    steps = run.steps
    sig = (
        sim.f,
        run.v,
        run.mu,
        tuple((s.label, s.body is None) for s in steps),
    )
    return _PLANS.get(sig, lambda: _build_plan(
        run.v,
        run.mu,
        steps,
        run._block_cost,
        run._slot_word_cost,
        run.machine.table,
    ))


def plan_cache_info() -> dict:
    """Introspection hook for tests and ``/v1/metrics``: cached plan
    count plus lifetime hit/miss/eviction counters (process-wide)."""
    return _PLANS.info()


# ------------------------------------------------------------- assembly
def _delivery_stream(plan, step_src, step_dest):
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
    wc = plan.wc
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


def _assemble_stream(plan, local_flat, step_src, step_dest):
    """Scatter charge templates, local times and delivery charges into
    the one operand stream the scalar engine folds serially.

    The scatter indices depend on the plan and on ``b_len`` only — and
    repeated runs of the same program deliver the same per-round message
    counts — so they are cached on the plan (one entry, keyed by the
    ``b_len`` bytes; a different delivery pattern just rebuilds).  The
    cache turns assembly from three index constructions plus a template
    copy into three fancy-index writes.
    """
    B, b_len = _delivery_stream(plan, step_src, step_dest)
    key = b_len.tobytes()
    cached = plan.b_starts_cache.get(key)
    if cached is None:
        r_len = plan.a_len + b_len + plan.c_len
        off = np.zeros(plan.R + 1, dtype=np.int64)
        np.cumsum(r_len, out=off[1:])
        a_idx = ranges_concat(off[:-1], plan.a_len)
        b_idx = ranges_concat(off[:-1] + plan.a_len, b_len)
        c_idx = ranges_concat(off[:-1] + plan.a_len + b_len, plan.c_len)
        local_idx = a_idx[plan.local_pos]
        plan.b_starts_cache.clear()  # keep exactly one pattern resident
        cached = (off, a_idx, b_idx, c_idx, local_idx)
        plan.b_starts_cache[key] = cached
    off, a_idx, b_idx, c_idx, local_idx = cached
    # one extra slot up front: the caller seeds it with the machine
    # clock and cumsums in place, so the stream never has to be copied
    # into a separate fold buffer
    buf = np.empty(off[-1] + 1, dtype=np.float64)
    stream = buf[1:]
    stream[a_idx] = plan.A_all
    if local_idx.size:
        stream[local_idx] = local_flat[plan.local_src]
    if B.size:
        stream[b_idx] = B
    if plan.C_all.size:
        stream[c_idx] = plan.C_all
    return buf, off, b_len


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


def _walk_tracer(run, plan, clk, off, b_len) -> None:
    """Drive the real tracer through the scalar call sequence.

    ``clk[i]`` is the charged clock after the first ``i`` elementary
    operands — every value the serial run's ``machine.time`` ever takes,
    reproduced by the cumsum fold.  ``open``/``close`` sample the clock
    through ``machine.time``, so it is positioned before each call
    exactly where the scalar engine would have it.
    """
    tracer = run.tracer
    machine = run.machine
    record = tracer.record
    steps = run.steps
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
                    "label": steps[s].label,
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


# ------------------------------------------------------------------ entry
def execute_vec(run) -> None:
    """Vectorized replacement for ``_HMMSimRun._execute_scalar()``.

    Only full runs are dispatched here (the parallel driver's serial
    bursts use the scalar path; worker processes, which each run their
    whole sub-program, land here with a :class:`FlatTape` attached).
    """
    assert run.round_index == 0, "vec kernel only executes full runs"
    plan = _plan_for(run)
    bodies = run_bodies(run.program, run.contexts, run.pending)
    buf, off, b_len = _assemble_stream(
        plan, bodies.local, bodies.src, bodies.dest
    )
    if run.tape_rec is not None:
        run.tape_rec.charges.frombytes(buf[1:].tobytes())
    _add_counters(run, plan, b_len)

    machine = run.machine
    buf[0] = machine.time
    np.cumsum(buf, out=buf)
    if run.tracer.enabled:
        _walk_tracer(run, plan, buf.tolist(), off, b_len)
    machine.time = float(buf[-1])
    run.round_index = plan.R
