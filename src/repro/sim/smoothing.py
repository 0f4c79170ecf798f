"""L-smooth programs (Definition 3) and the smoothing transformation.

Let ``L = {0 = l_0 < l_1 < ... < l_m = log v}`` be a set of superstep
labels.  A D-BSP program is *L-smooth* when

1. every superstep label belongs to ``L``, and
2. whenever a superstep labeled ``l_i`` directly follows one labeled
   ``l_j > l_i``, then ``i = j - 1`` — i.e. descents through the
   decomposition tree happen one L-level at a time.

Any program is made L-smooth by (a) *upgrading* each i-superstep to the
largest label in ``L`` not exceeding ``i`` (bundling communication into a
coarser cluster never loses reachability), then (b) inserting *dummy*
supersteps to fill skipped levels on descents.

The choice of ``L`` drives the simulation costs:

* **HMM rule** (§3): pick ``L`` so that ``f(mu v / 2^{l_{i+1}})`` drops by
  a constant factor ``c2 < 1`` per level — then upgraded supersteps pay only
  a constant-factor higher access cost and dummies contribute a geometric
  (hence constant-fraction) overhead.
* **BT rule** (§5.2.2): the same construction applied to
  ``log(d1 mu v / 2^l)`` (the BT simulation's per-superstep cost is
  sorting-dominated, ``~ mu v/2^l * log(mu v / 2^l)``), with the extra
  property (c) ``f(mu v / 2^{l_i}) <= d2 mu v / 2^{l_{i+1}}``, which holds
  automatically for ``f(x) = O(x^alpha)`` once ``c2 > alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.dbsp.program import DUMMY, Program, Superstep
from repro.functions import AccessFunction

__all__ = [
    "build_label_set_hmm",
    "build_label_set_bt",
    "smooth_program",
    "is_l_smooth",
    "SmoothedProgram",
]


def build_label_set_hmm(
    f: AccessFunction, v: int, mu: int, c2: float = 0.5
) -> list[int]:
    """Label set for the HMM simulation (§3).

    Greedy construction from the paper: starting at ``l_0 = 0``, take as
    the next label the first ``l`` with ``f(mu v / 2^l) <= c2 * f(mu v /
    2^{l_prev})``; close with ``log v``.  Because ``f`` is (2, c)-uniform
    the reverse bound ``f(mu v / 2^{l_{i+1}}) >= (c2 / c) f(mu v / 2^{l_i})``
    holds automatically.
    """
    if not 0.0 < c2 < 1.0:
        raise ValueError(f"c2 must lie in (0, 1), got {c2}")
    try:
        return list(_label_set_hmm_cached(f, v, mu, c2))
    except TypeError:  # unhashable custom function
        return _greedy_label_set(lambda lab: f(mu * (v >> lab)), v, c2)


@lru_cache(maxsize=256)
def _label_set_hmm_cached(
    f: AccessFunction, v: int, mu: int, c2: float
) -> tuple[int, ...]:
    return tuple(_greedy_label_set(lambda lab: f(mu * (v >> lab)), v, c2))


def build_label_set_bt(
    f: AccessFunction,
    v: int,
    mu: int,
    c2: float = 0.75,
    d1: float = 2.0,
) -> list[int]:
    """Label set for the BT simulation (§5.2.2).

    Applies the greedy construction to ``phi(l) = log2(d1 mu v / 2^l)``.
    ``c2`` must exceed the polynomial degree ``alpha`` of ``f = O(x^alpha)``
    for property (c) to follow; the default 0.75 covers both case-study
    functions (``x^0.5`` and ``log x``).
    """
    if not 0.0 < c2 < 1.0:
        raise ValueError(f"c2 must lie in (0, 1), got {c2}")
    if d1 <= 1.0:
        raise ValueError(f"d1 must exceed 1, got {d1}")
    try:
        return list(_label_set_bt_cached(v, mu, c2, d1))
    except TypeError:  # pragma: no cover - all-numeric key, always hashable
        pass
    return _greedy_label_set(
        lambda lab: math.log2(d1 * mu * (v >> lab)), v, c2
    )


@lru_cache(maxsize=256)
def _label_set_bt_cached(
    v: int, mu: int, c2: float, d1: float
) -> tuple[int, ...]:
    return tuple(
        _greedy_label_set(lambda lab: math.log2(d1 * mu * (v >> lab)), v, c2)
    )


def _greedy_label_set(phi, v: int, c2: float) -> list[int]:
    log_v = v.bit_length() - 1
    if v != 1 << log_v:
        raise ValueError(f"v must be a power of two, got {v}")
    labels = [0]
    while labels[-1] < log_v:
        prev = phi(labels[-1])
        nxt = None
        for lab in range(labels[-1] + 1, log_v + 1):
            if phi(lab) <= c2 * prev:
                nxt = lab
                break
        if nxt is None:
            break
        labels.append(nxt)
    if labels[-1] != log_v:
        labels.append(log_v)
    return labels


def is_l_smooth(labels: list[int], label_set: list[int]) -> bool:
    """Check Definition 3 for a sequence of superstep labels."""
    index = {lab: k for k, lab in enumerate(label_set)}
    if any(lab not in index for lab in labels):
        return False
    for prev, cur in zip(labels, labels[1:]):
        if cur < prev and index[cur] != index[prev] - 1:
            return False
    return True


@dataclass
class SmoothedProgram:
    """An L-smooth program plus its provenance.

    ``origin[k]`` is the index of the original superstep that new superstep
    ``k`` came from, or ``None`` for an inserted dummy.  The analyses in
    the paper are stated against the *original* program's parameters, so
    benchmark code uses ``origin`` to attribute costs.
    """

    program: Program
    label_set: list[int]
    origin: list[int | None]

    @property
    def n_dummies(self) -> int:
        return sum(1 for o in self.origin if o is None)


def smooth_program(program: Program, label_set: list[int]) -> SmoothedProgram:
    """Transform ``program`` into an equivalent L-smooth program.

    The program is first normalized to end with a global synchronization
    (a 0-superstep), as the paper assumes.  Dummies perform no computation
    and route no messages; pending message buffers persist through them
    (buffers are part of the processor context), so the transformation is
    semantics-preserving — the equivalence tests check this program-by-
    program.

    Results are memoized per ``(program, label_set)`` on the program object
    itself (so the cache lives and dies with the program): repeated
    simulations of one program re-smooth it with the same label set.
    Supersteps are immutable, so sharing the smoothed result is safe.
    """
    key = tuple(label_set)
    cache: dict | None = getattr(program, "_smooth_cache", None)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = _smooth_program_uncached(program, label_set)
    if cache is None:
        cache = {}
        try:
            program._smooth_cache = cache  # type: ignore[attr-defined]
        except AttributeError:  # pragma: no cover - exotic Program subclass
            return result
    cache[key] = result
    return result


def _smooth_program_uncached(
    program: Program, label_set: list[int]
) -> SmoothedProgram:
    if label_set[0] != 0 or label_set[-1] != program.log_v:
        raise ValueError(
            f"label set must span 0..log v = {program.log_v}, got {label_set}"
        )
    if any(b <= a for a, b in zip(label_set, label_set[1:])):
        raise ValueError(f"label set must be strictly increasing: {label_set}")

    normalized = program.with_global_sync()
    index_of: dict[int, int] = {}
    for label in range(program.log_v + 1):
        # largest label in L not greater than `label`
        k = max(k for k, l in enumerate(label_set) if l <= label)
        index_of[label] = k

    new_steps: list[Superstep] = []
    origin: list[int | None] = []
    prev_idx: int | None = None
    for orig_pos, step in enumerate(normalized.supersteps):
        idx = index_of[step.label]
        if prev_idx is not None and idx < prev_idx - 1:
            # descending more than one L-level: fill with dummies
            for k in range(prev_idx - 1, idx, -1):
                new_steps.append(
                    Superstep(label_set[k], DUMMY, name=f"dummy-l{label_set[k]}")
                )
                origin.append(None)
        new_steps.append(
            Superstep(
                label_set[idx],
                step.body,
                name=step.name,
                array_body=step.array_body,
            )
        )
        origin.append(orig_pos)
        prev_idx = idx

    smoothed = normalized.replace_supersteps(new_steps)
    assert is_l_smooth(smoothed.labels(), label_set)
    return SmoothedProgram(program=smoothed, label_set=label_set, origin=origin)
