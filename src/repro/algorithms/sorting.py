"""The n-sorting algorithm of Proposition 9.

One key per processor; after the run, processor ``P_k`` holds the k-th
smallest key in ``ctx["key"]``.

The schedule is the bitonic sorting network mapped onto the cluster
hierarchy: the compare-exchange between ``p`` and ``p ^ 2^j`` is a
superstep of label ``log n - j - 1`` (the partners share a cluster of
``2^{j+1}`` processors).  The label profile is
``lambda_{log n - j - 1} = log n - j``, so on ``D-BSP(n, O(1), x^alpha)``
the time is

    ``sum_j (log n - j) (mu 2^{j+1})^alpha = O(n^alpha)``

— the Proposition 9 bound (the paper's reference algorithm [24] has the
same cost shape).  On ``g = log x`` the same schedule costs
``Theta(log^3 n)``, consistent with the paper's remark that all known
BSP-style sorting algorithms are a polylog factor off the
``Omega(log n log log n)`` bound implied by the simulation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.dbsp.cluster import log2_exact
from repro.dbsp.program import ProcView, Program, Superstep
from repro.functions import AccessFunction, LogarithmicAccess, PolynomialAccess

__all__ = ["bitonic_sort_program", "dbsp_sort_time_bound"]


def bitonic_sort_program(
    v: int, mu: int = 8, make_key: Callable[[int], object] | None = None
) -> Program:
    """Build the bitonic n-sorting program for ``v = n`` processors."""
    log_v = log2_exact(v)
    # custom keys may be arbitrary comparable objects; only the default
    # integer keys are guaranteed to round-trip through an i8 column
    vectorizable = make_key is None
    make_key = make_key or _hash_key()

    steps: list[Superstep] = []
    # (k, j) enumerates the network: merge stages k, distances 2^j inside
    pairs = [(k, j) for k in range(1, log_v + 1) for j in range(k - 1, -1, -1)]
    for idx, (k, j) in enumerate(pairs):
        prev = pairs[idx - 1] if idx > 0 else None
        steps.append(
            Superstep(
                log_v - j - 1,
                _exchange_body(prev, k, j),
                name=f"bitonic-k{k}-j{j}",
                array_body=_array_exchange_body(prev, k, j),
            )
        )
    last = pairs[-1] if pairs else None
    steps.append(Superstep(0, _final_body(last), name="bitonic-final",
                           array_body=_array_final_body(last)))

    return Program(
        v,
        mu,
        steps,
        make_context=_sort_context(make_key),
        name=f"bitonic(n={v})",
        array_schema={"key": "i8"} if vectorizable else None,
    )


def _keep_smaller(pid: int, k: int, j: int) -> bool:
    """Whether ``pid`` keeps the smaller key in compare-exchange (k, j).

    Ascending blocks are those whose bit ``k`` is 0 (standard bitonic
    indexing); within a block the lower partner keeps the minimum iff the
    block is ascending.
    """
    ascending = (pid >> k) & 1 == 0
    lower = (pid >> j) & 1 == 0
    return ascending == lower


def _apply_exchange(view: ProcView, k: int, j: int) -> None:
    (msg,) = view.inbox
    other = msg.payload
    ctx = view.ctx
    mine = ctx["key"]
    # _keep_smaller(pid, k, j) == (bit k of pid == bit j of pid); keep the
    # min in that case, the max otherwise (ties resolve to equal keys)
    if ((view.pid >> k) ^ (view.pid >> j)) & 1 == 0:
        ctx["key"] = other if other < mine else mine
    else:
        ctx["key"] = mine if mine > other else other


class _exchange_body:
    """Compare-exchange step body.

    A module-level class (not a closure), so a built program pickles.
    """

    __slots__ = ("prev", "bit")

    def __init__(self, prev: tuple[int, int] | None, k: int, j: int):
        self.prev = prev
        self.bit = 1 << j

    def __call__(self, view: ProcView) -> None:
        prev = self.prev
        if prev is not None:
            _apply_exchange(view, prev[0], prev[1])
        view.send(view.pid ^ self.bit, view.ctx["key"])
        view.charge(1)

    def __getstate__(self):
        return (self.prev, self.bit)

    def __setstate__(self, state):
        self.prev, self.bit = state


class _final_body:
    """Closing step body: apply the last pending exchange (picklable)."""

    __slots__ = ("last",)

    def __init__(self, last: tuple[int, int] | None):
        self.last = last

    def __call__(self, view: ProcView) -> None:
        last = self.last
        if last is not None:
            _apply_exchange(view, last[0], last[1])
        view.charge(1)

    def __getstate__(self):
        return self.last

    def __setstate__(self, state):
        self.last = state


def _apply_exchange_array(view, k: int, j: int) -> None:
    """Whole-machine version of :func:`_apply_exchange`.

    Integer keys make the scalar tie-breaking branches (`other < mine`,
    `mine > other`) coincide with ``np.minimum`` / ``np.maximum``.
    """
    other = view.inbox_payload
    mine = view.ctx["key"]
    keep_min = ((view.pids >> k) ^ (view.pids >> j)) & 1 == 0
    view.ctx["key"] = np.where(
        keep_min, np.minimum(mine, other), np.maximum(mine, other)
    )


class _array_exchange_body:
    """Array counterpart of :class:`_exchange_body` (picklable)."""

    __slots__ = ("prev", "bit")

    def __init__(self, prev: tuple[int, int] | None, k: int, j: int):
        self.prev = prev
        self.bit = 1 << j

    def __call__(self, view) -> None:
        prev = self.prev
        if prev is not None:
            _apply_exchange_array(view, prev[0], prev[1])
        view.send(view.pids ^ self.bit, view.ctx["key"])
        view.charge(1)

    def __getstate__(self):
        return (self.prev, self.bit)

    def __setstate__(self, state):
        self.prev, self.bit = state


class _array_final_body:
    """Array counterpart of :class:`_final_body` (picklable)."""

    __slots__ = ("last",)

    def __init__(self, last: tuple[int, int] | None):
        self.last = last

    def __call__(self, view) -> None:
        last = self.last
        if last is not None:
            _apply_exchange_array(view, last[0], last[1])
        view.charge(1)

    def __getstate__(self):
        return self.last

    def __setstate__(self, state):
        self.last = state


class _hash_key:
    """Default key generator (picklable, unlike a lambda)."""

    __slots__ = ()

    def __call__(self, pid: int) -> int:
        return (pid * 2654435761) % (1 << 20)

    def __reduce__(self):
        return (_hash_key, ())


class _sort_context:
    """``make_context`` for the sort program (picklable)."""

    __slots__ = ("make_key",)

    def __init__(self, make_key):
        self.make_key = make_key

    def __call__(self, pid: int) -> dict:
        return {"key": self.make_key(pid)}


def dbsp_sort_time_bound(g: AccessFunction, n: int, mu: int = 8) -> float:
    """Proposition 9's D-BSP time shape for n-sorting."""
    if isinstance(g, PolynomialAccess):
        return float(n) ** g.alpha
    if isinstance(g, LogarithmicAccess):
        return math.log2(max(n, 2)) ** 3
    raise ValueError(f"no stated bound for {g!r}")
