"""Operational ``f(x)``-HMM machine with exact cost accounting.

The machine holds a word-addressed memory (a Python list, so words can be
arbitrary objects: context words, tags, message payloads) and charges every
access its model cost via a precomputed :class:`~repro.functions.CostTable`.

Two layers of API are exposed:

* word-level: :meth:`HMMMachine.read` / :meth:`HMMMachine.write` — charge
  ``f(x)`` each, plus the unit op cost charged via :meth:`charge_op`;
* bulk: :meth:`HMMMachine.touch_range`, :meth:`HMMMachine.swap_ranges`,
  :meth:`HMMMachine.move_range` — physically move the words and charge the
  exact per-word cost in O(1) Python operations using the prefix table.

On the plain HMM there is **no block transfer**: a bulk move of ``b`` words
between ranges ``[s, s+b)`` and ``[d, d+b)`` is charged
``sum f(s..s+b-1) + sum f(d..d+b-1)`` — i.e. every word is individually
touched at both endpoints (this matches how the paper's Section 3 analysis
charges context relocations, cf. Fact 1).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.functions import AccessFunction, CostTable
from repro.obs.counters import NULL_COUNTERS, Counters, NullCounters

__all__ = ["HMMMachine"]


class HMMMachine:
    """An ``f(x)``-HMM with ``size`` words of memory.

    Parameters
    ----------
    f:
        The access function.
    size:
        Number of addressable words.
    op_cost:
        Cost of the computational part of one operation (the ``1 +`` in
        ``1 + sum f(x_i)``).  Kept explicit so tests can isolate pure
        memory cost by setting it to 0.
    counters:
        Observability hook (:mod:`repro.obs`): bulk primitives report
        words touched/moved here.  Defaults to the shared no-op
        registry, so an uninstrumented machine pays one no-op call per
        bulk primitive.
    """

    def __init__(
        self,
        f: AccessFunction,
        size: int,
        op_cost: float = 1.0,
        counters: Counters | NullCounters = NULL_COUNTERS,
    ):
        self.f = f
        self.size = int(size)
        self.table = CostTable.shared(f, self.size)
        self.mem: list[Any] = [None] * self.size
        self.op_cost = float(op_cost)
        self.counters = counters
        self.time: float = 0.0
        self.ops: int = 0

    # ---------------------------------------------------------------- core
    def reset_clock(self) -> None:
        """Zero the accumulated time/op counters (memory is untouched)."""
        self.time = 0.0
        self.ops = 0

    def charge(self, t: float) -> None:
        """Charge ``t`` raw time units (e.g. local computation)."""
        if t < 0:
            raise ValueError(f"cannot charge negative time {t}")
        self.time += t

    def charge_op(self, addresses: Iterable[int] = ()) -> None:
        """Charge one n-ary operation touching ``addresses``.

        Cost is ``op_cost + sum_i f(x_i)`` per the HMM definition.
        """
        self.ops += 1
        self.counters.add("ops")
        self.time += self.op_cost
        for x in addresses:
            self.time += self.table.access(x)
            self.counters.add("words_touched")

    # ---------------------------------------------------- word-level access
    def read(self, x: int) -> Any:
        """Read word ``x``, charging ``f(x)``."""
        self.time += self.table.access(x)
        self.counters.add("words_touched")
        return self.mem[x]

    def write(self, x: int, value: Any) -> None:
        """Write word ``x``, charging ``f(x)``."""
        self.time += self.table.access(x)
        self.counters.add("words_touched")
        self.mem[x] = value

    # --------------------------------------------------------- bulk access
    def touch_range(self, lo: int, hi: int) -> None:
        """Charge one access to every address in ``[lo, hi)``."""
        self.time += self.table.range_cost(lo, hi)
        self.counters.add("words_touched", hi - lo)

    def touch_addresses(self, xs) -> None:
        """Charge one access to each address in ``xs`` (any order, repeats ok).

        Gather-style batched charging: a list or ``np.ndarray`` of
        addresses is charged in one :meth:`CostTable.fold_access` pass,
        bit-identical to looping ``read``/``write`` over ``xs`` (minus
        the memory traffic — this only charges).  One counter update for
        the whole batch.
        """
        self.time = self.table.fold_access(self.time, xs)
        self.counters.add("words_touched", len(xs))

    def read_range(self, lo: int, hi: int) -> list[Any]:
        """Read ``[lo, hi)`` (charged once per word)."""
        self.touch_range(lo, hi)
        return self.mem[lo:hi]

    def write_range(self, lo: int, values: list[Any]) -> None:
        """Write ``values`` starting at ``lo`` (charged once per word)."""
        hi = lo + len(values)
        self.touch_range(lo, hi)
        self.mem[lo:hi] = values

    def move_range(self, src: int, dst: int, length: int) -> None:
        """Copy ``length`` words from ``src`` to ``dst`` (word-by-word cost).

        Ranges may not overlap; the source is left in place (callers that
        need move semantics overwrite it afterwards).
        """
        self._check_disjoint(src, dst, length)
        self.touch_range(src, src + length)
        self.touch_range(dst, dst + length)
        self.counters.add("words_moved", length)
        self.mem[dst : dst + length] = self.mem[src : src + length]

    def swap_ranges(self, a: int, b: int, length: int) -> float:
        """Exchange two disjoint ranges of ``length`` words.

        Charged two accesses per word on each side (read + write), i.e.
        ``2 * (sum f(a..) + sum f(b..))``.  Returns the charged amount.
        """
        self._check_disjoint(a, b, length)
        charge = 2.0 * (
            self.table.range_cost(a, a + length)
            + self.table.range_cost(b, b + length)
        )
        self.time += charge
        self.counters.add("words_touched", 2 * length)
        self.counters.add("words_moved", 2 * length)
        tmp = self.mem[a : a + length]
        self.mem[a : a + length] = self.mem[b : b + length]
        self.mem[b : b + length] = tmp
        return charge

    # ------------------------------------------------------------- helpers
    def _check_disjoint(self, a: int, b: int, length: int) -> None:
        if length < 0:
            raise ValueError(f"negative length {length}")
        if a < 0 or b < 0 or a + length > self.size or b + length > self.size:
            raise IndexError(
                f"ranges [{a},{a + length}) / [{b},{b + length}) outside "
                f"memory of size {self.size}"
            )
        if a < b + length and b < a + length and length > 0:
            raise ValueError(
                f"ranges [{a},{a + length}) and [{b},{b + length}) overlap"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HMMMachine(f={self.f.name}, size={self.size}, "
            f"time={self.time:.1f}, ops={self.ops})"
        )
