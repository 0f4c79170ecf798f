"""Memory access functions and charged-cost tables.

The HMM and BT models of the paper are parameterized by a nondecreasing
*access function* ``f(x)``: reading or writing memory location ``x`` costs
``f(x)`` time units.  The paper restricts attention to *(2, c)-uniform*
functions, i.e. functions for which there is a constant ``c >= 1`` with
``f(2x) <= c * f(x)`` for all ``x`` (called "well behaved" in [3] and
"polynomially bounded" in [1]).

This module provides:

* the access functions used throughout the paper as case studies —
  :class:`PolynomialAccess` (``f(x) = x**alpha``) and
  :class:`LogarithmicAccess` (``f(x) = log x``) — plus
  :class:`ConstantAccess` (flat RAM) and :class:`LinearAccess` (useful in
  tests as an extreme hierarchy);
* an empirical (2, c)-uniformity estimator (:func:`two_c_uniformity`);
* the iterated-function machinery ``f*`` used by Fact 2
  (:func:`iterated_star`);
* :class:`CostTable`, a prefix-sum table giving O(1) charged cost for any
  contiguous range of addresses (the workhorse that keeps the operational
  simulators fast, per the HPC guides' "no per-element Python loops" rule).

Conventions
-----------
Addresses are 0-based.  To keep every access cost strictly positive and the
logarithmic function (2, c)-uniform down to address 0, the concrete
functions shift their argument: ``PolynomialAccess(alpha)(x) = (x+1)**alpha``
and ``LogarithmicAccess()(x) = log2(x+2)``.  Both are nondecreasing and
(2, c)-uniform (with ``c = 2**alpha`` and ``c = 2`` respectively), and both
have the asymptotic growth the paper assumes, so all Theta-bounds carry
over verbatim.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "AccessFunction",
    "PolynomialAccess",
    "LogarithmicAccess",
    "ConstantAccess",
    "LinearAccess",
    "StaircaseAccess",
    "VectorizationWarning",
    "two_c_uniformity",
    "iterated_star",
    "log_star",
    "CostTable",
]


class VectorizationWarning(RuntimeWarning):
    """An access function fell back to per-element scalar evaluation.

    Raised-as-warning by :meth:`AccessFunction.evaluate`'s default
    implementation: building a :class:`CostTable` through it is ~100x
    slower than through a real numpy expression, which silently dominates
    machine construction for large memories.  Override ``evaluate`` in
    the subclass to get rid of it.
    """


class AccessFunction:
    """Base class for nondecreasing access functions ``f(x)``.

    Subclasses implement :meth:`__call__` on scalars and
    :meth:`evaluate` on numpy arrays (vectorized).  ``name`` is used in
    reports and benchmark tables.
    """

    #: Human-readable name, e.g. ``"x^0.5"``.
    name: str = "f"

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an address array.

        Subclasses should override this with a real numpy expression.
        The default applies the scalar :meth:`__call__` per element
        (``np.frompyfunc`` plus a float64 cast — the fastest generic
        fallback, but still a Python-level loop, roughly two orders of
        magnitude slower than a vectorized override) and warns once per
        instance, so a new access function cannot quietly de-vectorize
        :class:`CostTable` construction.  The ufunc is built on the
        first call and cached on the instance — rebuilding it (and
        re-warning) on every call made repeated table construction
        measurably slower and drowned the warning in duplicates.
        """
        ufunc = getattr(self, "_evaluate_ufunc", None)
        if ufunc is None:
            warnings.warn(
                f"{type(self).__name__} does not override evaluate(); "
                f"falling back to per-element scalar evaluation, which makes "
                f"CostTable construction ~100x slower — add a vectorized "
                f"evaluate() override",
                VectorizationWarning,
                stacklevel=2,
            )
            ufunc = np.frompyfunc(self.__call__, 1, 1)
            try:
                # most access functions are frozen dataclasses: go around
                # the immutability for this private cache slot
                object.__setattr__(self, "_evaluate_ufunc", ufunc)
            except (AttributeError, TypeError):
                pass  # __slots__ without the field: stay uncached
        return ufunc(np.asarray(xs, dtype=np.float64)).astype(np.float64)

    def star(self, n: float) -> int:
        """``f*(n)``, the iterated-application count of Fact 2."""
        return iterated_star(self, n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


@dataclass(frozen=True, repr=False)
class PolynomialAccess(AccessFunction):
    """``f(x) = (x + 1)**alpha`` for ``0 < alpha < 1``.

    (2, c)-uniform with ``c = 2**alpha``.
    """

    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "name", f"x^{self.alpha:g}")

    name: str = field(init=False, default="x^a")

    def __call__(self, x: float) -> float:
        return (x + 1.0) ** self.alpha

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        return np.power(np.asarray(xs, dtype=np.float64) + 1.0, self.alpha)


@dataclass(frozen=True, repr=False)
class LogarithmicAccess(AccessFunction):
    """``f(x) = log2(x + 2)``.

    (2, 2)-uniform: ``log2(2x+2) <= log2(x+2) + 1 <= 2 log2(x+2)`` since
    ``log2(x+2) >= 1`` for all ``x >= 0``.
    """

    name: str = field(init=False, default="log x")

    def __call__(self, x: float) -> float:
        return math.log2(x + 2.0)

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        return np.log2(np.asarray(xs, dtype=np.float64) + 2.0)


@dataclass(frozen=True, repr=False)
class ConstantAccess(AccessFunction):
    """``f(x) = 1``: the flat RAM, useful as a degenerate baseline."""

    name: str = field(init=False, default="1")

    def __call__(self, x: float) -> float:
        return 1.0

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(xs, dtype=np.float64))


@dataclass(frozen=True, repr=False)
class LinearAccess(AccessFunction):
    """``f(x) = x + 1``: the steepest (2, 2)-uniform hierarchy.

    Not one of the paper's case studies (``alpha < 1`` is assumed in the BT
    sections), but valid for the HMM results and a useful stress test.
    """

    name: str = field(init=False, default="x")

    def __call__(self, x: float) -> float:
        return x + 1.0

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=np.float64) + 1.0


class StaircaseAccess(AccessFunction):
    """A staircase access function modeling a concrete cache hierarchy.

    ``levels`` is a sequence of ``(capacity_words, latency)`` pairs with
    strictly increasing capacities and nondecreasing latencies; an access
    to address ``x`` costs the latency of the innermost level whose
    capacity exceeds ``x`` (addresses beyond the last level pay
    ``beyond``, default the last latency).  The default models a
    contemporary four-level hierarchy (L1/L2/L3/DRAM, in words and
    cycles).

    Staircases are how real machines look; the paper's theorems apply to
    them as long as the staircase is (2, c)-uniform, which holds whenever
    each level is at most ``c`` times slower than the previous one *and*
    at least twice as large (then f(2x)/f(x) <= c: doubling an address
    climbs at most one level).  The default satisfies this with c = 8.
    """

    DEFAULT_LEVELS = (
        (1 << 12, 1.0),     # 32 KiB L1, ~1 cycle-unit
        (1 << 16, 4.0),     # 512 KiB L2
        (1 << 21, 16.0),    # 16 MiB L3
        (1 << 28, 128.0),   # DRAM
    )

    def __init__(
        self,
        levels: tuple[tuple[int, float], ...] = DEFAULT_LEVELS,
        beyond: float | None = None,
    ):
        if not levels:
            raise ValueError("need at least one level")
        caps = [cap for cap, _ in levels]
        lats = [lat for _, lat in levels]
        if caps != sorted(set(caps)):
            raise ValueError(f"capacities must strictly increase: {caps}")
        if lats != sorted(lats) or lats[0] <= 0:
            raise ValueError(f"latencies must be positive, nondecreasing: {lats}")
        self.levels = tuple((int(cap), float(lat)) for cap, lat in levels)
        self.beyond = float(beyond if beyond is not None else lats[-1])
        if self.beyond < lats[-1]:
            raise ValueError("beyond-capacity latency cannot shrink")
        self.name = f"staircase[{len(self.levels)}]"
        self._caps = np.asarray(caps, dtype=np.float64)
        self._lats = np.asarray(lats + [self.beyond], dtype=np.float64)

    def __call__(self, x: float) -> float:
        idx = int(np.searchsorted(self._caps, x, side="right"))
        return float(self._lats[idx])

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._caps, np.asarray(xs, dtype=np.float64),
                              side="right")
        return self._lats[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaircaseAccess({self.levels!r})"


def two_c_uniformity(f: AccessFunction, max_x: int = 1 << 20) -> float:
    """Empirically estimate the smallest ``c`` with ``f(2x) <= c f(x)``.

    Samples x geometrically (every power of two and three interior points
    per octave) up to ``max_x``.  Returns the supremum of the observed
    ratios; a function is considered (2, c)-uniform when this is bounded by
    a small constant as ``max_x`` grows.
    """
    xs: list[int] = []
    x = 1
    while x <= max_x:
        xs.extend((x, x + x // 4, x + x // 2, x + 3 * (x // 4)))
        x *= 2
    arr = np.unique(np.asarray([x for x in xs if x <= max_x], dtype=np.int64))
    num = f.evaluate(2 * arr)
    den = f.evaluate(arr)
    return float(np.max(num / den))


def iterated_star(f: AccessFunction, n: float, _cap: int = 512) -> int:
    """``f*(n) = min{k >= 1 : f^(k)(n) <= 4}``.

    Fact 2 states that touching ``n`` cells on ``f(x)``-BT costs
    ``Theta(n f*(n))``.  The iteration threshold is a constant (4) chosen
    strictly above the fixed points of the shifted case-study functions
    (``(x+1)^0.5`` has fixed point ~1.62, ``log2(x+2)`` exactly 2); any
    constant threshold above the fixed point yields the same Theta class —
    ``Theta(log log n)`` for ``x^alpha`` and ``Theta(log* n)`` for
    ``log x``.  The cap turns a hypothetical non-convergent access
    function into a loud error instead of a hang.
    """
    k = 0
    value = float(n)
    while value > 4.0:
        value = f(value)
        k += 1
        if k > _cap:
            raise RuntimeError(
                f"f*({n}) did not converge within {_cap} iterations for {f!r}"
            )
    return max(k, 1)


def log_star(n: float) -> int:
    """Classic ``log* n`` (iterated log2 to <= 4), matching :func:`iterated_star`."""
    k = 0
    value = float(n)
    while value > 4.0:
        value = math.log2(value)
        k += 1
    return max(k, 1)


#: below this size a table also keeps plain-Python mirrors of the prefix
#: array: scalar ``access``/``range_cost`` then run on list indexing,
#: several times faster than numpy scalar indexing plus ``float()``.
#: Simulation machines are far below this; only the very large touching
#: sweeps (n up to 2^22) take the numpy-only branch.
_SCALAR_LIST_MAX = 1 << 18


class CostTable:
    """Prefix-sum table of an access function over ``[0, size)``.

    ``range_cost(lo, hi)`` returns ``sum_{x in [lo, hi)} f(x)`` in O(1),
    which is the charged cost of touching a contiguous address range once.
    All operational machines use this to charge bulk context moves without
    per-word Python loops.  :meth:`access_many` /:meth:`fold_access` are
    the gather-style batched face of the same table: one numpy (or tight
    list-indexing) pass charging an arbitrary *set* of addresses, used by
    the machines' bulk primitives.

    A table is immutable after construction; prefer :meth:`shared` to the
    constructor so machines built repeatedly over the same ``(f, size)``
    (geometric benchmark sweeps, repeated simulations) reuse one instance
    instead of paying the O(size) evaluate + cumsum each time.
    """

    def __init__(self, f: AccessFunction, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.f = f
        self.size = int(size)
        values = f.evaluate(np.arange(self.size, dtype=np.float64))
        if np.any(values < 0):
            raise ValueError("access function must be nonnegative")
        if np.any(np.diff(values) < -1e-12):
            raise ValueError("access function must be nondecreasing")
        self._prefix = np.zeros(self.size + 1, dtype=np.float64)
        np.cumsum(values, out=self._prefix[1:])
        if self.size <= _SCALAR_LIST_MAX:
            # Python mirrors for the scalar hot paths.  The per-address
            # costs are the *prefix differences* (not `values`): scalar
            # and batched charging must produce bit-identical sums.
            self._prefix_list: list[float] | None = self._prefix.tolist()
            self._cost_list: list[float] | None = np.subtract(
                self._prefix[1:], self._prefix[:-1]
            ).tolist()
        else:
            self._prefix_list = None
            self._cost_list = None

    @classmethod
    def shared(cls, f: AccessFunction, size: int) -> "CostTable":
        """A process-wide cached table for ``(f, size)``.

        Tables are read-only, so sharing is safe; the cache is keyed by
        the access function's own equality (value equality for the frozen
        dataclass functions, identity otherwise).  Unhashable functions
        fall back to a fresh table.
        """
        try:
            return _shared_cost_table(f, int(size))
        except TypeError:  # unhashable custom function
            return cls(f, size)

    def access(self, x: int) -> float:
        """Charged cost of a single access to address ``x``."""
        if not 0 <= x < self.size:
            raise IndexError(f"address {x} outside [0, {self.size})")
        costs = self._cost_list
        if costs is not None:
            return costs[x]
        return float(self._prefix[x + 1] - self._prefix[x])

    def range_cost(self, lo: int, hi: int) -> float:
        """Charged cost of touching every address in ``[lo, hi)`` once."""
        if not 0 <= lo <= hi <= self.size:
            raise IndexError(f"range [{lo}, {hi}) outside [0, {self.size})")
        prefix = self._prefix_list
        if prefix is not None:
            return prefix[hi] - prefix[lo]
        return float(self._prefix[hi] - self._prefix[lo])

    def prefix_cost(self, n: int) -> float:
        """Cost of touching the first ``n`` cells: Fact 1 says Theta(n f(n))."""
        return self.range_cost(0, n)

    # ------------------------------------------------------ batched access
    def access_many(self, xs) -> np.ndarray:
        """Per-address charged costs for an address array (one gather).

        Each element equals ``access(x)`` bit-for-bit.  Accepts any
        sequence; validates the whole batch at once.
        """
        xi = np.asarray(xs, dtype=np.intp)
        if xi.size and (int(xi.min()) < 0 or int(xi.max()) >= self.size):
            raise IndexError(
                f"batched addresses outside [0, {self.size}): "
                f"range [{int(xi.min())}, {int(xi.max())}]"
            )
        return self._prefix[xi + 1] - self._prefix[xi]

    def fold_access(self, t0: float, xs) -> float:
        """``t0 + f(x_1) + f(x_2) + ...`` folded strictly left-to-right.

        Bit-identical to the scalar loop ``for x in xs: t0 += access(x)``
        — this is what lets the machines batch their charging without
        perturbing any charged total by even one ulp.  Lists take a tight
        list-indexing loop; arrays (or tables too large for the Python
        mirror) take a numpy gather followed by a sequential ``cumsum``
        (which accumulates left-to-right, unlike pairwise ``np.sum``).
        """
        costs = self._cost_list
        if costs is not None and not isinstance(xs, np.ndarray):
            if xs:
                if min(xs) < 0 or max(xs) >= self.size:
                    raise IndexError(
                        f"batched addresses outside [0, {self.size})"
                    )
                for x in xs:
                    t0 += costs[x]
            return t0
        gathered = self.access_many(xs)
        if not gathered.size:
            return t0
        buf = np.empty(gathered.size + 1, dtype=np.float64)
        buf[0] = t0
        buf[1:] = gathered
        np.cumsum(buf, out=buf)
        return float(buf[-1])


@lru_cache(maxsize=32)
def _shared_cost_table(f: AccessFunction, size: int) -> CostTable:
    return CostTable(f, size)
