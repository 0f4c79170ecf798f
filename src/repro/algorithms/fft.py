"""The two n-DFT algorithms of Proposition 8.

Both compute the discrete Fourier transform of an ``n``-vector distributed
one element per processor (``ctx["x"]``, complex).

* :func:`fft_dag_program` — the straightforward schedule of the n-input
  FFT dag: ``log n`` supersteps, one of each label ``0 .. log n - 1``
  (radix-2 DIF; output lands in bit-reversed order).  Running time
  ``O(n^alpha)`` on ``g = x^alpha`` and ``O(log^2 n)`` on ``g = log x``.
* :func:`fft_recursive_program` — the recursive decomposition into two
  layers of independent sub-FFTs (the four-step factorization
  ``m = R * C``): three transpose supersteps per recursion level, each a
  1-relation within the current cluster; output in natural order.
  Running time ``O(n^alpha)`` on ``g = x^alpha`` (same as the DAG
  schedule) but ``O(log n log log n)`` on ``g = log x`` — the pair is the
  paper's §5.3 example that ``g = log x`` ranks algorithms the way the BT
  host does, while ``g = x^alpha`` cannot tell them apart.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dbsp.cluster import log2_exact
from repro.dbsp.program import ProcView, Program, Superstep
from repro.functions import AccessFunction, LogarithmicAccess, PolynomialAccess

__all__ = [
    "fft_dag_program",
    "fft_recursive_program",
    "bit_reverse",
    "dbsp_fft_dag_time_bound",
    "dbsp_fft_recursive_time_bound",
]


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def _default_input(pid: int) -> complex:
    return complex((pid % 7) - 3, ((3 * pid) % 5) - 2)


# --------------------------------------------------------------------- DAG
def fft_dag_program(
    v: int, mu: int = 8, make_value: Callable[[int], complex] | None = None
) -> Program:
    """Straight DAG schedule (radix-2 DIF); output bit-reversed.

    Superstep ``t`` (label ``t``) exchanges stage-``t`` operands; the
    butterfly for stage ``t`` is applied at the start of superstep
    ``t + 1`` (messages become visible at the next superstep), with a
    final local superstep applying the last stage.
    """
    log_v = log2_exact(v)
    vectorizable = make_value is None
    make_value = make_value or _default_input

    steps = [
        Superstep(t, _dag_stage_body(t, v), name=f"fft-stage{t}",
                  array_body=_array_dag_stage_body(t, v))
        for t in range(log_v)
    ]
    steps.append(Superstep(log_v, _dag_finish_body(), name="fft-finish",
                           array_body=_array_dag_finish_body()))

    return Program(
        v,
        mu,
        steps,
        make_context=_fft_context(make_value),
        name=f"fft-dag(n={v})",
        array_schema={"x": "c16"} if vectorizable else None,
    )


class _dag_stage_body:
    """Stage-``t`` body of the DAG schedule.

    A module-level class (not a closure), so a built program pickles.
    """

    __slots__ = ("prev_m", "half")

    def __init__(self, t: int, v: int):
        self.prev_m = v >> (t - 1) if t > 0 else 0
        self.half = v >> (t + 1)

    def __call__(self, view: ProcView) -> None:
        if self.prev_m:
            _apply_butterfly(view, self.prev_m)
        view.send(view.pid ^ self.half, view.ctx["x"])
        view.charge(1)


class _dag_finish_body:
    __slots__ = ()

    def __call__(self, view: ProcView) -> None:
        _apply_butterfly(view, 2)
        view.charge(1)


class _fft_context:
    """``make_context`` for the FFT programs (picklable)."""

    __slots__ = ("make_value",)

    def __init__(self, make_value):
        self.make_value = make_value

    def __call__(self, pid: int) -> dict:
        return {"x": self.make_value(pid)}


def _apply_butterfly(view: ProcView, m: int) -> None:
    """Apply the DIF butterfly of block size ``m`` using the inbox value."""
    (msg,) = view.inbox
    partner_value = msg.payload
    half = m >> 1
    j = view.pid % m
    if j < half:
        view.ctx["x"] = view.ctx["x"] + partner_value
    else:
        w = cmath.exp(-2j * cmath.pi * (j - half) / m)
        view.ctx["x"] = (partner_value - view.ctx["x"]) * w


def _butterfly_twiddles(m: int) -> np.ndarray:
    """Per-``j`` DIF twiddles for block size ``m``, tabulated with the
    scalar body's exact ``cmath.exp`` values (``np.exp`` may differ by an
    ulp, which would break the ``==`` engine-equivalence contract); the
    unused ``j < m/2`` slots are zero."""
    half = m >> 1
    return np.array(
        [
            cmath.exp(-2j * cmath.pi * (j - half) / m) if j >= half else 0.0
            for j in range(m)
        ],
        dtype=np.complex128,
    )


def _cmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Elementwise complex product by the naive real/imag formula.

    CPython's ``complex * complex`` is ``(ac - bd, ad + bc)`` with each
    float64 operation rounded individually; numpy's complex ufunc loop
    may contract to FMA (observed: ~45% of products differ by one ulp),
    so the kernel-path multiply is spelled out in real arithmetic to keep
    the ``==`` engine-equivalence contract.
    """
    out = np.empty(x.shape, dtype=np.complex128)
    out.real = x.real * w.real - x.imag * w.imag
    out.imag = x.real * w.imag + x.imag * w.real
    return out


def _apply_butterfly_array(view, m: int, tw: np.ndarray) -> None:
    """Whole-machine :func:`_apply_butterfly` — complex add/subtract are
    componentwise (bit-identical to Python); the twiddle product goes
    through :func:`_cmul`."""
    partner = view.inbox_payload
    half = m >> 1
    j = view.pids & (m - 1)
    x = view.ctx["x"]
    view.ctx["x"] = np.where(j < half, x + partner, _cmul(partner - x, tw[j]))


class _array_dag_stage_body:
    """Array counterpart of :class:`_dag_stage_body` (picklable)."""

    __slots__ = ("prev_m", "half", "tw")

    def __init__(self, t: int, v: int):
        self.prev_m = v >> (t - 1) if t > 0 else 0
        self.half = v >> (t + 1)
        self.tw = _butterfly_twiddles(self.prev_m) if self.prev_m else None

    def __call__(self, view) -> None:
        if self.prev_m:
            _apply_butterfly_array(view, self.prev_m, self.tw)
        view.send(view.pids ^ self.half, view.ctx["x"])
        view.charge(1)


class _array_dag_finish_body:
    __slots__ = ("tw",)

    def __init__(self):
        self.tw = _butterfly_twiddles(2)

    def __call__(self, view) -> None:
        _apply_butterfly_array(view, 2, self.tw)
        view.charge(1)


# --------------------------------------------------------------- recursive
@dataclass(frozen=True)
class _Event:
    """One communication phase: a label, a send body and the matching
    apply body executed at the start of the next superstep (plus their
    array-kernel counterparts)."""

    label: int
    name: str
    send: Callable[[ProcView], None]
    apply: Callable[[ProcView], None]
    array_send: Callable = None
    array_apply: Callable = None


def fft_recursive_program(
    v: int, mu: int = 8, make_value: Callable[[int], complex] | None = None
) -> Program:
    """Recursive sqrt-decomposition (four-step) schedule; output in order."""
    log_v = log2_exact(v)
    vectorizable = make_value is None
    make_value = make_value or _default_input
    events = _events_for(v, log_v)

    steps: list[Superstep] = []
    for k, event in enumerate(events):
        prev = events[k - 1] if k > 0 else None
        steps.append(
            Superstep(
                event.label,
                _chain(prev.apply if prev else None, event.send),
                name=event.name,
                array_body=_chain(
                    prev.array_apply if prev else None, event.array_send
                ),
            )
        )
    if events:
        steps.append(
            Superstep(0, _chain(events[-1].apply, None), name="fft-flush",
                      array_body=_chain(events[-1].array_apply, None))
        )

    return Program(
        v,
        mu,
        steps,
        make_context=_fft_context(make_value),
        name=f"fft-rec(n={v})",
        array_schema={"x": "c16"} if vectorizable else None,
    )


class _chain:
    """Compose an apply body and a send body into one superstep body.

    Module-level and attribute-based (rather than a specialized closure),
    so the composed bodies pickle.
    """

    __slots__ = ("apply_fn", "send_fn")

    def __init__(self, apply_fn, send_fn):
        self.apply_fn = apply_fn
        self.send_fn = send_fn

    def __call__(self, view: ProcView) -> None:
        apply_fn = self.apply_fn
        if apply_fn is not None:
            apply_fn(view)
        send_fn = self.send_fn
        if send_fn is not None:
            send_fn(view)
        view.charge(1)


def _store(view: ProcView) -> None:
    """Apply body of a transpose: adopt the (single) routed value."""
    (msg,) = view.inbox
    view.ctx["x"] = msg.payload


def _array_store(view) -> None:
    """Array counterpart of :func:`_store` (every processor received)."""
    view.ctx["x"] = view.inbox_payload


def _events_for(m: int, log_v: int) -> list[_Event]:
    """Communication events of the recursive FFT on ``m``-clusters (SPMD)."""
    if m <= 1:
        return []
    label = log_v - log2_exact(m)
    if m == 2:
        return [
            _Event(label, f"fft2@{label}", _fft2_send(), _fft2_apply(),
                   _array_fft2_send(), _array_fft2_apply())
        ]

    log_m = log2_exact(m)
    r = 1 << ((log_m + 1) // 2)  # R: size of the first (column-DFT) layer
    c = m // r

    # destination offsets and twiddles depend only on j = pid % m:
    # tabulate once per event instead of divmod/cmath.exp per execution
    # (total table size over the recursion is O(m))
    t1_dest = [(j % c) * r + j // c for j in range(m)]
    t2_dest = [(j % r) * c + j // r for j in range(m)]
    t2_tw = [cmath.exp(-2j * cmath.pi * (j // r) * (j % r) / m) for j in range(m)]
    t3_dest = [(j % c) * r + j // c for j in range(m)]

    events = [
        _Event(label, f"fft-T1@{label}", _transpose(m, t1_dest), _store,
               _array_transpose(m, t1_dest), _array_store)
    ]
    events += _events_for(r, log_v)
    events.append(
        _Event(label, f"fft-T2@{label}", _transpose(m, t2_dest, t2_tw), _store,
               _array_transpose(m, t2_dest, t2_tw), _array_store)
    )
    events += _events_for(c, log_v)
    events.append(
        _Event(label, f"fft-T3@{label}", _transpose(m, t3_dest), _store,
               _array_transpose(m, t3_dest), _array_store)
    )
    return events


class _fft2_send:
    __slots__ = ()

    def __call__(self, view: ProcView) -> None:
        view.send(view.pid ^ 1, view.ctx["x"])


class _fft2_apply:
    __slots__ = ()

    def __call__(self, view: ProcView) -> None:
        (msg,) = view.inbox
        if view.pid & 1:
            view.ctx["x"] = msg.payload - view.ctx["x"]
        else:
            view.ctx["x"] = view.ctx["x"] + msg.payload


class _transpose:
    """Send body of a transpose event: route ``j = pid % m`` to ``dest[j]``,
    multiplying in the twiddle ``tw[j]`` when given (picklable)."""

    __slots__ = ("m", "dest", "tw")

    def __init__(self, m: int, dest: list[int], tw: list[complex] | None = None):
        self.m = m
        self.dest = dest
        self.tw = tw

    def __call__(self, view: ProcView) -> None:
        j = view.pid % self.m
        tw = self.tw
        if tw is None:
            view.send(view.pid - j + self.dest[j], view.ctx["x"])
        else:
            view.send(view.pid - j + self.dest[j], view.ctx["x"] * tw[j])


class _array_fft2_send:
    __slots__ = ()

    def __call__(self, view) -> None:
        view.send(view.pids ^ 1, view.ctx["x"])


class _array_fft2_apply:
    __slots__ = ()

    def __call__(self, view) -> None:
        p = view.inbox_payload
        x = view.ctx["x"]
        view.ctx["x"] = np.where((view.pids & 1) == 0, x + p, p - x)


class _array_transpose:
    """Array counterpart of :class:`_transpose` — the per-``j`` tables
    become gather arrays (picklable)."""

    __slots__ = ("m", "dest", "tw")

    def __init__(self, m: int, dest: list[int], tw: list[complex] | None = None):
        self.m = m
        self.dest = np.array(dest, dtype=np.int64)
        self.tw = None if tw is None else np.array(tw, dtype=np.complex128)

    def __call__(self, view) -> None:
        j = view.pids & (self.m - 1)
        base = view.pids - j
        tw = self.tw
        if tw is None:
            view.send(base + self.dest[j], view.ctx["x"])
        else:
            view.send(base + self.dest[j], _cmul(view.ctx["x"], tw[j]))


# ------------------------------------------------------------------ bounds
def dbsp_fft_dag_time_bound(g: AccessFunction, n: int, mu: int = 8) -> float:
    """Proposition 8 / §5.3: DAG-schedule D-BSP time shape."""
    if isinstance(g, PolynomialAccess):
        return float(n) ** g.alpha
    if isinstance(g, LogarithmicAccess):
        return math.log2(max(n, 2)) ** 2
    raise ValueError(f"no stated bound for {g!r}")


def dbsp_fft_recursive_time_bound(g: AccessFunction, n: int, mu: int = 8) -> float:
    """Proposition 8: recursive-schedule D-BSP time shape."""
    if isinstance(g, PolynomialAccess):
        return float(n) ** g.alpha
    if isinstance(g, LogarithmicAccess):
        lg = math.log2(max(n, 2))
        return lg * math.log2(max(lg, 2))
    raise ValueError(f"no stated bound for {g!r}")
