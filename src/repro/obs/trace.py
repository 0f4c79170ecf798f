"""Nested cost spans over a charged-cost clock, kept as one span table.

A *span walk* is the sequence of ``open``/``add_leaf``/``close`` calls
an engine makes around its scheduler phases (a round, a PACK, a
delivery sort, ...).  It is stored as one table (:class:`Spans`): a row
per call, holding the *positions* in a clock array where the call reads
the clock.  Both clocks of the package write that table:

* a :class:`Tracer` is bound to a live *clock*, a zero-argument
  callable returning the engine's accumulated charged cost (e.g.
  ``machine.time``); every call appends the clock values it reads to
  the tracer's own value array, and its row points into that array;
* an :class:`EventRecorder`, the tracer's base class, records positions
  in a clock that does not exist yet: the compiled charge tapes of
  :mod:`repro.sim.kernel` record their walk once and fold their clock
  once per run.

A span's **cost** is the clock delta between open and close; its
**self cost** is that delta minus the cost of its child spans.  Self
costs are attributed to *phase categories* (a span without a category
inherits its parent's; a root span without one counts as ``"other"``),
so the per-category totals partition the traced time — the invariant
the breakdown tests pin down.  What a caller reads is a view of the
table over a clock array: the totals are :func:`fold_phases` over the
walk compiled by :func:`phase_events` (two ``np.bincount`` calls), the
spans the :class:`SpanRecord` list of :func:`span_records`, which
results and exports carry.  Opening and closing a span appends one row
and a clock value, so engines can trace inside their scheduler loops;
:data:`NULL_TRACER` makes the whole layer disappear (every method is a
no-op and no state is kept).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

__all__ = [
    "SpanRecord",
    "Spans",
    "EventRecorder",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "OTHER",
    "PhaseEvents",
    "phase_events",
    "fold_phases",
    "span_records",
    "tag_spans",
    "merge_span_lists",
]

#: category that uncategorized root-level self cost is attributed to
OTHER = "other"

#: spans a walk's :class:`SpanRecord` list keeps at most, bounding trace
#: memory on huge runs (the phase totals still count every span)
MAX_SPANS = 1 << 20

#: span table row kinds
LEAF, OPEN, CLOSE = range(3)


@dataclass
class SpanRecord:
    """One closed span: tree position, clock interval, attributed costs."""

    index: int
    parent: int  #: index of the enclosing span, or -1 for a root span
    depth: int
    name: str
    category: str  #: effective phase category (inherited when not given)
    start: float  #: clock value when the span opened
    end: float = 0.0  #: clock value when the span closed
    cost: float = 0.0  #: end - start
    self_cost: float = 0.0  #: cost minus the cost of child spans
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "cost": self.cost,
            "self_cost": self.self_cost,
        }
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "SpanRecord":
        return cls(
            index=doc["index"],
            parent=doc["parent"],
            depth=doc["depth"],
            name=doc["name"],
            category=doc["category"],
            start=doc["start"],
            end=doc["end"],
            cost=doc["cost"],
            self_cost=doc["self_cost"],
            attrs=doc.get("attrs", {}),
        )


def tag_spans(spans: list[SpanRecord], worker: Any) -> list[SpanRecord]:
    """Mark every span with the worker that produced it (in place).

    Fan-out consumers (the parallel sweep runner) collect span lists from
    worker processes; tagging keeps provenance visible after the lists
    are merged.  Returns ``spans`` for chaining.
    """
    for span in spans:
        span.attrs["worker"] = worker
    return spans


def merge_span_lists(lists: list[list[SpanRecord]]) -> list[SpanRecord]:
    """Deterministically concatenate per-worker span lists into one.

    Each input list is a self-contained span forest over its worker's own
    charged-cost clock; merging re-indexes spans (``index``/``parent``
    shifted by the running offset) so the result is again a valid forest,
    in input order.  Clock values are left untouched — spans from
    different workers measure different clocks, which is why consumers
    tag them (:func:`tag_spans`) rather than splicing the timelines.
    """
    merged: list[SpanRecord] = []
    for spans in lists:
        offset = len(merged)
        for span in spans:
            merged.append(
                SpanRecord(
                    index=span.index + offset,
                    parent=span.parent + offset if span.parent >= 0 else -1,
                    depth=span.depth,
                    name=span.name,
                    category=span.category,
                    start=span.start,
                    end=span.end,
                    cost=span.cost,
                    self_cost=span.self_cost,
                    attrs=dict(span.attrs),
                )
            )
    return merged


# ---------------------------------------------------------------- table
class Spans(NamedTuple):
    """A span walk by clock position: the tracer calls, with the
    positions in a clock array where each call reads the clock.

    ``rows[k] = (kind, code, start, end)``: an ``OPEN`` or ``CLOSE``
    at position ``start`` (the clock ``open``/``close`` reads is
    ``clk[start]``), or a ``LEAF`` from ``start`` to ``end``.
    ``names[code]`` is ``(name, category, attribute keys)`` (a close's
    code is unused), and ``attrs`` holds the attribute values of every
    open with keys, in row order.
    """

    rows: np.ndarray
    names: tuple[tuple[str, str | None, tuple[str, ...]], ...]
    attrs: tuple


class EventRecorder:
    """Records a span walk into a :class:`Spans` table.

    ``open``/``add_leaf``/``close`` append one row each; ``clock`` and
    the leaf bounds give *positions* (indices into the clock array the
    walk will be read over, such as a tape's folded clock).  A compiler
    that knows its positions passes them as ``at``.  :class:`Tracer`
    is this recorder over a live clock.
    """

    enabled = True
    #: whether callers pass ``open`` its span attributes (a live tracer
    #: keeps them only in ``full`` mode)
    record = True

    def __init__(self, clock: Callable[[], Any] | None = None) -> None:
        self.clock = clock
        self._rows = array("q")
        self._names: dict[tuple, int] = {}
        self._attrs: list = []
        self._open: list[str] = []  # names of the open spans, outermost first

    def _code(self, name: str, category: str | None, keys=()) -> int:
        return self._names.setdefault((name, category, keys), len(self._names))

    def open(
        self,
        name: str,
        category: str | None = None,
        attrs: dict[str, Any] | None = None,
        at: int | None = None,
    ) -> None:
        """Open a span (pair with :meth:`close`)."""
        keys = ()
        if attrs:
            keys = tuple(attrs)
            self._attrs.extend(attrs.values())
        at = self.clock() if at is None else at
        self._rows.extend((OPEN, self._code(name, category, keys), at, 0))
        self._open.append(name)

    def add_leaf(self, name: str, category: str, start: int, end: int) -> None:
        """A childless span from ``start`` to ``end``, in one row."""
        self._rows.extend((LEAF, self._code(name, category), start, end))

    def close(self, at: int | None = None) -> None:
        """Close the innermost open span."""
        self._open.pop()
        at = self.clock() if at is None else at
        self._rows.extend((CLOSE, 0, at, 0))

    def walk(self) -> Spans:
        """The table recorded so far, its rows in their smallest type
        (compiled tapes keep theirs cached)."""
        rows = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, 4)
        return Spans(
            rows.astype(np.min_scalar_type(rows.max(initial=0))),
            tuple(self._names),
            tuple(self._attrs),
        )

    def table(self) -> "PhaseEvents":
        """The walk compiled for :func:`fold_phases`."""
        return phase_events(self.walk())

    def assert_closed(self) -> None:
        """Raise if any span is still open (engine bookkeeping bug)."""
        if self._open:
            raise AssertionError(
                f"unclosed spans at end of run: {' > '.join(self._open)}"
            )


class PhaseEvents(NamedTuple):
    """A span walk compiled into rows, for :func:`fold_phases`.

    One row per leaf and per close of the walk, in call order: row
    ``k`` has category ``names[category[k]]``, covers the clock from
    ``clk[start[k]]`` to ``clk[end[k]]`` and lies inside the span
    closed at row ``parent[k]`` (``len(category)`` for a root row).
    ``names`` is in order of first appearance.
    """

    names: tuple[str, ...]
    category: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray


def phase_events(spans: Spans) -> PhaseEvents:
    """Compile a closed span walk into its :class:`PhaseEvents` rows.

    A span opened without a category inherits its parent's, and a root
    span without one counts as ``"other"``.
    """
    names: dict[str, int] = {}
    #: per row: category code, start, end, open index of the enclosing span
    out: list[tuple[int, int, int, int]] = []
    close_row: list[int] = []  # row of each open's close
    stack: list[tuple[str | None, int, int]] = []
    for kind, code, t0, t1 in spans.rows.tolist():
        cat = spans.names[code][1]
        if kind == OPEN:
            if cat is None and stack:
                cat = stack[-1][0]
            stack.append((cat, t0, len(close_row)))
            close_row.append(-1)
            continue
        if kind == CLOSE:  # from the open's position to the close's
            t1 = t0
            cat, t0, index = stack.pop()
            close_row[index] = len(out)
        key = names.setdefault(OTHER if cat is None else cat, len(names))
        out.append((key, t0, t1, stack[-1][2] if stack else -1))
    assert not stack, "unclosed spans in a span walk"
    category, start, end, parent = np.array(out, dtype=np.int64).reshape(-1, 4).T
    # root rows point one past the last row: a bin nobody reads
    close_row.append(len(out))
    pos_type = np.min_scalar_type(end.max(initial=0))
    return PhaseEvents(
        tuple(names),
        category.astype(np.min_scalar_type(len(names))),
        start.astype(pos_type),
        end.astype(pos_type),
        np.array(close_row)[parent].astype(np.min_scalar_type(len(out))),
    )


def fold_phases(events: PhaseEvents, clk) -> dict[str, float]:
    """Per-category self-cost totals of a compiled walk over ``clk``.

    The serial sums, bit for bit: a row's cost is ``clk[end] -
    clk[start]``, a span's child cost is the sum of its child rows'
    costs in call order (one ``bincount``), its self cost is cost minus
    child cost (a leaf has no children), and each category's total is
    the sum of its rows' self costs in call order (a second
    ``bincount``), keyed in order of first appearance.  ``bincount``
    adds its weights one at a time from ``0.0``, the order of a running
    ``+=`` — unlike ``np.add.reduce``, which may add pairwise.

    Two rounds, the first with a swap span inside it, walked once by a
    tracer over the clock and once by a recorder over its positions:

    >>> clk = [0.0, 0.1, 0.3, 0.7, 1.5, 3.1]
    >>> pos = 0
    >>> tracer = Tracer(clock=lambda: clk[pos])
    >>> rec = EventRecorder(clock=lambda: pos)
    >>> for walker, at in ((tracer, clk), (rec, range(len(clk)))):
    ...     for first, last in ((0, 3), (3, 5)):
    ...         pos = first
    ...         walker.open("round")
    ...         walker.add_leaf("local", "local", at[first], at[first + 1])
    ...         if last - first == 3:
    ...             pos = first + 1
    ...             walker.open("cycle-swaps", "swaps")
    ...             walker.add_leaf("swap", "swaps", at[first + 1], at[last])
    ...             pos = last
    ...             walker.close()
    ...         pos = last
    ...         walker.close()
    >>> events = rec.table()
    >>> events.names
    ('local', 'swaps', 'other')
    >>> totals = fold_phases(events, clk)
    >>> list(totals) == list(tracer.totals)
    True
    >>> [x.hex() for x in totals.values()] == [
    ...     x.hex() for x in tracer.totals.values()]
    True
    """
    clk = np.asarray(clk, dtype=np.float64)
    n = len(events.category)
    cost = clk[events.end] - clk[events.start]
    child = np.bincount(events.parent, weights=cost, minlength=n + 1)[:n]
    totals = np.bincount(
        events.category, weights=cost - child, minlength=len(events.names)
    )
    return dict(zip(events.names, totals.tolist()))


def span_records(spans: Spans, clk, limit: int = MAX_SPANS) -> list[SpanRecord]:
    """The first ``limit`` spans of a closed walk over ``clk``, in
    open order.

    A span starts and ends at ``clk`` of its positions; its cost is
    ``end - start`` and its self cost the cost minus its children's
    costs, added one at a time in call order, as :func:`fold_phases`
    adds them.  A span without a category takes its parent's, and a
    root span without one gets ``"other"``.  Spans past ``limit`` are
    not kept but still count in their ancestors' self costs.

    The two clocks make one table: a live tracer and a recorder over
    positions, walked through the same calls, record the same rows but
    for their positions, and give the same spans:

    >>> clk = [0.0, 0.5, 2.0]
    >>> pos = 0
    >>> tracer = Tracer(clock=lambda: clk[pos], record=True)
    >>> rec = EventRecorder(clock=lambda: pos)
    >>> for walker, at in ((tracer, clk), (rec, range(3))):
    ...     pos = 0
    ...     walker.open("round", None, {"superstep": 4})
    ...     walker.add_leaf("local", "local", at[0], at[1])
    ...     pos = 2
    ...     walker.close()
    >>> live, compiled = tracer.walk(), rec.walk()
    >>> live.names == compiled.names and live.attrs == compiled.attrs
    True
    >>> live.rows[:, :2].tolist() == compiled.rows[:, :2].tolist()
    True
    >>> span_records(compiled, clk) == tracer.spans
    True
    >>> [(s.name, s.category, s.cost, s.self_cost, s.attrs)
    ...  for s in tracer.spans]
    [('round', 'other', 2.0, 1.5, {'superstep': 4}), ('local', 'local', 0.5, 0.5, {})]
    """
    clk = np.asarray(clk, dtype=np.float64)
    rows = spans.rows
    attrs = iter(spans.attrs)
    out: list[SpanRecord] = []
    #: per open span: [start, child cost, category, its record or None]
    stack: list[list] = []
    for kind, code, now, end in zip(
        rows[:, 0].tolist(),
        rows[:, 1].tolist(),
        clk[rows[:, 2]].tolist(),
        clk[rows[:, 3]].tolist(),
    ):
        if kind == CLOSE:
            start, child, _, rec = stack.pop()
            cost = now - start
            if rec is not None:
                rec.end, rec.cost, rec.self_cost = now, cost, cost - child
        else:
            name, category, keys = spans.names[code]
            if category is None:
                category = stack[-1][2] if stack else OTHER
            values = {key: next(attrs) for key in keys}
            rec = None
            if len(out) < limit:
                parent = stack[-1][3].index if stack else -1
                rec = SpanRecord(
                    len(out), parent, len(stack), name, category, now, attrs=values
                )
                out.append(rec)
            if kind == OPEN:
                stack.append([now, 0.0, category, rec])
                continue
            cost = end - now
            if rec is not None:
                rec.end, rec.cost, rec.self_cost = end, cost, cost
        if stack:
            stack[-1][1] += cost
    return out


# ---------------------------------------------------------------- tracer
class _SpanContext:
    """Context-manager sugar over ``Tracer.open``/``Tracer.close``."""

    __slots__ = ("tracer", "name", "category", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str | None,
        attrs: dict[str, Any] | None,
    ):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs

    def __enter__(self) -> None:
        self.tracer.open(self.name, self.category, self.attrs)

    def __exit__(self, *exc) -> None:
        self.tracer.close()


class Tracer(EventRecorder):
    """A span recorder bound to a live charged-cost clock.

    Every call appends the clock values it reads (the clock at ``open``
    and ``close``, a leaf's bounds) to the tracer's value array and a
    row pointing at them to its table; :attr:`totals`, :attr:`counts`
    and :attr:`spans` are views of the closed walk over those values.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the engine's accumulated
        charged cost.  Spans measure deltas of this clock, so wall time
        never enters the picture — traces are deterministic.
    record:
        Keep span attributes and report :attr:`spans` (``full`` mode).
        Off by default: only the per-category views are read.
    max_spans:
        :attr:`spans` keeps at most this many (the totals still count
        every span), bounding trace memory on huge runs.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        record: bool = False,
        max_spans: int = MAX_SPANS,
    ):
        super().__init__(clock)
        self.record = record
        self.max_spans = max_spans
        self._clk = array("d")

    # ----------------------------------------------------------- span API
    def span(
        self,
        name: str,
        category: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> _SpanContext:
        """``with tracer.span("COMPUTE", "compute"): ...``"""
        return _SpanContext(self, name, category, attrs)

    def open(
        self,
        name: str,
        category: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        """Open a span; hot-path form (pair with :meth:`close`)."""
        self._clk.append(self.clock())
        super().open(name, category, attrs, len(self._clk) - 1)

    def add_leaf(self, name: str, category: str, start: float, end: float) -> None:
        """Record a childless span in one call — hottest-path form.

        Exactly equivalent to ``open(name, category)`` with the clock at
        ``start`` followed by ``close()`` with the clock at ``end`` and no
        children opened in between: same totals, same counts, same parent
        child-cost attribution, same recorded span, all computed with the
        identical float arithmetic.  Engines use it around their
        innermost charging blocks.
        """
        self._clk.extend((start, end))
        super().add_leaf(name, category, len(self._clk) - 2, len(self._clk) - 1)

    def close(self) -> None:
        """Close the innermost open span."""
        self._clk.append(self.clock())
        super().close(len(self._clk) - 1)

    # ------------------------------------------------------------- views
    @property
    def totals(self) -> dict[str, float]:
        """Per-category self-cost totals (the breakdown substrate), in
        order of first appearance."""
        return fold_phases(self.table(), self._clk)

    @property
    def counts(self) -> dict[str, int]:
        """Per-category span counts."""
        events = self.table()
        counts = np.bincount(events.category, minlength=len(events.names))
        return dict(zip(events.names, counts.tolist()))

    @property
    def spans(self) -> list[SpanRecord]:
        """The recorded spans (``record`` only; at most ``max_spans``)."""
        if not self.record:
            return []
        return span_records(self.walk(), self._clk, self.max_spans)

    @property
    def truncated_spans(self) -> int:
        """Spans counted but not kept in :attr:`spans`."""
        if not self.record:
            return 0
        opened = np.count_nonzero(self.walk().rows[:, 0] != CLOSE)
        return max(0, int(opened) - self.max_spans)

    def phase_totals(self, drop_empty_other: bool = True) -> dict[str, float]:
        """Per-category self-cost totals; their sum is the traced time.

        ``OTHER`` collects uncategorized root-level self cost; it is
        dropped when zero (engines that categorize every charge never
        show it).
        """
        totals = self.totals
        if drop_empty_other and totals.get(OTHER) == 0.0:
            del totals[OTHER]
        return totals


class NullTracer:
    """No-op tracer: the disabled end of the observability layer."""

    enabled = False
    record = False
    spans: list[SpanRecord] = []
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    truncated_spans = 0

    _NULL_CONTEXT = None  # set after class creation

    def span(
        self,
        name: str,
        category: str | None = None,
        attrs: dict[str, Any] | None = None,
    ):
        return self._NULL_CONTEXT

    def open(
        self,
        name: str,
        category: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        pass

    def close(self) -> None:
        pass

    def add_leaf(self, name: str, category: str, start: float, end: float) -> None:
        pass

    def phase_totals(self, drop_empty_other: bool = True) -> dict[str, float]:
        return {}

    def assert_closed(self) -> None:
        pass


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


NullTracer._NULL_CONTEXT = _NullContext()

#: shared no-op tracer instance
NULL_TRACER = NullTracer()
