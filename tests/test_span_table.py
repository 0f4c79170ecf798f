"""Full spans read from the span table equal a tracer's running sums.

A :class:`~repro.obs.trace.Tracer` and the compiled charge tapes keep a
run's spans as one table and read every view of it over a clock array
(:func:`~repro.obs.trace.span_records`,
:func:`~repro.obs.trace.fold_phases`).  Here the walks of
``test_phase_fold.py``'s generator are driven through a live-clock
tracer and through a recorder over positions, read over the same
clock, and both are compared against :class:`RunningTracer`, which
builds its spans and totals call by call, with running ``+=`` sums:
the span lists must be ``==``, every cost and self cost equal bit for
bit, categories inherited, attributes kept and the ``max_spans``
truncation the same.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    OTHER,
    EventRecorder,
    SpanRecord,
    Tracer,
    fold_phases,
    span_records,
)
from tests.test_phase_fold import _CALLS


class RunningTracer:
    """The reference: spans, totals and counts built call by call."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spans: list[SpanRecord] = []
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.truncated = 0
        # frame: [effective category, start, child cost, record or None]
        self.stack: list[list] = []

    def _record(self, name, category, start, attrs) -> SpanRecord | None:
        if len(self.spans) >= self.limit:
            self.truncated += 1
            return None
        parent = self.stack[-1][3].index if self.stack else -1
        rec = SpanRecord(len(self.spans), parent, len(self.stack), name,
                         OTHER if category is None else category, start,
                         attrs=dict(attrs))
        self.spans.append(rec)
        return rec

    def _add(self, category, self_cost: float, cost: float) -> None:
        key = OTHER if category is None else category
        self.totals[key] = self.totals.get(key, 0.0) + self_cost
        self.counts[key] = self.counts.get(key, 0) + 1
        if self.stack:
            self.stack[-1][2] += cost

    def open(self, name, category, attrs, now: float) -> None:
        if category is None and self.stack:
            category = self.stack[-1][0]
        rec = self._record(name, category, now, attrs)
        self.stack.append([category, now, 0.0, rec])

    def add_leaf(self, name, category, start: float, end: float) -> None:
        rec = self._record(name, category, start, {})
        cost = end - start
        if rec is not None:
            rec.end, rec.cost, rec.self_cost = end, cost, cost
        self._add(category, cost, cost)

    def close(self, now: float) -> None:
        category, start, child, rec = self.stack.pop()
        cost = now - start
        if rec is not None:
            rec.end, rec.cost, rec.self_cost = now, cost, cost - child
        self._add(category, cost - child, cost)


def hexed(spans: list[SpanRecord]) -> list[tuple[str, str, str, str]]:
    return [
        (s.start.hex(), s.end.hex(), s.cost.hex(), s.self_cost.hex())
        for s in spans
    ]


@given(
    calls=_CALLS,
    charges=st.lists(st.floats(min_value=0.0, max_value=1e6),
                     min_size=1, max_size=64),
    max_spans=st.integers(min_value=0, max_value=45),
)
@settings(max_examples=200, deadline=None)
def test_table_spans_equal_running_sums(calls, charges, max_spans):
    clk = [0.0]
    for c in charges * 4:
        clk.append(clk[-1] + c)
    pos = 0
    tracer = Tracer(clock=lambda: clk[pos], record=True, max_spans=max_spans)
    rec = EventRecorder(clock=lambda: pos)
    ref = RunningTracer(max_spans)
    depth = opened = 0
    for call in calls + [("close",)] * 40:
        if call[0] == "close" and not depth:
            continue
        if call[0] == "leaf":
            end = min(pos + call[2], len(clk) - 1)
            tracer.add_leaf("leaf", call[1], clk[pos], clk[end])
            rec.add_leaf("leaf", call[1], pos, end)
            ref.add_leaf("leaf", call[1], clk[pos], clk[end])
            pos = end
        elif call[0] == "open":
            # attributes on every other open
            attrs = {"open": opened, "depth": depth} if opened % 2 else None
            tracer.open("span", call[1], attrs)
            rec.open("span", call[1], attrs)
            ref.open("span", call[1], attrs or {}, clk[pos])
            depth += 1
            opened += 1
        else:
            tracer.close()
            rec.close()
            ref.close(clk[pos])
            depth -= 1
        pos = min(pos + 1, len(clk) - 1)
    tracer.assert_closed()
    compiled = span_records(rec.walk(), clk, max_spans)
    for spans in (tracer.spans, compiled):
        assert spans == ref.spans
        assert hexed(spans) == hexed(ref.spans)
    assert tracer.truncated_spans == ref.truncated
    for totals in (tracer.totals, fold_phases(rec.table(), clk)):
        assert list(totals) == list(ref.totals)
        assert [x.hex() for x in totals.values()] == [
            x.hex() for x in ref.totals.values()
        ]
    assert tracer.counts == ref.counts

