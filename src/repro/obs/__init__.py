"""Structured observability: spans, counters, trace export.

Every engine in this package charges model costs (HMM/BT access costs,
D-BSP superstep costs) to a clock; :mod:`repro.obs` makes those charges
*inspectable*:

* :class:`~repro.obs.trace.Tracer` — nested spans over an engine's cost
  clock, kept as one span table (:class:`~repro.obs.trace.Spans`) that
  the simulators' compiled charge tapes record too.  Each span measures
  the charged-cost delta between open and close and attributes its
  *self cost* (cost minus children) to a phase category.  Two operating
  levels: ``phases`` reads per-category totals only (cheap, the default
  — this is what the engines' public ``breakdown`` dicts are views of),
  ``full`` also reads every span for export and profiling.
  :data:`~repro.obs.trace.NULL_TRACER` turns the whole layer into
  no-ops.
* :class:`~repro.obs.counters.Counters` — a registry of event counters
  (ops, words moved, block transfers, messages, context swaps) updated
  by the machines and simulators through cheap hooks;
  :data:`~repro.obs.counters.NULL_COUNTERS` disables them.
* :mod:`repro.obs.export` — JSON-lines span export (round-trippable) and
  a rendered text profile: the per-phase cost tree with percentages.

The unified engine API (:mod:`repro.engines`) returns these artifacts on
every :class:`~repro.engines.EngineResult`; ``python -m repro profile``
is the command-line front end.
"""

from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.export import (
    render_profile,
    spans_from_jsonl,
    spans_to_jsonl,
)
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "Counters",
    "NULL_COUNTERS",
    "Tracer",
    "NULL_TRACER",
    "SpanRecord",
    "render_profile",
    "spans_to_jsonl",
    "spans_from_jsonl",
]
