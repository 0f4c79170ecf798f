"""Recovery observability: counters and an event log for fault handling.

Charged model costs must stay bit-identical whether or not any worker
died, any task timed out, or any sweep was resumed from a ledger — so
recovery activity can never be recorded on an engine's charged clock or
in an engine's own counters (the chaos tests in
``tests/test_resilience.py`` compare those with ``==``).  Instead this
module keeps a *process-global* side channel:

* a :class:`~repro.obs.counters.Counters` registry of recovery events
  (``pool_retries``, ``pool_timeouts``, ``worker_deaths``,
  ``cells_resumed``, ``cells_recomputed``, ``ledger_corrupt_lines``);
* a bounded event log with one structured record per event, exported by
  ``python -m repro profile --jsonl`` next to the span trace.

``python -m repro profile`` prints the counters when any are nonzero,
and the bench document carries a ``resilience`` section when a ledger
was in play — recovery is visible without ever perturbing a charge.
"""

from __future__ import annotations

from repro.obs.counters import Counters

__all__ = [
    "record",
    "counters",
    "events",
    "reset",
    "MAX_EVENTS",
]

#: event-log bound: counters keep counting after the log stops growing
MAX_EVENTS = 4096

_counters = Counters()
_events: list[dict] = []
_truncated = 0


def record(event: str, **attrs) -> None:
    """Count one recovery ``event`` and append it to the event log.

    ``event`` is the counter name; ``attrs`` (task index, attempt
    number, task kind, ...) go into the structured event record only.
    """
    global _truncated
    _counters.add(event)
    if len(_events) < MAX_EVENTS:
        doc = {"event": event}
        doc.update(attrs)
        _events.append(doc)
    else:
        _truncated += 1


def counters() -> dict[str, int | float]:
    """Snapshot of the recovery counters (sorted, plain dict)."""
    return _counters.snapshot()


def events() -> list[dict]:
    """Copy of the recovery event log (bounded by :data:`MAX_EVENTS`)."""
    return list(_events)


def reset() -> None:
    """Clear counters and events (tests, and fresh CLI invocations)."""
    global _truncated
    _counters.values.clear()
    _events.clear()
    _truncated = 0
