"""Wall-clock latency statistics: nearest-rank percentiles and histograms.

The load generators (:mod:`repro.service.loadgen`) record client-side
request latencies and summarize every phase with the block
:func:`latency_fields` builds: the sample count, p50/p95/p99 and a
compact log-spaced histogram.  Everything here is pure arithmetic over a
list of seconds, so the same helpers serve any wall-clock measurement.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "HISTOGRAM_FLOOR_S",
    "HISTOGRAM_BUCKETS",
    "percentile",
    "latency_histogram",
    "latency_fields",
]

#: histogram bucket 0 is [0, floor); bucket i >= 1 is
#: [floor * 2**(i-1), floor * 2**i) -- log-spaced, so 24 buckets span
#: 100 us to ~14 minutes
HISTOGRAM_FLOOR_S = 1e-4
HISTOGRAM_BUCKETS = 24


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest sample.

    No interpolation, so the result is always one of the observed
    values -- honest for small samples, but off 3 samples the p99 is
    just the maximum.  Callers that promise tail percentiles record the
    sample count next to them (see :func:`latency_fields`).

    >>> percentile([4.0, 1.0, 3.0, 2.0], 0.50)
    2.0
    >>> percentile([4.0, 1.0, 3.0, 2.0], 0.99)
    4.0
    >>> percentile([], 0.5) is None
    True
    """
    if not values:
        return None
    ranked = sorted(values)
    # round first: q * n can land a hair above an integer (0.07 * 100)
    rank = math.ceil(round(q * len(ranked), 9))
    return ranked[min(max(rank, 1), len(ranked)) - 1]


def latency_histogram(latencies: list[float]) -> dict[str, Any]:
    """A compact log-spaced latency histogram (trailing zeros trimmed).

    >>> latency_histogram([0.00005, 0.0003, 0.0005, 0.009])
    {'floor_s': 0.0001, 'factor': 2, 'counts': [1, 0, 1, 1, 0, 0, 0, 1]}
    """
    counts = [0] * HISTOGRAM_BUCKETS
    for latency in latencies:
        if latency < HISTOGRAM_FLOOR_S:
            index = 0
        else:
            index = min(
                HISTOGRAM_BUCKETS - 1,
                int(math.log2(latency / HISTOGRAM_FLOOR_S)) + 1,
            )
        counts[index] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return {"floor_s": HISTOGRAM_FLOOR_S, "factor": 2, "counts": counts}


def latency_fields(
    latencies: list[float], min_samples: int | None = None
) -> dict[str, Any]:
    """The per-phase latency block: samples, p50/p95/p99, histogram.

    With ``min_samples``, percentiles below the floor are reported as
    ``None`` (plus an explanatory ``latency_note``) rather than as
    numbers a reader would mistake for measurements.

    >>> doc = latency_fields([0.002] * 3, min_samples=40)
    >>> doc["latency_samples"], doc["latency_p99_s"]
    (3, None)
    """
    doc: dict[str, Any] = {"latency_samples": len(latencies)}
    enough = min_samples is None or len(latencies) >= min_samples
    for field, q in (
        ("latency_p50_s", 0.50),
        ("latency_p95_s", 0.95),
        ("latency_p99_s", 0.99),
    ):
        doc[field] = percentile(latencies, q) if enough else None
    if not enough:
        doc["latency_note"] = (
            f"percentiles suppressed: {len(latencies)} sample(s) is "
            f"below the {min_samples}-sample open-loop minimum"
        )
    doc["latency_histogram"] = latency_histogram(latencies)
    return doc
