"""Seeded input generators for the three benchmark workloads.

Everything here is pure Python over :mod:`random` — no ``repro``
import — so the generators are cheap, and the program under test only
ever sees the inputs they produce.  The seed picks *which* inputs and in
*what order*; the *composition* of every workload (how many operations
of each shape a block holds) is fixed, so two seeds load the same
layers equally and a run-to-run spread is host noise, not a different
mix.  Each workload is a sequence of *blocks*; the timed window always
ends on a block boundary, so every run measures the exact composition.
"""

from __future__ import annotations

import json
import random

# ------------------------------------------------------------- sim-paper
#: the README front door: every paper engine on every case-study program
SIM_ENGINES = ("vec", "bt", "brent")
SIM_PROGRAMS = ("sort", "fft-rec", "matmul")
SIM_FUNCTIONS = ("x^0.5", "log")
#: machine width per program.  Latency percentiles of a mixture of
#: cells are steady only when they fall inside a group of similar
#: cells, not in the gap between two groups.  With matmul at 16 (it
#: needs a power of 4; at 64 bt's two matmul cells form a group of
#: their own right at the 90th percentile) the 50th percentile falls
#: among the vec sort/fft cells and the 90th among the bt sort/fft
#: cells, and no engine takes much more than half of a round.
SIM_WIDTHS = {"sort": 64, "fft-rec": 64, "matmul": 16}

SIM_CELLS = tuple(
    (engine, program, f)
    for engine in SIM_ENGINES
    for program in SIM_PROGRAMS
    for f in SIM_FUNCTIONS
)


def sim_round(seed: int, index: int) -> list[tuple[str, str, str]]:
    """Round ``index`` of the shuffled round-robin: every cell once."""
    cells = list(SIM_CELLS)
    random.Random(f"sim-paper/{seed}/{index}").shuffle(cells)
    return cells


# ------------------------------------------------------------- serve-hot
DAG_WORKLOADS = ("stream-scan", "stream-stencil", "stream-reduce")

#: fixed (workload, epochs, partitions) shapes of the hot DAG keys: a
#: DAG cache hit regenerates the spec to compute its key, so its cost
#: follows the task count, which is therefore not left to the seed
HOT_DAG_SHAPES = tuple(
    (workload, epochs, partitions)
    for epochs, partitions in ((2, 4), (2, 8), (4, 4), (4, 8), (3, 4), (3, 8))
    for workload in DAG_WORKLOADS
)[:16]
#: (program, v) strata of the hot sim keys; a hit's reply size follows
#: the program and v, so every seed holds each stratum equally often
HOT_SIM_STRATA = tuple(
    (program, v)
    for program in ("sort", "fft-rec", "matmul", "reduce", "broadcast", "prefix")
    for v in (16, 64)
)
HOT_KEYS_PER_STRATUM = 4
HOT_FUNCTIONS = ("x^0.5", "log", "x^0.3", "x^0.7")
HOT_MUS = (4, 8)


def hot_set(seed: int) -> list[dict]:
    """The 64 distinct pre-warmed request bodies (25% DAG).

    Sim bodies take each (program, v) stratum with seeded (f, mu)
    pairs; DAG bodies take the fixed shapes above with seeded chunk,
    heuristic and machine width.
    """
    rng = random.Random(f"serve-hot/{seed}")
    pairs = [(f, mu) for f in HOT_FUNCTIONS for mu in HOT_MUS]
    bodies = [
        {"program": program, "v": v, "f": f, "mu": mu}
        for program, v in HOT_SIM_STRATA
        for f, mu in rng.sample(pairs, HOT_KEYS_PER_STRATUM)
    ]
    for workload, epochs, partitions in HOT_DAG_SHAPES:
        bodies.append({
            "kind": "dag",
            "workload": workload,
            "params": {
                "epochs": epochs,
                "partitions": partitions,
                "chunk": rng.randint(2, 16),
            },
            "heuristic": rng.choice(("greedy", "locality")),
            "v": rng.choice((8, 16)),
        })
    rng.shuffle(bodies)
    return bodies


def hot_block(seed: int, index: int, size: int) -> list[int]:
    """Block ``index``: a seeded permutation of the hot-set indices."""
    order = list(range(size))
    random.Random(f"serve-hot/{seed}/{index}").shuffle(order)
    return order


# ------------------------------------------------------------ serve-cold
#: the (program, v, mu) shapes of one cold block (17 of its 20
#: operations).  matmul stays at 16: at 64 its two cells cost twice
#: any other and formed the top tenth of the block on their own, which
#: put the 90th percentile in the gap below them.
COLD_SIM_SHAPES = tuple(
    (program, v, mu)
    for program in ("sort", "fft-rec")
    for v in (16, 32, 64)
    for mu in (4, 8)
) + (("matmul", 16, 4), ("matmul", 16, 8), ("matmul", 16, 16),
     ("sort", 64, 16), ("fft-rec", 64, 16))
#: the DAG (workload, epochs, partitions, heuristic) of one cold block
#: (3 of 20 = 15%)
COLD_DAG_SHAPES = (
    ("stream-scan", 2, 4, "locality"),
    ("stream-stencil", 4, 4, "greedy"),
    ("stream-reduce", 2, 8, "locality"),
)
COLD_BLOCK = len(COLD_SIM_SHAPES) + len(COLD_DAG_SHAPES)


def _cold_function(rng: random.Random) -> str:
    """A seeded access function from a fine grid of exponents: almost
    every cold cell gets a fresh ``(f, v, mu)`` plan signature and
    fresh cost tables, while its cost stays that of its shape."""
    return f"x^{rng.randint(2000, 8000) / 10000:g}"


class ColdSequence:
    """The seeded sweep of distinct ``/v1/run`` bodies for serve-cold.

    Blocks are produced on demand (a run's length depends on how fast
    the host is); :meth:`block` is deterministic in ``(seed, index)``
    as long as blocks are drawn in order, which is how every caller
    uses it.  A body whose identity repeats an earlier one is redrawn,
    so no two bodies of a sequence share a result key.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(f"serve-cold/{seed}")
        self._seen: set[str] = set()

    def _fresh(self, make) -> dict:
        while True:
            body = make()
            ident = json.dumps(body, sort_keys=True)
            if ident not in self._seen:
                self._seen.add(ident)
                return body

    def block(self) -> list[dict]:
        rng = self._rng
        bodies = [
            self._fresh(lambda p=p, v=v, mu=mu: {
                "program": p, "v": v, "mu": mu, "f": _cold_function(rng),
            })
            for p, v, mu in COLD_SIM_SHAPES
        ]
        bodies += [
            self._fresh(lambda w=w, e=e, n=n, h=h: {
                "kind": "dag",
                "workload": w,
                "params": {
                    "epochs": e,
                    "partitions": n,
                    "chunk": rng.randint(2, 32),
                },
                "heuristic": h,
                "v": 8,
                "f": _cold_function(rng),
            })
            for w, e, n, h in COLD_DAG_SHAPES
        ]
        rng.shuffle(bodies)
        return bodies


def cold_warmup() -> list[dict]:
    """Set-up requests that spawn and warm the server's pool workers.

    Their exponents lie outside the sequence's grid (0.2-0.8), so they
    never collide with a timed key.
    """
    return [
        {"program": "sort", "v": 16, "f": f"x^{a}"}
        for a in (0.91, 0.92, 0.93, 0.94)
    ]
