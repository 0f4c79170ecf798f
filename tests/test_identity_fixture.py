"""Charged results pinned to checked-in digests.

``tests/data/identity_digests.json`` holds the sha256 of the canonical
``EngineResult.to_json()`` document (``json.dumps`` in document order,
so the key order of ``counters`` and ``breakdown`` is pinned along with
every float) for the ``bt``, ``direct``, ``brent`` and ``vec`` engines
over every bundled program, two machine widths, two access functions
and the three traced observability levels, plus ``bt`` with
``sort="transpose"`` on the recursive FFT and with ``sort="mergesort"``
(the inline ablation, whose baseline takes the separate direct run) on
two programs, ``brent`` at host widths ``v' = 1, 2, v/2`` on three
programs, and ``brent`` on generated programs
(:func:`repro.testing.random_program`).  Any change to how these
engines execute must reproduce every digest.

Regenerate (only when a charged number is meant to change) with::

    PYTHONPATH=src python -m tests.test_identity_fixture --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro
from repro.engines import PROGRAMS
from repro.testing import random_program

FIXTURE = Path(__file__).resolve().parent / "data" / "identity_digests.json"

WIDTHS = (16, 64)
FUNCTIONS = ("x^0.5", "log")
TRACES = ("counters", "phases", "full")


def cases() -> list[tuple[str, str, str, int, str, dict]]:
    """``(case id, engine, program, v, f, opts)`` for every pinned run."""
    out = []
    for engine in ("bt", "direct", "brent", "vec"):
        for program in sorted(PROGRAMS):
            for v in WIDTHS:
                for f in FUNCTIONS:
                    for trace in TRACES:
                        out.append((f"{engine}/{program}/v{v}/{f}/{trace}",
                                    engine, program, v, f, {"trace": trace}))
    for v in WIDTHS:
        for f in FUNCTIONS:
            for trace in TRACES:
                out.append((f"bt-transpose/fft-rec/v{v}/{f}/{trace}",
                            "bt", "fft-rec", v, f,
                            {"trace": trace, "sort": "transpose"}))
    for program in ("sort", "fft-rec"):
        for f in FUNCTIONS:
            for trace in ("counters", "phases"):
                out.append((f"bt-mergesort/{program}/v16/{f}/{trace}",
                            "bt", program, 16, f,
                            {"trace": trace, "sort": "mergesort"}))
    for program in ("sort", "fft-rec", "matmul"):
        for v in WIDTHS:
            for v_host in (1, 2, v // 2):
                for f in FUNCTIONS:
                    for trace in ("counters", "full"):
                        out.append((f"brent-vh{v_host}/{program}/v{v}/{f}/{trace}",
                                    "brent", program, v, f,
                                    {"trace": trace, "v_host": v_host}))
    for seed in range(8):
        for trace in ("counters", "full"):
            out.append((f"brent/random-seed{seed}/v16/x^0.5/{trace}",
                        "brent", f"random-seed{seed}", 16, "x^0.5",
                        {"trace": trace}))
    return out


def digest(engine: str, program: str, v: int, f: str, opts: dict) -> str:
    # "random-seedN" names a generated program rather than a bundled one
    if program.startswith("random-seed"):
        built = random_program(v, seed=int(program.removeprefix("random-seed")))
        res = repro.run(built, engine, f, **opts)
    else:
        res = repro.run(program, engine, f, v=v, **opts)
    doc = json.dumps(res.to_json(), separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(doc.encode()).hexdigest()


def _expected() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_expected()) == sorted(c[0] for c in cases())


@pytest.mark.parametrize(
    "case", cases(), ids=[c[0] for c in cases()]
)
def test_digest_matches(case):
    case_id, engine, program, v, f, opts = case
    assert digest(engine, program, v, f, opts) == _expected()[case_id]


def _write() -> None:
    doc = {case_id: digest(engine, program, v, f, opts)
           for case_id, engine, program, v, f, opts in cases()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} digests to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_identity_fixture --write")
    _write()
