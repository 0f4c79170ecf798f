"""Per-host cost prediction: closed-form bounds anchored by calibration.

The planner (:mod:`repro.service.planner`) needs, for any validated
request, *before running anything*: predicted ``charged_words``,
predicted wall seconds, and how long the request will hold an admission
slot.  This module builds that prediction from two ingredients:

* **Shape** comes from the paper's closed-form bounds
  (:mod:`repro.analysis.bounds`).  A program's superstep labels are a
  *structural* property — :func:`repro.engines.build_program`
  constructs the supersteps without executing any body, so the
  ``lambda_i`` counts (and a ``tau`` floor of one context touch per
  superstep) are available in microseconds at any ``v``.  Evaluating
  Theorem 5/10/12 on them gives the right growth curve in ``v``, ``mu``
  and ``f`` — including the ``v log v``-type curvature a plain power
  law misses.
* **Constants** come from calibration.  ``python -m repro calibrate``
  runs a small (engine x program x v) matrix on *this* host, records
  charged words / model time / wall seconds per cell, and fits

  - the ``measured / bound`` ratio band (:func:`~repro.analysis.fitting.
    bounded_ratio`) for charged words and model time — the same
    flat-ratio machinery the bench uses to validate the theorems, read
    forward as a predictor, and
  - a wall-clock power law in ``v`` (:func:`~repro.analysis.fitting.
    fit_power_law`) — wall time is a host property (interpreter, cache
    sizes), which is exactly why it must be calibrated per host.

The result persists as a versioned JSON **calibration profile**
(:data:`PROFILE_SCHEMA`; round-trippable, refused on schema drift) that
``serve --calibration`` loads at startup.

Error bars are part of the contract: every prediction carries ``lo <=
point <= hi`` bounds from the fit residuals, widened geometrically when
``v`` lies outside the calibrated range (extrapolation must widen the
bars, never crash), and predictions for uncalibrated (engine, program)
pairs fall back to bounds-only mode with ``trusted=False`` and very
wide bars.  ``docs/planner.md`` documents when a prediction is trusted
and what the service does when it is not.

>>> profile_doc = calibrate_profile(
...     engines=("vec",), programs=("sort",), v_grid=(8, 16), repeats=1)
>>> model = CostModel(CalibrationProfile(profile_doc))
>>> p = model.predict("vec", "sort", v=16)
>>> p.trusted and p.charged_words_lo <= p.charged_words <= p.charged_words_hi
True
>>> model.predict("vec", "sort", v=64).extrapolated
True
"""

from __future__ import annotations

import math
import os
import platform
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.analysis.bounds import (
    brent_bound,
    theorem5_bound,
    theorem12_bound,
)
from repro.analysis.fitting import (
    EXTRAPOLATION_WIDENING,
    RESIDUAL_SAFETY,
    PowerLawFit,
    bounded_ratio,
    fit_power_law,
)
from repro.engines import (
    ENGINES, build_program, cached_program, resolve_access_function,
)

__all__ = [
    "PROFILE_SCHEMA",
    "CALIBRATION_ENGINES",
    "CALIBRATION_PROGRAMS",
    "CALIBRATION_V_GRID",
    "Prediction",
    "CalibrationProfile",
    "CostModel",
    "structural_bound",
    "calibrate_profile",
    "load_profile",
    "write_profile",
]

#: calibration-profile document schema; bumping it invalidates every
#: persisted profile at once (loading refuses with an actionable error)
PROFILE_SCHEMA = 1

#: the default calibration matrix: every engine family over the two
#: workloads the bench matrix is built on
CALIBRATION_ENGINES = ("vec", "bt", "brent", "direct")
CALIBRATION_PROGRAMS = ("sort", "fft-rec")
CALIBRATION_V_GRID = (8, 16, 32, 64)
CALIBRATION_V_GRID_SMOKE = (8, 16, 32)

#: engines priced with another engine's models: ``hmm`` is ``vec``
#: under another name (one engine class, :class:`repro.engines.VecEngine`)
_CALIBRATED_AS = {"hmm": "vec"}

#: band half-width (multiplicative) of a bounds-only prediction — no
#: calibration evidence for the pair, so the bars are this wide
UNTRUSTED_BAND = 16.0

#: fallback serving rate (charged words per wall second) when a profile
#: carries no sim cells at all; intentionally conservative
FALLBACK_WORDS_PER_S = 1e6


def structural_bound(
    engine: str, program_name: str, v: int, mu: int, f_spec: str
) -> float:
    """The closed-form cost shape for one request, without running it.

    Takes the program from the shared program cache
    (:func:`repro.engines.cached_program`: built once per shape,
    superstep construction only, no body executes), counts labels,
    and evaluates the engine's theorem bound with
    ``tau = mu * len(program)`` — a structural floor of one
    context touch per superstep.  The absolute scale is wrong by a
    constant (that is what calibration pins down); the growth shape in
    ``v``/``mu``/``f`` is the paper's.
    """
    program = cached_program(program_name, v, mu)
    lambdas = program.label_counts()
    tau = float(mu * len(program))
    f = resolve_access_function(f_spec)
    if engine in ("hmm", "vec"):
        return theorem5_bound(f, v, mu, tau, lambdas)
    if engine == "bt":
        return theorem12_bound(v, mu, tau, lambdas)
    if engine == "brent":
        return brent_bound(f, v, max(1, v // 4), mu, tau, lambdas)
    if engine == "direct":
        # the guest itself: per-superstep sync + message cost, no
        # sequential-simulation factor of v
        comm = sum(
            count * f(mu * (v >> label))
            for label, count in lambdas.items()
        )
        return tau + mu * comm
    raise ValueError(
        f"unknown engine {engine!r}; try: {', '.join(sorted(ENGINES))}"
    )


def _widening(v: float, v_min: float, v_max: float) -> float:
    """Extrapolation widening outside the calibrated ``v`` range."""
    if v > v_max:
        doublings = math.log2(v / v_max)
    elif v < v_min:
        doublings = math.log2(v_min / v)
    else:
        return 1.0
    return EXTRAPOLATION_WIDENING ** doublings


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(x) for x in values) / len(values))


@dataclass(frozen=True)
class Prediction:
    """One request's predicted cost, with error bars.

    ``charged_words`` is the admission currency (the bench's
    ``words_touched + words_moved``); ``wall_s`` doubles as the
    predicted **queue-slot occupancy** — the seconds the request will
    hold one of the scheduler's in-flight slots.  ``source`` is
    ``"calibrated"`` (ratio anchor + wall fit from the profile) or
    ``"bounds_only"`` (no calibration evidence for the pair:
    ``trusted=False``, bars :data:`UNTRUSTED_BAND` wide).
    """

    engine: str
    program: str
    v: int
    mu: int
    f: str
    charged_words: float
    charged_words_lo: float
    charged_words_hi: float
    model_time: float
    wall_s: float
    wall_s_lo: float
    wall_s_hi: float
    source: str
    trusted: bool
    extrapolated: bool

    @property
    def queue_slot_s(self) -> float:
        """Predicted seconds this request holds an admission slot."""
        return self.wall_s

    @property
    def cost(self) -> float:
        """The admission-control scalar (predicted charged words)."""
        return self.charged_words

    def to_json(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "program": self.program,
            "v": self.v,
            "mu": self.mu,
            "f": self.f,
            "charged_words": self.charged_words,
            "charged_words_lo": self.charged_words_lo,
            "charged_words_hi": self.charged_words_hi,
            "model_time": self.model_time,
            "wall_s": self.wall_s,
            "wall_s_lo": self.wall_s_lo,
            "wall_s_hi": self.wall_s_hi,
            "queue_slot_s": self.queue_slot_s,
            "source": self.source,
            "trusted": self.trusted,
            "extrapolated": self.extrapolated,
        }


class _PairModel:
    """The calibrated model of one (engine, program) pair."""

    def __init__(self, doc: dict[str, Any]):
        self.v_min = float(doc["v_min"])
        self.v_max = float(doc["v_max"])
        # the measured/bound anchor ratios are themselves fitted as
        # power laws in v: a flat ratio fits with exponent ~0, and an
        # engine whose constant *trends* (brent's host-size scaling)
        # gets its trend captured instead of silently extrapolated flat
        words_doc = doc.get("words_ratio")  # None for direct (0 words)
        self.words_ratio = (
            PowerLawFit.from_json(words_doc) if words_doc else None
        )
        self.time_ratio = PowerLawFit.from_json(doc["time_ratio"])
        self.wall_fit = PowerLawFit.from_json(doc["wall"])
        self.words_per_s = doc.get("words_per_s")

    def to_json(self) -> dict[str, Any]:
        return {
            "v_min": self.v_min,
            "v_max": self.v_max,
            "words_ratio": (
                self.words_ratio.to_json() if self.words_ratio else None
            ),
            "time_ratio": self.time_ratio.to_json(),
            "wall": self.wall_fit.to_json(),
            "words_per_s": self.words_per_s,
        }


class CalibrationProfile:
    """A loaded, validated calibration profile (versioned JSON)."""

    def __init__(self, doc: dict[str, Any]):
        if not isinstance(doc, dict):
            raise ValueError(
                f"calibration profile must be a JSON object, "
                f"got {type(doc).__name__}"
            )
        schema = doc.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(
                f"calibration profile is schema {schema!r}, this build "
                f"reads schema {PROFILE_SCHEMA}.  Re-run "
                f"`python -m repro calibrate` to regenerate it."
            )
        self.doc = doc
        try:
            self.models = {
                name: _PairModel(model)
                for name, model in doc["models"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed calibration profile: {exc}")
        glob = doc.get("global", {})
        self.words_per_s = float(
            glob.get("words_per_s") or FALLBACK_WORDS_PER_S
        )
        self.default_ratio = float(glob.get("default_ratio") or 1.0)

    def pair(self, engine: str, program: str) -> "_PairModel | None":
        engine = _CALIBRATED_AS.get(engine, engine)
        return self.models.get(f"{engine}/{program}")

    def to_json(self) -> dict[str, Any]:
        return self.doc

    @classmethod
    def from_json(cls, doc: Any) -> "CalibrationProfile":
        return cls(doc)


def load_profile(path: str) -> CalibrationProfile:
    """Read and validate a profile file (``ValueError`` on any defect)."""
    import json

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read calibration profile {path}: {exc}")
    except ValueError:
        raise ValueError(
            f"calibration profile {path} is not valid JSON; re-run "
            f"`python -m repro calibrate --output {path}`"
        )
    return CalibrationProfile(doc)


def write_profile(path: str, doc: dict[str, Any]) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


class CostModel:
    """Prediction engine over one calibration profile (thread-safe)."""

    def __init__(self, profile: CalibrationProfile):
        self.profile = profile
        self._memo: dict[tuple, Prediction] = {}
        self._lock = threading.Lock()

    def predict(
        self,
        engine: str,
        program: str,
        v: int,
        mu: int = 8,
        f: str = "x^0.5",
    ) -> Prediction:
        """Predict one request's cost (raises ``ValueError`` on inputs
        no engine could run, e.g. an unbuildable ``v``)."""
        memo_key = (engine, program, v, mu, f)
        with self._lock:
            hit = self._memo.get(memo_key)
        if hit is not None:
            return hit
        prediction = self._predict(engine, program, v, mu, f)
        with self._lock:
            if len(self._memo) >= 1024:
                self._memo.clear()
            self._memo[memo_key] = prediction
        return prediction

    def _predict(
        self, engine: str, program: str, v: int, mu: int, f: str
    ) -> Prediction:
        bound = structural_bound(engine, program, v, mu, f)
        pair = self.profile.pair(engine, program)
        if pair is None:
            return self._bounds_only(engine, program, v, mu, f, bound)
        extrapolated = _widening(v, pair.v_min, pair.v_max) != 1.0
        if pair.words_ratio is not None:
            ratio_lo, ratio_hi, _ = pair.words_ratio.band(v)
            words = bound * pair.words_ratio.predict(v)
            words_lo = bound * ratio_lo
            words_hi = bound * ratio_hi
        else:  # the direct engine charges no words
            words = words_lo = words_hi = 0.0
        model_time = bound * pair.time_ratio.predict(v)
        wall, wall_lo, wall_hi = self._wall(pair, v, words)
        return Prediction(
            engine=engine, program=program, v=v, mu=mu, f=f,
            charged_words=words,
            charged_words_lo=words_lo,
            charged_words_hi=words_hi,
            model_time=model_time,
            wall_s=wall, wall_s_lo=wall_lo, wall_s_hi=wall_hi,
            source="calibrated", trusted=True, extrapolated=extrapolated,
        )

    def _wall(
        self, pair: _PairModel, v: int, words: float
    ) -> tuple[float, float, float]:
        wall_lo, wall_hi, _ = pair.wall_fit.band(v)
        wall = pair.wall_fit.predict(v)
        if words > 0 and pair.words_per_s:
            # the throughput floor: a request charging W words cannot
            # finish faster than the host's measured peak words/s; this
            # keeps far extrapolations from predicting absurd walls
            floor = words / pair.words_per_s / RESIDUAL_SAFETY
            wall = max(wall, floor)
            wall_hi = max(wall_hi, wall * RESIDUAL_SAFETY)
            wall_lo = min(wall_lo, wall)
        return wall, wall_lo, wall_hi

    def predict_bound(
        self,
        engine: str,
        program: str,
        v: int,
        mu: int,
        f: str,
        bound: float,
    ) -> Prediction:
        """An honest untrusted prediction from a caller-supplied bound.

        For program families outside the bundled registry (the DAG
        front end compiles a program per spec, so no calibration pair
        can exist): the caller computes its own structural bound and
        the model anchors it exactly like an uncalibrated pair —
        ``source="bounds_only"``, bars :data:`UNTRUSTED_BAND` wide,
        never trusted.
        """
        return self._bounds_only(engine, program, v, mu, f, float(bound))

    def _bounds_only(
        self,
        engine: str,
        program: str,
        v: int,
        mu: int,
        f: str,
        bound: float,
    ) -> Prediction:
        words = bound * self.profile.default_ratio
        if engine == "direct":
            words = 0.0
        wall = max(words, bound) / self.profile.words_per_s
        return Prediction(
            engine=engine, program=program, v=v, mu=mu, f=f,
            charged_words=words,
            charged_words_lo=words / UNTRUSTED_BAND,
            charged_words_hi=words * UNTRUSTED_BAND,
            model_time=bound,
            wall_s=wall,
            wall_s_lo=wall / UNTRUSTED_BAND,
            wall_s_hi=wall * UNTRUSTED_BAND,
            source="bounds_only", trusted=False, extrapolated=True,
        )


# ------------------------------------------------------------- calibration


def _ratio_fit(
    vs: Sequence[float],
    measured: Sequence[float],
    bounds: Sequence[float],
) -> PowerLawFit:
    """Fit the ``measured / bound`` anchor ratio as a power law in v."""
    ratios = bounded_ratio(list(measured), list(bounds)).ratios
    return fit_power_law(list(vs), list(ratios), prior_exponent=0.0)


def calibrate_profile(
    engines: Sequence[str] | None = None,
    programs: Sequence[str] | None = None,
    v_grid: Sequence[int] | None = None,
    mu: int = 8,
    f: str = "x^0.5",
    repeats: int = 2,
    smoke: bool = False,
    echo=None,
) -> dict[str, Any]:
    """Run the calibration matrix on this host; returns the profile doc.

    Every cell runs the engine once per repeat (wall is best-of) with
    ``trace="counters"``; charged words and model time are
    deterministic, wall is the per-host quantity being calibrated.
    Each repeat runs a freshly built program, so no simulation takes
    its body pass from the program's memo
    (:func:`repro.sim.kernel.program_pass`): every engine's wall,
    ``direct``'s included, holds its body time.
    """
    from repro.bench import _git_revision

    engines = tuple(engines or CALIBRATION_ENGINES)
    programs = tuple(programs or CALIBRATION_PROGRAMS)
    if v_grid is None:
        v_grid = CALIBRATION_V_GRID_SMOKE if smoke else CALIBRATION_V_GRID
    v_grid = tuple(sorted(v_grid))
    access = resolve_access_function(f)
    cells: list[dict[str, Any]] = []
    models: dict[str, Any] = {}
    sim_rates: list[float] = []
    mids: list[float] = []
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; "
                f"try: {', '.join(sorted(ENGINES))}"
            )
        for program_name in programs:
            rows: list[dict[str, Any]] = []
            for v in v_grid:
                best_wall = math.inf
                result = None
                for _ in range(max(1, repeats)):
                    program = build_program(program_name, v, mu)
                    t0 = time.perf_counter()
                    result = ENGINES[engine].run(
                        program, access, trace="counters"
                    )
                    best_wall = min(best_wall, time.perf_counter() - t0)
                words = float(
                    result.counters.get("words_touched", 0)
                    + result.counters.get("words_moved", 0)
                )
                bound = structural_bound(engine, program_name, v, mu, f)
                row = {
                    "engine": engine,
                    "program": program_name,
                    "v": v,
                    "charged_words": words,
                    "model_time": float(result.time),
                    "wall_s": best_wall,
                    "bound": bound,
                }
                rows.append(row)
                cells.append(row)
                if echo:
                    echo(
                        f"  {engine:7s} {program_name:8s} v={v:<5d} "
                        f"words={words:>12,.0f}  wall={best_wall * 1e3:8.2f}ms"
                    )
            name = f"{engine}/{program_name}"
            vs = [r["v"] for r in rows]
            words_ratio = None
            if all(r["charged_words"] > 0 for r in rows):
                words_ratio = _ratio_fit(
                    vs,
                    [r["charged_words"] for r in rows],
                    [r["bound"] for r in rows],
                )
                mids.append(
                    _geomean([
                        r["charged_words"] / r["bound"] for r in rows
                    ])
                )
                top = rows[-1]
                sim_rates.append(top["charged_words"] / top["wall_s"])
            time_ratio = _ratio_fit(
                vs,
                [r["model_time"] for r in rows],
                [r["bound"] for r in rows],
            )
            wall_fit = fit_power_law(vs, [r["wall_s"] for r in rows])
            top = rows[-1]
            models[name] = {
                "v_min": float(v_grid[0]),
                "v_max": float(v_grid[-1]),
                "words_ratio": (
                    words_ratio.to_json() if words_ratio else None
                ),
                "time_ratio": time_ratio.to_json(),
                "wall": wall_fit.to_json(),
                "words_per_s": (
                    top["charged_words"] / top["wall_s"]
                    if top["charged_words"] > 0 else None
                ),
            }
    produced_by = "python -m repro calibrate"
    if smoke:
        produced_by += " --smoke"
    return {
        "schema": PROFILE_SCHEMA,
        "produced_by": produced_by,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "revision": _git_revision(),
        "mu": mu,
        "f": f,
        "v_grid": list(v_grid),
        "engines": list(engines),
        "programs": list(programs),
        "cells": cells,
        "models": models,
        "global": {
            "words_per_s": max(sim_rates) if sim_rates else None,
            "default_ratio": _geomean(mids) if mids else None,
        },
    }
