"""Cost-model-driven planning and admission for the service tier.

The scheduler's flat ``queue_limit`` treats every request as the same
size, so one enormous ``/v1/run`` holds an admission slot as long as a
thousand cheap ones combined and starves them.  The planner replaces
that with *cost-aware* gating built on :class:`~repro.analysis.predict.
CostModel` predictions (closed-form bounds anchored by a per-host
calibration profile):

* **Plan** — :meth:`Planner.plan` turns a validated request into a
  :class:`PlanDecision`: the chosen ``engine`` (auto-selected by
  predicted wall time when the request left it unset), the
  cache policy (``"bypass"`` for huge ``trace="full"`` results that
  would churn the LRU), and the full
  :class:`~repro.analysis.predict.Prediction`.
  ``POST /v1/plan`` returns this without running anything.
* **Admit** — :meth:`Planner.admit` charges the predicted cost against
  two gates *before* the request occupies a scheduler slot:

  - a per-tenant token-bucket :class:`CostBudget` (tenant comes from
    the ``X-Tenant`` header; unnamed traffic shares ``"default"``),
    refilling at a configured charged-words-per-second rate, and
  - a **global in-flight predicted-cost ceiling** — the sum of
    predicted costs of currently-running computations may not exceed
    ``cost_ceiling``.

  Either gate rejects with :class:`BudgetExceeded` (a
  :class:`~repro.service.scheduler.QueueFull` subclass, so the server's
  429 machinery applies) carrying ``predicted_cost`` and
  ``budget_remaining`` for the extended error envelope, and an *honest*
  ``Retry-After``: the tenant bucket's refill deficit, or the global
  backlog divided by the observed drain rate (an EWMA of charged words
  per wall second over recent completions, seeded from the calibration
  profile's measured throughput).
* **Complete** — :meth:`Planner.complete` releases the in-flight cost
  and feeds the measured wall time back into the drain-rate estimate.

Untrusted predictions (``bounds_only`` pairs, see ``docs/planner.md``)
still pass through admission — with bars :data:`~repro.analysis.
predict.UNTRUSTED_BAND` wide the *point* estimate is still the best
available number — but the flat ``queue_limit`` stays on as a backstop
bound on slot occupancy either way.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.predict import CostModel, Prediction
from repro.obs.counters import Counters
from repro.service.scheduler import QueueFull, SimRequest

__all__ = [
    "DEFAULT_TENANT",
    "DEFAULT_TENANT_CAPACITY",
    "DEFAULT_TENANT_REFILL_PER_S",
    "DEFAULT_COST_CEILING",
    "BudgetExceeded",
    "CostBudget",
    "PlanDecision",
    "Planner",
    "planner_from_profile",
]

#: tenant name used when the request carries no ``X-Tenant`` header
DEFAULT_TENANT = "default"

#: per-tenant token-bucket capacity in predicted charged words — a
#: tenant can burst this much at once...
DEFAULT_TENANT_CAPACITY = 20e6

#: ...and sustain this many predicted charged words per second
DEFAULT_TENANT_REFILL_PER_S = 10e6

#: global ceiling on the summed predicted cost of in-flight computations
DEFAULT_COST_CEILING = 50e6

#: predicted charged words above which a ``trace="full"`` result is too
#: large to be worth an LRU slot (cache policy becomes ``"bypass"``)
CACHE_BYPASS_WORDS = 5e6

#: Retry-After clamp (seconds) — honest, but never absurd
MIN_RETRY_AFTER_S = 0.05
MAX_RETRY_AFTER_S = 60.0

#: EWMA weight of each new drain-rate observation
DRAIN_EWMA_ALPHA = 0.3


def planner_from_profile(
    path: str,
    tenant_capacity: float = DEFAULT_TENANT_CAPACITY,
    tenant_refill_per_s: float = DEFAULT_TENANT_REFILL_PER_S,
    cost_ceiling: float = DEFAULT_COST_CEILING,
) -> "Planner":
    """Load a calibration profile file into a ready planner.

    The one constructor ``serve``, the shard child process and the CLI
    all share; raises :class:`ValueError` on a missing/stale profile.
    """
    from repro.analysis.predict import load_profile

    return Planner(
        CostModel(load_profile(path)),
        tenant_capacity=tenant_capacity,
        tenant_refill_per_s=tenant_refill_per_s,
        cost_ceiling=cost_ceiling,
    )


class BudgetExceeded(QueueFull):
    """Cost-aware admission rejected the request (429).

    Subclasses :class:`QueueFull` so every existing 429 path (server
    mapping, loadgen's backoff loop) applies unchanged; the server adds
    ``predicted_cost`` and ``budget_remaining`` to the error envelope.
    ``scope`` is ``"tenant"`` (this tenant's budget is exhausted) or
    ``"global"`` (the in-flight predicted-cost ceiling is reached).
    """

    def __init__(
        self,
        message: str,
        retry_after_s: float,
        scope: str,
        predicted_cost: float,
        budget_remaining: float,
    ):
        super().__init__(message, retry_after_s)
        self.scope = scope
        self.predicted_cost = predicted_cost
        self.budget_remaining = budget_remaining


class CostBudget:
    """A token bucket denominated in predicted charged words.

    Starts full at ``capacity``; every admitted request spends its
    predicted cost; tokens refill continuously at ``refill_per_s`` up
    to the capacity.  ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_s: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity <= 0 or refill_per_s <= 0:
            raise ValueError("capacity and refill_per_s must be positive")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._tokens = float(capacity)
        self._stamp = clock()
        self.spent_total = 0.0
        self.rejections = 0

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.capacity, self._tokens + elapsed * self.refill_per_s)

    def try_spend(self, cost: float) -> tuple[bool, float, float]:
        """Attempt to spend ``cost`` tokens.

        Returns ``(admitted, retry_after_s, remaining)``.  On refusal
        ``retry_after_s`` is the exact refill time until the bucket
        holds ``cost`` tokens, clamped to [:data:`MIN_RETRY_AFTER_S`,
        :data:`MAX_RETRY_AFTER_S`] — a request larger than the bucket
        itself can never be admitted and gets the full clamp.
        """
        self._refill()
        if cost <= self._tokens:
            self._tokens -= cost
            self.spent_total += cost
            return True, 0.0, self._tokens
        self.rejections += 1
        deficit = cost - self._tokens
        retry_after = _clamp_retry(deficit / self.refill_per_s)
        return False, retry_after, self._tokens

    def remaining(self) -> float:
        self._refill()
        return self._tokens


def _clamp_retry(seconds: float) -> float:
    return min(MAX_RETRY_AFTER_S, max(MIN_RETRY_AFTER_S, seconds))


@dataclass(frozen=True)
class PlanDecision:
    """The planner's answer for one request (the ``/v1/plan`` body).

    ``engine`` is concrete (never ``"auto"``); ``engine_chosen`` records
    whether the planner picked it or the caller did.  ``cache`` is
    ``"store"`` or ``"bypass"``.
    """

    engine: str
    engine_chosen: bool
    cache: str
    prediction: Prediction
    admitted_at: float = field(default=0.0, compare=False)

    def to_json(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "engine_chosen": self.engine_chosen,
            "cache": self.cache,
            "prediction": self.prediction.to_json(),
        }


class Planner:
    """Prediction, engine selection and cost-aware admission (thread-safe)."""

    def __init__(
        self,
        model: CostModel,
        tenant_capacity: float = DEFAULT_TENANT_CAPACITY,
        tenant_refill_per_s: float = DEFAULT_TENANT_REFILL_PER_S,
        cost_ceiling: float = DEFAULT_COST_CEILING,
        clock: Callable[[], float] = time.monotonic,
    ):
        if cost_ceiling <= 0:
            raise ValueError("cost_ceiling must be positive")
        self.model = model
        self.tenant_capacity = float(tenant_capacity)
        self.tenant_refill_per_s = float(tenant_refill_per_s)
        self.cost_ceiling = float(cost_ceiling)
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, CostBudget] = {}
        self._inflight_cost = 0.0
        self._inflight = 0
        #: charged words drained per wall second, EWMA over completions;
        #: seeded from the calibration profile's measured peak so the
        #: very first global Retry-After is already grounded
        self._drain_words_per_s = model.profile.words_per_s
        self.counters = Counters()

    # ------------------------------------------------------------- planning
    def plan(
        self, request: SimRequest, engine_unset: bool = False
    ) -> PlanDecision:
        """Predict and decide; raises ``ValueError`` on unplannable input."""
        engine = request.engine
        chosen = False
        if engine_unset:
            engine = self._choose_engine(request)
            chosen = True
        bound_fn = getattr(request, "structural_bound", None)
        if bound_fn is not None:
            # request families the calibration matrix cannot cover
            # (DAG-compiled programs: the spec space is unbounded)
            # supply their own closed-form bound; the planner answers
            # with an honest *untrusted* prediction — wide bars, but a
            # real point estimate, so budgets and ceilings still apply
            prediction = self.model.predict_bound(
                engine, request.program, request.v, request.mu, request.f,
                bound_fn(engine),
            )
        else:
            prediction = self.model.predict(
                engine, request.program, request.v, request.mu, request.f
            )
        self.counters.add("planned")
        if chosen:
            self.counters.add("auto_engine")
        cache = (
            "bypass"
            if request.trace == "full"
            and prediction.charged_words > CACHE_BYPASS_WORDS
            else "store"
        )
        return PlanDecision(
            engine=engine,
            engine_chosen=chosen,
            cache=cache,
            prediction=prediction,
        )

    def _choose_engine(self, request: SimRequest) -> str:
        """The calibrated engine with the best predicted wall time.

        Only *simulating* engines with calibration evidence for this
        program compete: an untrusted prediction is no basis for a
        choice, and the ``direct`` reference executor (which charges no
        words, so it would both always win and ride free past every
        budget) must be requested explicitly.  Ties and the no-evidence
        case fall back to the service default ``vec``.
        """
        best, best_wall = "vec", float("inf")
        for name in sorted(self.model.profile.models):
            engine, _, program = name.partition("/")
            if program != request.program:
                continue
            if self.model.profile.models[name].words_ratio is None:
                continue  # charges no words: not a simulation engine
            p = self.model.predict(
                engine, request.program, request.v, request.mu, request.f
            )
            if p.trusted and p.wall_s < best_wall:
                best, best_wall = engine, p.wall_s
        return best

    # ------------------------------------------------------------ admission
    def admit(self, tenant: str, decision: PlanDecision) -> None:
        """Charge the predicted cost against both gates or raise.

        Called with the scheduler's admission lock held, *before* the
        request registers an in-flight slot — a shed request never
        occupies one.  Raises :class:`BudgetExceeded`.
        """
        cost = decision.prediction.cost
        with self._lock:
            if self._inflight_cost + cost > self.cost_ceiling:
                self.counters.add("shed_global")
                backlog = self._inflight_cost + cost - self.cost_ceiling
                retry_after = _clamp_retry(
                    backlog / max(1.0, self._drain_words_per_s)
                )
                remaining = max(0.0, self.cost_ceiling - self._inflight_cost)
                raise BudgetExceeded(
                    f"predicted cost {cost:,.0f} words would push in-flight "
                    f"cost past the global ceiling "
                    f"({self._inflight_cost:,.0f}/{self.cost_ceiling:,.0f})",
                    retry_after,
                    scope="global",
                    predicted_cost=cost,
                    budget_remaining=remaining,
                )
            bucket = self._tenants.get(tenant)
            if bucket is None:
                bucket = self._tenants[tenant] = CostBudget(
                    self.tenant_capacity,
                    self.tenant_refill_per_s,
                    clock=self._clock,
                )
            ok, retry_after, remaining = bucket.try_spend(cost)
            if not ok:
                self.counters.add("shed_tenant")
                raise BudgetExceeded(
                    f"predicted cost {cost:,.0f} words exceeds tenant "
                    f"{tenant!r} budget ({remaining:,.0f} words available)",
                    retry_after,
                    scope="tenant",
                    predicted_cost=cost,
                    budget_remaining=remaining,
                )
            self._inflight_cost += cost
            self._inflight += 1
            self.counters.add("admitted_cost", int(cost))

    def probe(self, tenant: str, decision: PlanDecision) -> dict[str, Any]:
        """Non-mutating admission check (the ``/v1/plan`` answer).

        Charges nothing; reports whether :meth:`admit` would accept the
        request right now and how much budget the tenant has left.
        """
        cost = decision.prediction.cost
        with self._lock:
            global_ok = self._inflight_cost + cost <= self.cost_ceiling
            bucket = self._tenants.get(tenant)
            remaining = (
                bucket.remaining() if bucket is not None
                else self.tenant_capacity
            )
        return {
            "tenant": tenant,
            "predicted_cost": cost,
            "budget_remaining": remaining,
            "would_admit": global_ok and cost <= remaining,
        }

    def complete(self, decision: PlanDecision, wall_s: float) -> None:
        """Release in-flight cost; fold the observation into the drain rate."""
        cost = decision.prediction.cost
        with self._lock:
            self._inflight_cost = max(0.0, self._inflight_cost - cost)
            self._inflight = max(0, self._inflight - 1)
            if cost > 0 and wall_s > 1e-6:
                observed = cost / wall_s
                self._drain_words_per_s = (
                    (1 - DRAIN_EWMA_ALPHA) * self._drain_words_per_s
                    + DRAIN_EWMA_ALPHA * observed
                )

    # -------------------------------------------------------------- metrics
    def gauges(self) -> dict[str, Any]:
        """The ``planner`` section of ``GET /v1/metrics``."""
        with self._lock:
            tenants = {
                name: {
                    "capacity": bucket.capacity,
                    "remaining": bucket.remaining(),
                    "spent_total": bucket.spent_total,
                    "rejections": bucket.rejections,
                }
                for name, bucket in sorted(self._tenants.items())
            }
            doc: dict[str, Any] = {
                "cost_ceiling": self.cost_ceiling,
                "inflight_cost": self._inflight_cost,
                "inflight": self._inflight,
                "drain_words_per_s": self._drain_words_per_s,
                "tenants": tenants,
            }
        doc.update(self.counters.snapshot())
        return doc
