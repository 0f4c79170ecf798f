"""Deterministic fault injection for the chaos test suite.

Faults are driven entirely by the ``REPRO_FAULTS`` environment variable —
unset (the normal case) this module costs one cached dict lookup per
task and injects nothing.  The spec is a comma-separated list of
``key=value`` pairs::

    REPRO_FAULTS="seed=7,kill=1.0,dir=/tmp/faults"       # kill workers
    REPRO_FAULTS="seed=7,delay=1.0,delay_s=0.5,dir=..."  # stall tasks
    REPRO_FAULTS="seed=7,abort=3"                        # die mid-sweep
    REPRO_FAULTS="seed=7,shard_exit=6,dir=..."           # kill a shard

* ``kill`` / ``delay`` — probability that a pool task's *first* attempt
  kills its worker process (``os._exit``) or sleeps ``delay_s`` seconds.
  The decision is a pure function of ``(seed, payload bytes)``, so a
  given seed always faults the same tasks; a marker file under ``dir``
  makes each fault fire exactly once, so the retry path can be proven to
  recover.  Injection happens only in the worker-side trampoline — the
  inline path never sees it.
* ``abort`` — parent-side: raise :class:`FaultAbort` once that many
  cells have been checkpointed to the active ledger, simulating a crash
  or Ctrl-C at a cell boundary (the ledger keeps its completed prefix).
* ``shard_exit`` — shard-server-side: ``os._exit`` the serving process
  once it has answered that many requests, simulating a shard dying
  mid-run under live traffic.  A marker file (keyed by the shard's
  identity) makes the death fire exactly once, so a supervisor-restarted
  shard armed with the same spec serves on — the recovery path can be
  proven against the identical environment that killed its predecessor.
* :func:`corrupt_ledger` — deterministically garble one entry line of a
  ledger file, for the corrupt-ledger recovery path.

Everything here is test scaffolding for ``tests/test_resilience.py``;
production runs never set ``REPRO_FAULTS``.
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
import time
from dataclasses import dataclass

__all__ = [
    "FaultAbort",
    "FaultPlan",
    "active_plan",
    "maybe_inject_task_fault",
    "maybe_exit_shard",
    "check_abort",
    "corrupt_ledger",
]


class FaultAbort(RuntimeError):
    """Injected mid-sweep crash (the parent process dies at a cell
    boundary; the ledger keeps everything checkpointed so far)."""


@dataclass(frozen=True)
class FaultPlan:
    """Parsed ``REPRO_FAULTS`` spec."""

    seed: int = 0
    kill: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.25
    abort: int = 0
    shard_exit: int = 0
    dir: str = ""

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        fields: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad REPRO_FAULTS entry {part!r}: expected key=value"
                )
            key, value = part.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key in ("seed", "abort", "shard_exit"):
                fields[key] = int(value)
            elif key in ("kill", "delay", "delay_s"):
                fields[key] = float(value)
            elif key == "dir":
                fields[key] = value
            else:
                raise ValueError(f"unknown REPRO_FAULTS key {key!r}")
        return cls(**fields)

    @property
    def marker_dir(self) -> str:
        """Where once-only markers live (shared by parent and workers)."""
        return self.dir or os.path.join(
            tempfile.gettempdir(), f"repro-faults-{self.seed}"
        )


_cache: tuple[str, FaultPlan | None] = ("", None)


def active_plan() -> FaultPlan | None:
    """The plan from ``REPRO_FAULTS``, or ``None`` when unset/empty."""
    global _cache
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if not raw:
        return None
    if _cache[0] != raw:
        _cache = (raw, FaultPlan.from_spec(raw))
    return _cache[1]


def _decide(plan: FaultPlan, domain: str, blob: bytes) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, domain, payload)."""
    h = hashlib.sha256(f"{plan.seed}:{domain}:".encode("utf-8") + blob)
    return int.from_bytes(h.digest()[:8], "big") / 2.0**64


def maybe_inject_task_fault(blob: bytes) -> None:
    """Worker-side hook: possibly kill this worker or stall this task.

    Called by the pool trampoline with the task's payload bytes, before
    the task body runs.  Each selected task faults exactly once (marker
    file), so its retry succeeds.  No-op unless ``REPRO_FAULTS`` arms a
    ``kill`` or ``delay`` probability.
    """
    plan = active_plan()
    if plan is None or (plan.kill <= 0.0 and plan.delay <= 0.0):
        return
    marker_dir = plan.marker_dir
    os.makedirs(marker_dir, exist_ok=True)
    digest = hashlib.sha256(blob).hexdigest()[:24]
    marker = os.path.join(marker_dir, digest)
    if os.path.exists(marker):
        return  # this task already faulted once; let it succeed
    if _decide(plan, "kill", blob) < plan.kill:
        with open(marker, "w") as fh:
            fh.write("kill\n")
        os._exit(23)  # hard worker death: parent sees BrokenProcessPool
    if _decide(plan, "delay", blob) < plan.delay:
        with open(marker, "w") as fh:
            fh.write("delay\n")
        time.sleep(plan.delay_s)


def maybe_exit_shard(identity: str, requests_served: int) -> None:
    """Shard-server-side hook: die once ``shard_exit`` requests served.

    Called by the shard HTTP handler after each answered request with
    the shard's stable identity (its index).  Fires ``os._exit`` exactly
    once per ``(plan, identity)`` — the marker file survives the death,
    so the supervisor's replacement process (same identity, same
    environment) keeps serving.  No-op unless ``REPRO_FAULTS`` arms
    ``shard_exit``.
    """
    plan = active_plan()
    if plan is None or plan.shard_exit <= 0:
        return
    if requests_served < plan.shard_exit:
        return
    marker_dir = plan.marker_dir
    os.makedirs(marker_dir, exist_ok=True)
    marker = os.path.join(marker_dir, f"shard-exit-{identity}")
    if os.path.exists(marker):
        return  # this shard already died once; its replacement serves on
    with open(marker, "w") as fh:
        fh.write("shard_exit\n")
    os._exit(21)  # hard shard death: clients see connection resets


def check_abort(cells_checkpointed: int) -> None:
    """Parent-side hook: crash once ``abort`` cells are checkpointed."""
    plan = active_plan()
    if plan is not None and plan.abort and cells_checkpointed >= plan.abort:
        raise FaultAbort(
            f"fault injection: aborting after {cells_checkpointed} "
            f"checkpointed cell(s)"
        )


def corrupt_ledger(path: str, seed: int = 0) -> int:
    """Deterministically garble one entry line of the ledger at ``path``.

    Picks a non-header line with a seeded RNG, truncates it mid-JSON and
    splices in garbage — the shape a torn write or disk corruption
    leaves behind.  Returns the (0-based) corrupted line index.
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    candidates = [i for i, line in enumerate(lines) if '"key"' in line]
    if not candidates:
        raise ValueError(f"ledger {path} has no entry lines to corrupt")
    index = random.Random(seed).choice(candidates)
    line = lines[index]
    lines[index] = line[: max(1, len(line) // 2)] + "#CORRUPT#"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return index
