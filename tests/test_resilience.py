"""Chaos suite for ``repro.resilience``: checkpoint/resume + fault tolerance.

Every fault here is injected deterministically — worker kills and task
delays through ``REPRO_FAULTS`` (decisions are a pure function of the
seed and the task payload), mid-sweep crashes through the parent-side
abort hook, ledger damage through :func:`~repro.resilience.faults.
corrupt_ledger` — so each recovery path is exercised reproducibly:

* worker death → pool rebuild + bounded resubmission (retry policy);
* task past its deadline → resubmission with backoff;
* genuine task exceptions → propagate unchanged on first occurrence,
  never retried;
* mid-sweep crash → ``--resume`` replays the ledger prefix and computes
  only the missing cells, folding a document bit-identical to an
  uninterrupted run;
* corrupt ledger line → skipped with a warning, only that cell redone.

The invariant throughout is the PR 3 one: charged model costs are
compared with ``==`` against a clean serial run — faults, retries and
resume boundaries must be invisible in every charged number.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro.bench import Workload, run_bench, workload_cell_key
from repro.cli import main
from repro.parallel.config import (
    ParallelConfig,
    reset_fallback_warnings,
)
from repro.parallel.pool import (
    PoolUnavailable,
    WorkerPool,
    dumps_payload,
    shared_pool,
)
from repro.parallel.sweep import (
    parallel_map,
    run_matrix_distributed,
    touch_sweep,
)
from repro.resilience import (
    MISSING,
    FaultAbort,
    FaultPlan,
    LedgerWarning,
    RetryPolicy,
    SweepLedger,
    cell_key,
    corrupt_ledger,
)
from repro.resilience import faults, recovery
from repro.resilience.retry import DEFAULT_RETRY, NO_RETRY

SIZES = [256, 512, 1024]

#: tiny bench matrix: one row per engine family, sub-second sweeps
TINY_WORKLOADS = (
    Workload("sort/hmm", "hmm", "sort", start=4, cap=8, delivery_heavy=True),
    Workload("sort/bt", "bt", "sort", start=4, cap=8, delivery_heavy=True),
    Workload("sort/direct", "direct", "sort", start=4, cap=8),
    Workload("touch/hmm", "touch-hmm", "-", start=1 << 10, cap=1 << 11),
)

CHARGED_FIELDS = ("v", "model_time", "rounds", "charged_words")


def eager(**kw) -> ParallelConfig:
    kw.setdefault("jobs", 2)
    kw.setdefault("retry", RetryPolicy(max_retries=4, backoff_s=0.0))
    return ParallelConfig(**kw)


def charged_view(doc):
    """The deterministic slice of a bench document (wall numbers vary)."""
    return {
        name: [{k: cell[k] for k in CHARGED_FIELDS} for cell in wl["sweep"]]
        for name, wl in doc["workloads"].items()
    }


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    recovery.reset()
    reset_fallback_warnings()
    yield
    # a chaos test can leave the shared pool with a kill still landing;
    # shut it down so the next test starts from a fresh executor
    shared_pool(2).shutdown()
    recovery.reset()
    reset_fallback_warnings()


# ---------------------------------------------------------- retry policy
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)


def test_retry_policy_backoff_grows_exponentially():
    policy = RetryPolicy(backoff_s=0.1, backoff_factor=3.0)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.3)
    assert policy.delay(3) == pytest.approx(0.9)
    assert RetryPolicy(backoff_s=0.0).delay(5) == 0.0
    assert NO_RETRY.max_retries == 0
    assert DEFAULT_RETRY.max_retries > 0


# --------------------------------------------------------------- ledger
def test_cell_key_is_content_addressed():
    base = cell_key("touch-cost", (256, "x^0.5"))
    assert base == cell_key("touch-cost", (256, "x^0.5"))
    assert base != cell_key("touch-cost", (512, "x^0.5"))
    assert base != cell_key("touch-cost", (256, "log"))
    assert base != cell_key("bench-workload", (256, "x^0.5"))
    assert base != cell_key("touch-cost", (256, "x^0.5"), {"schema": 2})


def test_ledger_roundtrip(tmp_path):
    path = str(tmp_path / "cells.ledger")
    with SweepLedger.create(path) as ledger:
        key = cell_key("touch-cost", (256, "x^0.5"))
        assert ledger.get(key) is MISSING
        ledger.record(key, "touch-cost", {"n": 256, "cost": 1.5})
        assert key in ledger
        assert ledger.get(key) == {"n": 256, "cost": 1.5}
    resumed = SweepLedger.resume(path)
    assert len(resumed) == 1
    assert resumed.get(key) == {"n": 256, "cost": 1.5}
    assert resumed.hits == 1
    # appending keeps working after a resume
    key2 = cell_key("touch-cost", (512, "x^0.5"))
    resumed.record(key2, "touch-cost", {"n": 512})
    resumed.close()
    assert len(SweepLedger.resume(path)) == 2


def test_ledger_float_results_roundtrip_exactly(tmp_path):
    path = str(tmp_path / "cells.ledger")
    value = 0.1 + 0.2  # 0.30000000000000004 — shortest-repr territory
    with SweepLedger.create(path) as ledger:
        ledger.record("k", "t", {"cost": value, "big": 2.0**60 + 1.0})
    got = SweepLedger.resume(path).get("k")
    assert got["cost"] == value
    assert got["big"] == 2.0**60 + 1.0


def test_ledger_skips_corrupt_lines_and_warns(tmp_path):
    path = str(tmp_path / "cells.ledger")
    with SweepLedger.create(path) as ledger:
        for n in SIZES:
            ledger.record(
                cell_key("touch-cost", (n, "x^0.5")), "touch-cost", {"n": n}
            )
    corrupt_ledger(path, seed=5)
    with pytest.warns(LedgerWarning):
        resumed = SweepLedger.resume(path)
    assert len(resumed) == len(SIZES) - 1
    assert recovery.counters().get("ledger_corrupt_lines") == 1
    resumed.close()


def test_corrupt_ledger_is_deterministic(tmp_path):
    lines = ['{"ledger":1}'] + [
        json.dumps({"key": f"k{i}", "kind": "t", "result": i})
        for i in range(5)
    ]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for path in (a, b):
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    assert corrupt_ledger(a, seed=9) == corrupt_ledger(b, seed=9)
    assert open(a).read() == open(b).read()


# ------------------------------------------------- parallel_map + ledger
def test_resume_map_serial_checkpoints_every_cell(tmp_path):
    path = str(tmp_path / "cells.ledger")
    args = [(n, "x^0.5") for n in SIZES]
    with SweepLedger.create(path) as ledger:
        first = parallel_map("touch-cost", args, ledger=ledger)
        assert ledger.cells_recorded == len(SIZES)
    with SweepLedger.resume(path) as ledger:
        again = parallel_map("touch-cost", args, ledger=ledger)
        assert ledger.hits == len(SIZES)
        assert ledger.cells_recorded == 0
    assert again == first
    assert recovery.counters()["cells_resumed"] == len(SIZES)


def test_resume_map_computes_only_missing_cells(tmp_path):
    path = str(tmp_path / "cells.ledger")
    args = [(n, "x^0.5") for n in SIZES]
    with SweepLedger.create(path) as ledger:
        full = parallel_map("touch-cost", args, ledger=ledger)
    with SweepLedger.resume(path) as ledger:
        extended = parallel_map(
            "touch-cost", args + [(2048, "x^0.5")], ledger=ledger
        )
        assert ledger.hits == len(SIZES)
        assert ledger.cells_recorded == 1
    assert extended[: len(SIZES)] == full


# ----------------------------------------------------- chaos: worker kill
def test_worker_kill_is_retried_to_identical_results(tmp_path):
    clean = touch_sweep(SIZES, parallel=None)
    # workers inherit REPRO_FAULTS at spawn; recycle any pool the clean
    # baseline warmed (REPRO_JOBS may make parallel=None non-serial) so
    # the chaotic run spawns workers that see the fault plan
    shared_pool(2).shutdown()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FAULTS", f"seed=7,kill=1.0,dir={tmp_path / 'm'}")
        chaotic = touch_sweep(SIZES, parallel=eager())
    assert chaotic == clean
    counters = recovery.counters()
    assert counters["worker_deaths"] >= 1
    assert counters["pool_retries"] >= 1


def test_worker_kill_exhausts_into_fallback_when_no_retry(tmp_path):
    clean = touch_sweep(SIZES, parallel=None)
    shared_pool(2).shutdown()
    cfg = eager(retry=NO_RETRY)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FAULTS", f"seed=7,kill=1.0,dir={tmp_path / 'm'}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            degraded = touch_sweep(SIZES, parallel=cfg)
    # even with retries off, the serial fallback keeps results identical
    assert degraded == clean


def test_a_worker_death_costs_only_its_own_task(tmp_path):
    # seed 3 at kill=0.5 kills the first attempt of tasks 1 and 3 only;
    # each death must be charged to the task that died, and retry it
    # alone, while the slower task 0 in flight beside it finishes
    sizes = [16384, *SIZES]
    clean = touch_sweep(sizes, parallel=None)
    shared_pool(2).shutdown()
    markers = tmp_path / "m"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FAULTS", f"seed=3,kill=0.5,dir={markers}")
        chaotic = touch_sweep(sizes, parallel=eager())
    assert chaotic == clean
    # a kill marker is named by its task's payload digest
    digests = [
        hashlib.sha256(dumps_payload(("touch-cost", (n, "x^0.5")))).hexdigest()
        for n in sizes
    ]
    killed = [i for i, d in enumerate(digests) if (markers / d[:24]).exists()]
    assert killed == [1, 3]
    events = recovery.events()
    deaths = [e["index"] for e in events if e["event"] == "worker_deaths"]
    retried = [
        e["index"]
        for e in events
        if e["event"] == "pool_retries" and e["cause"] == "death"
    ]
    assert sorted(deaths) == killed  # one death per kill marker
    assert sorted(retried) == killed


# ---------------------------------------------------- chaos: task timeout
def test_task_past_deadline_is_resubmitted(tmp_path):
    clean = touch_sweep(SIZES, parallel=None)
    shared_pool(2).shutdown()
    cfg = eager(
        retry=RetryPolicy(max_retries=4, timeout_s=0.2, backoff_s=0.0)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(
            "REPRO_FAULTS",
            f"seed=11,delay=1.0,delay_s=0.6,dir={tmp_path / 'm'}",
        )
        chaotic = touch_sweep(SIZES, parallel=cfg)
    assert chaotic == clean
    assert recovery.counters()["pool_timeouts"] >= 1


def test_timeout_exhaustion_surfaces_as_pool_unavailable(tmp_path):
    pool = WorkerPool(jobs=2)
    policy = RetryPolicy(max_retries=1, timeout_s=0.1, backoff_s=0.0)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(
                "REPRO_FAULTS",
                # delay far past the deadline, on every attempt the
                # marker allows (first); retries=1 cannot outlast the
                # still-sleeping worker slots on a 2-proc pool
                f"seed=13,delay=1.0,delay_s=30,dir={tmp_path / 'm'}",
            )
            with pytest.raises(PoolUnavailable):
                list(
                    pool.run_ordered(
                        "touch-cost",
                        [(n, "x^0.5") for n in SIZES],
                        policy=policy,
                    )
                )
    finally:
        pool.shutdown()


# ------------------------------------------- taxonomy: genuine exceptions
def test_genuine_task_exception_is_never_retried():
    # x^0 is rejected by resolve_access_function inside the worker — a
    # *task* failure, which must propagate unchanged on first occurrence
    with pytest.raises(ValueError, match="x\\^0"):
        touch_sweep([256], f="x^0", parallel=eager())
    assert recovery.counters().get("pool_retries") is None


# --------------------------------------------- abort + resume: touch sweep
def test_touch_sweep_abort_then_resume_is_identical(tmp_path):
    clean = touch_sweep(SIZES, parallel=None)
    path = str(tmp_path / "touch.ledger")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FAULTS", "seed=3,abort=2")
        with SweepLedger.create(path) as ledger:
            with pytest.raises(FaultAbort):
                touch_sweep(SIZES, parallel=None, ledger=ledger)
            assert ledger.cells_recorded == 2
    with SweepLedger.resume(path) as ledger:
        resumed = touch_sweep(SIZES, parallel=None, ledger=ledger)
        assert ledger.hits == 2
        assert ledger.cells_recorded == 1
    assert resumed == clean


# ------------------------------------- abort + resume: bench --distribute
def test_distributed_bench_killed_midway_resumes_byte_identical(tmp_path):
    """The acceptance path: kill a distributed bench mid-sweep, resume,
    and require per-cell charged costs byte-identical to a clean run."""
    cfg = eager()
    clean = run_matrix_distributed(TINY_WORKLOADS, budget_s=0.5, parallel=cfg)
    path = str(tmp_path / "bench.ledger")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FAULTS", "seed=3,abort=2")
        with SweepLedger.create(path) as ledger:
            with pytest.raises(FaultAbort):
                run_matrix_distributed(
                    TINY_WORKLOADS, budget_s=0.5, parallel=cfg, ledger=ledger
                )
    with SweepLedger.resume(path) as ledger:
        resumed = run_matrix_distributed(
            TINY_WORKLOADS, budget_s=0.5, parallel=cfg, ledger=ledger
        )
        assert ledger.hits == 2
    assert json.dumps(charged_view(resumed), sort_keys=True) == json.dumps(
        charged_view(clean), sort_keys=True
    )
    assert resumed["resilience"]["cells_resumed"] == 2


def test_distributed_bench_survives_corrupt_ledger(tmp_path):
    cfg = eager()
    clean = run_matrix_distributed(TINY_WORKLOADS, budget_s=0.5, parallel=cfg)
    path = str(tmp_path / "bench.ledger")
    with SweepLedger.create(path) as ledger:
        run_matrix_distributed(
            TINY_WORKLOADS, budget_s=0.5, parallel=cfg, ledger=ledger
        )
    corrupt_ledger(path, seed=5)
    with pytest.warns(LedgerWarning):
        ledger = SweepLedger.resume(path)
    with ledger:
        redone = run_matrix_distributed(
            TINY_WORKLOADS, budget_s=0.5, parallel=cfg, ledger=ledger
        )
        # exactly the corrupted cell was recomputed
        assert ledger.cells_recorded == 1
        assert ledger.hits == len(TINY_WORKLOADS) - 1
    assert charged_view(redone) == charged_view(clean)


# --------------------------------------------------- serial bench ledger
def test_run_bench_shares_ledger_with_distributed(tmp_path):
    path = str(tmp_path / "bench.ledger")
    with SweepLedger.create(path) as ledger:
        serial = run_bench(
            budget_s=0.5, workloads=TINY_WORKLOADS, ledger=ledger
        )
        assert ledger.cells_recorded == len(TINY_WORKLOADS)
    with SweepLedger.resume(path) as ledger:
        distributed = run_matrix_distributed(
            TINY_WORKLOADS, budget_s=0.5, parallel=eager(), ledger=ledger
        )
        # every serial cell is replayed: keys and shapes are shared
        assert ledger.hits == len(TINY_WORKLOADS)
        assert ledger.cells_recorded == 0
    assert charged_view(distributed) == charged_view(serial)
    for w in TINY_WORKLOADS:
        assert workload_cell_key(w, 0.5, False) in ledger


# ------------------------------------------------------------------- CLI
def test_cli_touch_sweep_checkpoint_and_resume(tmp_path, capsys):
    path = str(tmp_path / "touch.ledger")
    sweep = "256,512,1024"
    assert main(["touch", "--sweep", sweep, "--checkpoint", path]) == 0
    first = capsys.readouterr().out
    assert "3 cell(s)" not in first  # nothing resumed on a fresh ledger
    assert main(["touch", "--sweep", sweep, "--resume", path]) == 0
    second = capsys.readouterr().out
    assert "3 cell(s) resumed, 0 recorded" in second
    # the numeric table is identical either way
    assert first.splitlines()[-4:] == second.splitlines()[-4:]


def test_cli_checkpoint_and_resume_are_mutually_exclusive(tmp_path):
    path = str(tmp_path / "touch.ledger")
    with pytest.raises(SystemExit, match="mutually exclusive"):
        main(["touch", "--sweep", "256", "--checkpoint", path,
              "--resume", path])


def test_cli_resume_missing_ledger_fails_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="cannot open ledger"):
        main(["touch", "--sweep", "256",
              "--resume", str(tmp_path / "nope.ledger")])


# ------------------------------------------------------- obs integration
def test_profile_jsonl_interleaves_recovery_events(tmp_path):
    from repro.obs.export import spans_from_jsonl

    recovery.record("worker_deaths", kind="hmm-segment", index=0, attempt=1)
    out = str(tmp_path / "trace.jsonl")
    assert main(["profile", "reduce", "--v", "8", "--engine", "bt",
                 "--jsonl", out]) == 0
    text = open(out).read()
    docs = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
    assert any(doc.get("event") == "worker_deaths" for doc in docs)
    # the span reader skips the event lines
    spans = spans_from_jsonl(text)
    assert spans
    assert len(spans) < len(docs)


# ----------------------------------------------------------- fault plans
def test_fault_plan_parsing():
    plan = FaultPlan.from_spec("seed=7, kill=0.5, delay=0.25, delay_s=0.1, "
                               "abort=3, dir=/tmp/x")
    assert plan == FaultPlan(seed=7, kill=0.5, delay=0.25, delay_s=0.1,
                             abort=3, dir="/tmp/x")
    with pytest.raises(ValueError, match="unknown"):
        FaultPlan.from_spec("seed=7,bogus=1")
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.from_spec("seed")


def test_fault_decisions_are_deterministic():
    plan = FaultPlan(seed=7, kill=0.5)
    draws = [faults._decide(plan, "kill", bytes([i])) for i in range(64)]
    assert draws == [faults._decide(plan, "kill", bytes([i]))
                     for i in range(64)]
    assert all(0.0 <= d < 1.0 for d in draws)
    other = [faults._decide(FaultPlan(seed=8, kill=0.5), "kill", bytes([i]))
             for i in range(64)]
    assert draws != other


def test_check_abort_fires_only_at_threshold(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "seed=1,abort=3")
    faults.check_abort(2)  # below threshold: no-op
    with pytest.raises(FaultAbort):
        faults.check_abort(3)
    monkeypatch.delenv("REPRO_FAULTS")
    faults.check_abort(100)  # unarmed: never fires
