"""Tests of the benchmark's own generators and of its traced pass.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import PER_LAYER, WORKLOADS  # noqa: E402


def _cold_bodies(seed: int, blocks: int) -> list[dict]:
    sequence = workloads.ColdSequence(seed)
    return [body for _ in range(blocks) for body in sequence.block()]


def _key(body: dict) -> str:
    from repro.service.scheduler import parse_run_request

    return parse_run_request(body).key()


def test_same_seed_same_sequence():
    assert workloads.sim_round(7, 3) == workloads.sim_round(7, 3)
    assert workloads.hot_set(7) == workloads.hot_set(7)
    assert workloads.hot_block(7, 5, 64) == workloads.hot_block(7, 5, 64)
    assert _cold_bodies(7, 5) == _cold_bodies(7, 5)
    assert _cold_bodies(7, 5) != _cold_bodies(8, 5)
    assert workloads.hot_set(7) != workloads.hot_set(8)


def test_every_round_and_block_is_a_permutation():
    assert sorted(workloads.sim_round(3, 0)) == sorted(workloads.SIM_CELLS)
    assert sorted(workloads.hot_block(3, 0, 64)) == list(range(64))


def test_cold_keys_are_distinct():
    bodies = _cold_bodies(11, 150)
    keys = [_key(body) for body in bodies]
    assert len(set(keys)) == len(keys)
    warm = {_key(body) for body in workloads.cold_warmup()}
    assert warm.isdisjoint(keys)


def test_hot_set_fits_the_default_cache():
    from repro.service.cache import DEFAULT_CAPACITY

    bodies = workloads.hot_set(5)
    keys = {_key(body) for body in bodies}
    assert len(keys) == len(bodies) <= DEFAULT_CAPACITY


def test_dag_shares_match_what_is_declared():
    def share(bodies):
        return sum(b.get("kind") == "dag" for b in bodies) / len(bodies)

    assert share(workloads.hot_set(2)) == 0.25
    sequence = workloads.ColdSequence(2)
    for _ in range(3):
        assert share(sequence.block()) == 0.15


def test_sim_paper_plans_stay_resident():
    """At most 8 vec plan signatures: after one round every vec call
    finds its plan in the cache."""
    import repro
    from repro.sim.hmm_vec import plan_cache_info

    vec_cells = [c for c in workloads.SIM_CELLS if c[0] == "vec"]
    for _ in range(2):
        before = plan_cache_info()
        for engine, program, f in vec_cells:
            repro.run(
                program, engine, f, v=workloads.SIM_WIDTHS[program],
                baseline=False,
            )
        after = plan_cache_info()
    assert after["misses"] == before["misses"]
    assert after["size"] <= after["max"] == 8


def test_figures_scale_with_the_probe():
    """A slice measured while the probe read twice its reference is
    reported at half its measured times and twice its rate."""
    from harness import sliced_summary

    latencies = [0.001 * (i + 1) for i in range(10)]
    measured = sliced_summary([(latencies, 1.0)], [[5.0, 5.0]], 5.0)
    slow = sliced_summary([(latencies, 1.0)], [[10.0, 9.0, 11.0]], 5.0)
    assert slow["raw"] == measured["raw"] == {
        name: measured[name] for name in ("p50_ms", "p90_ms", "ops_per_s")
    }
    assert slow["p50_ms"] == pytest.approx(measured["p50_ms"] / 2)
    assert slow["p90_ms"] == pytest.approx(measured["p90_ms"] / 2)
    assert slow["ops_per_s"] == pytest.approx(measured["ops_per_s"] * 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_emits_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
