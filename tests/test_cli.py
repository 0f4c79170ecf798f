"""The command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import PROGRAMS, build_parser, main, parse_access_function
from repro.functions import (
    ConstantAccess,
    LinearAccess,
    LogarithmicAccess,
    PolynomialAccess,
    StaircaseAccess,
)


class TestParseAccessFunction:
    def test_polynomial(self):
        f = parse_access_function("x^0.5")
        assert isinstance(f, PolynomialAccess) and f.alpha == 0.5

    def test_log_aliases(self):
        for spec in ("log", "LOG", "log x"):
            assert isinstance(parse_access_function(spec), LogarithmicAccess)

    def test_const_linear_staircase(self):
        assert isinstance(parse_access_function("const"), ConstantAccess)
        assert isinstance(parse_access_function("linear"), LinearAccess)
        assert isinstance(parse_access_function("staircase"), StaircaseAccess)

    def test_bad_specs(self):
        import argparse

        for spec in ("x^2", "x^", "bogus"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_access_function(spec)

    def test_degenerate_exponents_get_actionable_messages(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="'const'"):
            parse_access_function("x^0")
        with pytest.raises(argparse.ArgumentTypeError, match="'linear'"):
            parse_access_function("x^1")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in PROGRAMS:
            assert name in out

    def test_run_direct(self, capsys):
        assert main(["run", "sort", "--v", "16", "--engine", "direct"]) == 0
        out = capsys.readouterr().out
        assert "direct D-BSP" in out

    @pytest.mark.parametrize("engine", ["hmm", "bt", "brent"])
    def test_run_each_engine(self, capsys, engine):
        assert main(["run", "reduce", "--v", "8", "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert engine in out
        assert "slowdown" in out

    def test_run_all_engines(self, capsys):
        assert main(["run", "random", "--v", "8", "--f", "log"]) == 0
        out = capsys.readouterr().out
        for engine in ("hmm", "bt", "brent"):
            assert engine in out

    def test_run_unknown_program(self):
        with pytest.raises(SystemExit):
            main(["run", "nope", "--v", "8"])

    def test_touch(self, capsys):
        assert main(["touch", "--n", "4096", "--f", "log"]) == 0
        out = capsys.readouterr().out
        assert "Fact 1" in out and "Fact 2" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "sort"])
        assert args.v == 64 and args.engine == "all"
        assert isinstance(args.f, PolynomialAccess)

    def test_brent_host_width_flag(self, capsys):
        assert main(["run", "sort", "--v", "16", "--engine", "brent",
                     "--v-host", "2"]) == 0
        assert "v'=2" in capsys.readouterr().out


class TestJSONOutput:
    def test_run_json_schema(self, capsys):
        assert main(["run", "reduce", "--v", "8", "--engine", "hmm",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"program", "v", "mu", "f", "supersteps",
                            "direct", "engines"}
        assert doc["v"] == 8 and doc["f"] == "x^0.5"
        hmm = doc["engines"]["hmm"]
        assert set(hmm) == {"engine", "time", "slowdown", "baseline_time",
                            "breakdown", "counters", "meta"}
        assert hmm["baseline_time"] == doc["direct"]["time"]
        assert hmm["slowdown"] == pytest.approx(
            hmm["time"] / doc["direct"]["time"]
        )

    def test_touch_json_schema(self, capsys):
        assert main(["touch", "--n", "1024", "--f", "log", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"n", "f", "hmm", "bt", "bt_advantage"}
        assert doc["hmm"]["cost"] > doc["bt"]["cost"] > 0
        assert doc["bt_advantage"] == pytest.approx(
            doc["hmm"]["cost"] / doc["bt"]["cost"]
        )


class TestProfile:
    def test_profile_text(self, capsys):
        assert main(["profile", "reduce", "--v", "8", "--engine", "bt"]) == 0
        out = capsys.readouterr().out
        assert "total charged time" in out
        assert "phase breakdown:" in out and "delivery" in out
        assert "counters:" in out and "block_transfers" in out

    @pytest.mark.parametrize("engine", ["direct", "hmm", "bt", "brent"])
    def test_profile_every_engine(self, capsys, engine):
        assert main(["profile", "reduce", "--v", "8",
                     "--engine", engine]) == 0
        assert "total charged time" in capsys.readouterr().out

    def test_profile_json_trace_reproduces_total_time(self, capsys):
        """Acceptance: the exported trace partitions the charged time."""
        assert main(["profile", "sort", "--v", "64", "--f", "x^0.5",
                     "--engine", "bt", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine"] == "bt" and doc["trace"]
        total = doc["time"]
        assert sum(doc["breakdown"].values()) == pytest.approx(
            total, rel=1e-12
        )
        assert sum(s["self_cost"] for s in doc["trace"]) == pytest.approx(
            total, rel=1e-12
        )
        roots = [s for s in doc["trace"] if s["parent"] == -1]
        assert sum(s["cost"] for s in roots) == pytest.approx(
            total, rel=1e-12
        )

    def test_profile_jsonl_export(self, capsys, tmp_path):
        from repro.obs import spans_from_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["profile", "broadcast", "--v", "8", "--engine", "hmm",
                     "--jsonl", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        spans = spans_from_jsonl(path.read_text())
        assert spans and spans[0].depth == 0

    def test_profile_json_with_jsonl_omits_inline_trace(self, capsys,
                                                        tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["profile", "broadcast", "--v", "8", "--engine", "hmm",
                     "--jsonl", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "trace" not in doc
        assert path.exists()


class TestSlowdownGuard:
    def test_zero_direct_time_prints_na(self, capsys, monkeypatch):
        from repro.cli import ENGINES
        from repro.engines import EngineResult

        class ZeroDirect:
            name = "direct"
            description = "zero-time stand-in"

            def run(self, program, f, trace="phases", **opts):
                return EngineResult(engine="direct", time=0.0, contexts=[])

        monkeypatch.setitem(ENGINES, "direct", ZeroDirect())
        assert main(["run", "reduce", "--v", "8", "--engine", "hmm"]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out
        assert "slowdown =        0.0" not in out


class TestCLIErrors:
    def test_bad_program_parameters_fail_cleanly(self):
        with pytest.raises(SystemExit, match="cannot build"):
            main(["run", "matmul", "--v", "8"])  # needs a power of 4

    def test_conv_too_small_fails_cleanly(self):
        with pytest.raises(SystemExit, match="cannot build"):
            main(["run", "conv", "--v", "2"])


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"


class TestServiceCommands:
    def test_loadgen_smoke_writes_and_checks(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_service_smoke.json"
        assert main([
            "loadgen", "--smoke", "--clients", "1", "--requests", "4",
            "--seed", "13", "--output", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["errors"] == 0
        assert set(doc["phases"]) == {"cold", "hot"}
        # --check against the run's own output always passes
        assert main([
            "loadgen", "--smoke", "--clients", "1", "--requests", "4",
            "--seed", "13", "--output", str(tmp_path / "again.json"),
            "--check", str(out_path),
        ]) == 0

    def test_loadgen_check_fails_on_schema_drift(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 999, "phases": {}}))
        with pytest.raises(SystemExit, match="schema"):
            main([
                "loadgen", "--smoke", "--clients", "1", "--requests", "2",
                "--output", str(tmp_path / "out.json"), "--check", str(bad),
            ])

    def test_loadgen_min_speedup_floor_fails(self, tmp_path, capsys):
        # a 2-request smoke run cannot hit an absurd 10000x floor
        assert main([
            "loadgen", "--smoke", "--clients", "1", "--requests", "2",
            "--output", str(tmp_path / "out.json"),
            "--min-speedup", "10000",
        ]) == 1
        err = capsys.readouterr().err
        assert "floor" in err


class TestBenchOnlyFilter:
    def test_only_matches_workload_names(self):
        from repro.bench import WORKLOADS

        matched = [w for w in WORKLOADS if "sort/" in w.name]
        assert matched  # the matrix still carries the sort rows

    def test_only_matches_the_program_field_too(self, capsys, monkeypatch):
        # "fft" appears only in the program/name of the fft rows; an
        # engine name like "vec" appears in names only — but a program
        # like "fft-rec" must select rows whose *program* is fft-rec
        # even if a future rename drops it from the row name
        import repro.bench as bench_mod
        from repro.bench import Workload

        rows = (
            Workload("spectral/hmm", "hmm", "fft-rec"),
            Workload("sort/direct", "direct", "sort"),
        )
        monkeypatch.setattr(bench_mod, "WORKLOADS", rows)
        captured: dict = {}

        def fake_run_bench(**kw):
            captured["workloads"] = kw["workloads"]
            return bench_mod.bench_header("sim_throughput", "test", workloads={})

        monkeypatch.setattr(bench_mod, "run_bench", fake_run_bench)
        monkeypatch.setattr(bench_mod, "write", lambda *_: None)
        assert main(["bench", "--only", "fft-rec", "--smoke"]) == 0
        names = [w.name for w in captured["workloads"]]
        assert names == ["spectral/hmm"]

    def test_only_without_match_fails_cleanly(self):
        with pytest.raises(SystemExit, match="matches no workload"):
            main(["bench", "--only", "zzz-nothing"])

    def test_jobs_without_distribute_is_a_usage_error(self):
        # a single simulation always runs in one process: --jobs only
        # spreads whole workloads, which takes --distribute
        with pytest.raises(SystemExit, match="--distribute"):
            main(["bench", "--smoke", "--jobs", "2"])


class TestDagCommand:
    def test_dag_run_checks_values(self, capsys):
        assert main([
            "dag", "run", "stream-scan", "--epochs", "2",
            "--partitions", "4", "--chunk", "2", "--v", "4",
            "--engine", "direct",
        ]) == 0
        out = capsys.readouterr().out
        assert "values match the sequential reference" in out

    def test_dag_run_json(self, capsys):
        assert main([
            "dag", "run", "stream-reduce", "--epochs", "2",
            "--partitions", "4", "--chunk", "2", "--v", "4",
            "--engine", "vec", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values_ok"] is True
        assert doc["heuristic"] == "locality"
        assert "vec" in doc["engines"]

    def test_dag_schedule_prints_placement(self, capsys):
        assert main([
            "dag", "schedule", "stream-scan", "--epochs", "2",
            "--partitions", "4", "--chunk", "2", "--v", "4",
            "--heuristic", "greedy",
        ]) == 0
        out = capsys.readouterr().out
        assert "greedy onto v=4" in out and "p0:" in out

    def test_dag_compare_both_heuristics(self, capsys):
        assert main([
            "dag", "compare", "stream-stencil", "--epochs", "3",
            "--partitions", "8", "--chunk", "2", "--v", "4", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        heuristics = {row["heuristic"]: row for row in doc["heuristics"]}
        assert set(heuristics) == {"greedy", "locality"}
        assert (heuristics["locality"]["messages"]
                < heuristics["greedy"]["messages"])

    def test_dag_spec_file(self, capsys, tmp_path):
        spec = {
            "schema": 1, "name": "pair",
            "tasks": [{"id": "a", "payload": 2}, {"id": "b"}],
            "edges": [{"src": "a", "dst": "b"}],
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(spec))
        assert main([
            "dag", "run", "--spec", str(path), "--v", "2",
            "--engine", "direct",
        ]) == 0

    def test_dag_refusals_are_actionable(self, tmp_path):
        with pytest.raises(SystemExit, match="stream-scan"):
            main(["dag", "run"])
        with pytest.raises(SystemExit, match="not both"):
            main(["dag", "run", "stream-scan", "--spec", "x.json"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "name": "loop",
                                   "tasks": [{"id": "a"}],
                                   "edges": [{"src": "a", "dst": "a"}]}))
        with pytest.raises(SystemExit, match="self-edge"):
            main(["dag", "run", "--spec", str(bad), "--v", "2"])

    def test_bench_dag_smoke_writes_and_checks(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_dag.json"
        assert main([
            "bench", "--dag", "--smoke", "--output", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert sum(
            1 for w in doc["workloads"].values() if w["locality_wins"]
        ) >= 2
        assert main([
            "bench", "--dag", "--smoke", "--check", str(out_path),
        ]) == 0

    def test_bench_dag_refuses_wall_matrix_flags(self):
        with pytest.raises(SystemExit, match="wall-clock matrix"):
            main(["bench", "--dag", "--distribute"])
