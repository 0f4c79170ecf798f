"""The unified engine API: registry, EngineResult, repro.run()."""

from __future__ import annotations

import pytest

import repro
from repro.dbsp.machine import DBSP_PHASES
from repro.dbsp.program import Program
from repro.engines import (
    ENGINES,
    Engine,
    EngineResult,
    build_program,
    resolve_access_function,
    run,
)
from repro.functions import (
    ConstantAccess,
    LinearAccess,
    LogarithmicAccess,
    PolynomialAccess,
)
from repro.sim.brent import BRENT_PHASES
from repro.sim.bt_sim import BT_PHASES
from repro.sim.hmm_sim import HMM_PHASES

ALL_ENGINES = ("direct", "hmm", "vec", "bt", "brent")

PHASES_OF = {
    "direct": DBSP_PHASES,
    "hmm": HMM_PHASES,
    "vec": HMM_PHASES,
    "bt": BT_PHASES,
    "brent": BRENT_PHASES,
}


class TestRegistry:
    def test_all_engines_registered(self):
        assert set(ENGINES) == set(ALL_ENGINES)

    def test_entries_satisfy_protocol(self):
        for name, engine in ENGINES.items():
            assert isinstance(engine, Engine)
            assert engine.name == name
            assert engine.description

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run("broadcast", engine="gpu", v=8)

    def test_unknown_program_rejected(self):
        with pytest.raises(ValueError, match="unknown program"):
            build_program("nope", 8)


class TestResolveAccessFunction:
    def test_specs(self):
        assert isinstance(resolve_access_function("x^0.5"), PolynomialAccess)
        assert isinstance(resolve_access_function("log"), LogarithmicAccess)
        assert isinstance(resolve_access_function("const"), ConstantAccess)
        assert isinstance(resolve_access_function("linear"), LinearAccess)

    def test_x0_names_the_flat_ram(self):
        with pytest.raises(ValueError, match="flat RAM.*'const'"):
            resolve_access_function("x^0")

    def test_x1_names_the_linear_hierarchy(self):
        with pytest.raises(ValueError, match="'linear'"):
            resolve_access_function("x^1")

    def test_non_numeric_exponent(self):
        with pytest.raises(ValueError, match="numeric"):
            resolve_access_function("x^")

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown access function"):
            resolve_access_function("bogus")


class TestRun:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_result_shape(self, engine):
        res = run("broadcast", engine=engine, f="x^0.5", v=8)
        assert isinstance(res, EngineResult)
        assert res.engine == engine
        assert res.time > 0
        assert len(res.contexts) == 8
        assert res.meta["program"] == "broadcast(v=8)"
        assert res.meta["f"] == "x^0.5"
        assert res.native is not None

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_breakdown_partitions_time(self, engine):
        res = run("reduce", engine=engine, f="x^0.5", v=8)
        assert set(res.breakdown) == set(PHASES_OF[engine])
        assert sum(res.breakdown.values()) == pytest.approx(
            res.time, rel=1e-12
        )

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_contexts_match_direct_run(self, engine):
        program = build_program("prefix", 8)
        direct = run(program, engine="direct")
        res = run(program, engine=engine, baseline=False)
        assert res.contexts == direct.contexts

    def test_slowdown_against_direct(self):
        res = run("broadcast", engine="hmm", f="x^0.5", v=8)
        assert res.baseline_time is not None and res.baseline_time > 0
        assert res.slowdown == pytest.approx(res.time / res.baseline_time)
        direct = run("broadcast", engine="direct", f="x^0.5", v=8)
        assert direct.slowdown == 1.0

    def test_baseline_false_skips_direct_run(self):
        res = run("broadcast", engine="hmm", v=8, baseline=False)
        assert res.slowdown is None and res.baseline_time is None

    def test_zero_baseline_yields_none_not_zero(self, monkeypatch):
        # a zero-time guest must not fabricate a 0.0 slowdown (the old
        # CLI printed "slowdown = 0.0"); no real program reaches this --
        # even an empty one is padded to a costed global sync -- so fake
        # the baseline machine, on the folded path and the separate run
        import repro.engines as engines_module

        class ZeroGuest:
            total_time = 0.0

        class ZeroMachine:
            def __init__(self, f, **kwargs):
                pass

            def fold_time(self, program, bodies):
                return 0.0

            def run(self, program):
                return ZeroGuest()

        monkeypatch.setattr(engines_module, "DBSPMachine", ZeroMachine)
        res = run("broadcast", engine="hmm", v=8)
        assert res.baseline_time == 0.0
        assert res.slowdown is None

    def test_empty_program_is_padded_to_a_costed_sync(self):
        empty = Program(4, 4, [], name="empty")
        res = ENGINES["direct"].run(empty, PolynomialAccess(0.5))
        assert res.time > 0  # with_global_sync appends a dummy 0-superstep

    def test_program_instance_and_name_agree(self):
        by_name = run("reduce", engine="bt", f="log", v=8)
        by_prog = run(build_program("reduce", 8), engine="bt", f="log")
        assert by_prog.time == by_name.time

    def test_access_function_instance_accepted(self):
        res = run("broadcast", engine="direct", f=PolynomialAccess(0.3), v=8)
        assert res.meta["f"] == "x^0.3"

    def test_engine_opts_pass_through(self):
        res = run("reduce", engine="brent", v=8, v_host=4)
        assert res.meta["v_host"] == 4
        ams = run("reduce", engine="bt", v=8, sort="mergesort")
        assert ams.meta["sort"] == "mergesort"


class TestTraceLevels:
    def test_off_disables_observability(self):
        res = run("reduce", engine="bt", v=8, trace="off", baseline=False)
        assert res.breakdown == {} and res.counters == {} and res.trace == []
        assert res.time > 0

    def test_off_does_not_change_charged_time(self):
        on = run("reduce", engine="bt", v=8, baseline=False)
        off = run("reduce", engine="bt", v=8, trace="off", baseline=False)
        assert off.time == on.time

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_full_trace_self_costs_sum_to_time(self, engine):
        res = run("reduce", engine=engine, v=8, trace="full", baseline=False)
        assert res.trace, f"{engine} recorded no spans"
        assert sum(s.self_cost for s in res.trace) == pytest.approx(
            res.time, rel=1e-12
        )

    def test_full_trace_round_trips_through_jsonl(self):
        res = run("broadcast", engine="hmm", v=8, trace="full", baseline=False)
        text = repro.spans_to_jsonl(res.trace)
        assert repro.spans_from_jsonl(text) == res.trace

    def test_direct_trace_mirrors_superstep_records(self):
        res = run("broadcast", engine="direct", v=8, trace="full")
        roots = [s for s in res.trace if s.parent == -1]
        assert len(roots) == res.counters["supersteps"]
        assert sum(s.cost for s in roots) == pytest.approx(res.time)


class TestCounterCorrectness:
    """Exact counters on the v=8 broadcast (deterministic workload).

    The broadcast routes v-1 = 7 messages down a binary tree in four
    supersteps (labels 0,1,2,0); every engine must agree on the message
    count, and the machine-level word counters are integer-exact.
    """

    def test_message_count_agrees_across_engines(self):
        for engine in ALL_ENGINES:
            res = run("broadcast", engine=engine, v=8, baseline=False)
            assert res.counters["messages"] == 7, engine

    def test_direct_counters(self):
        res = run("broadcast", engine="direct", v=8)
        assert res.counters == {
            "supersteps": 4,
            "dummy_supersteps": 0,
            "messages": 7,
            "max_h": 1,
        }

    def test_hmm_counters(self):
        res = run("broadcast", engine="hmm", v=8, baseline=False)
        # one round per superstep (the label sequence is already smooth),
        # and the word traffic of the Fig. 1 schedule is deterministic
        assert res.counters["rounds"] == 4
        assert res.counters["words_touched"] == 910
        # labels never force a cluster reshuffle here: no swap traffic
        assert "context_swaps" not in res.counters

    def test_bt_counters(self):
        res = run("broadcast", engine="bt", v=8, baseline=False)
        c = res.counters
        assert c["rounds"] == 7  # smoothing pads the label sequence
        assert c["block_transfers"] == 244
        assert c["words_moved"] == 2288
        assert c["words_touched"] == 512
        assert c["context_swaps"] == 24
        # words_moved is what block transfers carried: mu words per block
        assert c["words_moved"] % 8 == 0


class TestEngineResult:
    def test_to_json_is_serializable(self):
        import json

        res = run("reduce", engine="bt", v=8, trace="full")
        doc = res.to_json()
        parsed = json.loads(json.dumps(doc))
        assert parsed["engine"] == "bt"
        assert parsed["time"] == res.time
        assert len(parsed["trace"]) == len(res.trace)
        slim = res.to_json(include_trace=False)
        assert "trace" not in slim

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_from_json_round_trips_with_trace(self, engine):
        res = run("reduce", engine=engine, v=8, trace="full")
        doc = res.to_json()
        rebuilt = EngineResult.from_json(doc)
        assert rebuilt.to_json() == doc
        assert rebuilt.engine == res.engine
        assert rebuilt.time == res.time
        assert rebuilt.counters == res.counters
        assert len(rebuilt.trace) == len(res.trace)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_from_json_round_trips_trace_free(self, engine):
        res = run("reduce", engine=engine, v=8)
        slim = res.to_json(include_trace=False)
        rebuilt = EngineResult.from_json(slim)
        assert rebuilt.trace == []
        assert rebuilt.to_json(include_trace=False) == slim
        # a wire round-trip (floats included) survives exactly
        import json

        assert EngineResult.from_json(
            json.loads(json.dumps(slim))
        ).to_json(include_trace=False) == slim

    @pytest.mark.parametrize(
        "alias", ["total_time", "block_transfers", "rounds"]
    )
    def test_pre_unification_aliases_removed(self, alias):
        """The deprecated v0 aliases are gone as of the /v1 redesign."""
        res = run("reduce", engine="bt", v=8, baseline=False)
        with pytest.raises(AttributeError):
            getattr(res, alias)

    def test_native_result_keeps_its_own_fields(self):
        # the removal is about EngineResult only; engine-native results
        # keep their own attributes
        res = run("reduce", engine="bt", v=8, baseline=False)
        assert res.native.block_transfers == res.counters["block_transfers"]
