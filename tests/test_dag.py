"""The DAG front end: spec validation, scheduling, compilation, bench.

Three contracts pinned here:

* **Refusal with direction** — malformed DAG documents (cycles, dangling
  edges, schema drift, unknown fields) are rejected with messages that
  name the offending task/edge and say what to do, mirroring the
  calibration-profile loader's discipline.
* **Determinism** — identical specs produce byte-identical schedules
  (``canonical_json``), regardless of task/edge declaration order; this
  is what makes DAG results content-addressable in the service cache.
* **Compiled equivalence** — a scheduled DAG lowered to a superstep
  program is an *ordinary* program: all five engines agree on the final
  contexts (and vec == hmm bit-identically on charged time), and the
  computed task values match the sequential reference fold.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.streaming import (
    STREAMING_WORKLOADS,
    streaming_spec,
)
from repro.dag.compile import compile_schedule, dag_program, reference_values
from repro.dag.scheduler import HEURISTICS, schedule
from repro.dag.spec import DagSpec, EdgeSpec, TaskSpec
from repro.dbsp.machine import DBSPMachine
from repro.engines import ENGINES, resolve_access_function

F = resolve_access_function("x^0.5")


def tiny_spec() -> DagSpec:
    return DagSpec(
        "tiny",
        tasks=(
            TaskSpec("a", payload=3),
            TaskSpec("b", payload=5),
            TaskSpec("c", work=2),
        ),
        edges=(EdgeSpec("a", "c"), EdgeSpec("b", "c", volume=2)),
    )


# --------------------------------------------------------------- the spec
class TestSpecValidation:
    def test_round_trip(self):
        spec = tiny_spec()
        doc = spec.to_json()
        again = DagSpec.from_json(doc)
        assert again == spec
        assert again.canonical_json() == spec.canonical_json()

    def test_canonical_json_ignores_declaration_order(self):
        spec = tiny_spec()
        shuffled = DagSpec(
            "tiny",
            tasks=(
                TaskSpec("c", work=2),
                TaskSpec("b", payload=5),
                TaskSpec("a", payload=3),
            ),
            edges=(EdgeSpec("b", "c", volume=2), EdgeSpec("a", "c")),
        )
        assert shuffled.canonical_json() == spec.canonical_json()

    def test_cycle_refused_naming_the_stuck_tasks(self):
        with pytest.raises(ValueError, match="cycle") as err:
            DagSpec(
                "loop",
                tasks=(TaskSpec("a"), TaskSpec("b")),
                edges=(EdgeSpec("a", "b"), EdgeSpec("b", "a")),
            )
        assert "'a'" in str(err.value) and "'b'" in str(err.value)

    def test_dangling_edge_refused_with_role_and_id(self):
        with pytest.raises(ValueError, match="dangling dst 'ghost'"):
            DagSpec("d", tasks=(TaskSpec("a"),),
                    edges=(EdgeSpec("a", "ghost"),))
        with pytest.raises(ValueError, match="dangling src"):
            DagSpec("d", tasks=(TaskSpec("a"),),
                    edges=(EdgeSpec("ghost", "a"),))

    def test_duplicate_edge_and_self_edge_refused(self):
        with pytest.raises(ValueError, match="merge the volumes"):
            DagSpec("d", tasks=(TaskSpec("a"), TaskSpec("b")),
                    edges=(EdgeSpec("a", "b"), EdgeSpec("a", "b")))
        with pytest.raises(ValueError, match="self-edge"):
            DagSpec("d", tasks=(TaskSpec("a"),), edges=(EdgeSpec("a", "a"),))

    def test_schema_refusal_says_what_to_do(self):
        doc = tiny_spec().to_json()
        doc["schema"] = 99
        with pytest.raises(ValueError, match="schema 99"):
            DagSpec.from_json(doc)

    def test_unknown_fields_refused(self):
        doc = tiny_spec().to_json()
        doc["extra"] = 1
        with pytest.raises(ValueError, match="'extra'"):
            DagSpec.from_json(doc)
        doc = tiny_spec().to_json()
        doc["tasks"][0]["colour"] = "red"
        with pytest.raises(ValueError, match="'colour'"):
            DagSpec.from_json(doc)

    def test_field_validation_names_the_task(self):
        with pytest.raises(ValueError, match="task 'a'"):
            TaskSpec("a", work=0)
        with pytest.raises(ValueError, match="volume"):
            EdgeSpec("a", "b", volume=0)
        with pytest.raises(ValueError, match="no tasks"):
            DagSpec("empty", tasks=(), edges=())

    def test_topological_order_respects_edges(self):
        spec = streaming_spec("stream-scan", epochs=2, partitions=4, chunk=2)
        position = {t: i for i, t in enumerate(spec.topological_order())}
        for edge in spec.edges:
            assert position[edge.src] < position[edge.dst]


# ---------------------------------------------------------- the scheduler
def small_specs() -> list[DagSpec]:
    return [
        tiny_spec(),
        streaming_spec("stream-scan", epochs=2, partitions=4, chunk=2),
        streaming_spec("stream-stencil", epochs=2, partitions=4, chunk=2),
        streaming_spec("stream-reduce", epochs=2, partitions=4, chunk=2),
    ]


class TestScheduler:
    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    def test_schedule_is_a_valid_placement(self, heuristic):
        for spec in small_specs():
            sched = schedule(spec, 4, heuristic=heuristic)
            assigned = [task for task, _, _ in sched.assignment]
            assert sorted(assigned) == sorted(t.id for t in spec.tasks)
            proc_of = sched.proc_of()
            step_of = sched.step_of()
            assert all(0 <= p < 4 for p in proc_of.values())
            for edge in spec.edges:
                if proc_of[edge.src] == proc_of[edge.dst]:
                    assert step_of[edge.src] <= step_of[edge.dst]
                else:
                    # a cross-processor value needs a superstep boundary
                    assert step_of[edge.src] < step_of[edge.dst]

    def test_unknown_heuristic_refused(self):
        with pytest.raises(ValueError, match="greedy"):
            schedule(tiny_spec(), 4, heuristic="magic")
        with pytest.raises(ValueError, match="power of two"):
            schedule(tiny_spec(), 3)

    def test_locality_beats_greedy_on_streaming_cross_volume(self):
        # the bench guardrail's property, at test sizes: when partitions
        # outnumber processors, clustering wins on cross-processor words
        wins = 0
        for name in sorted(STREAMING_WORKLOADS):
            spec = streaming_spec(name, epochs=3, partitions=8, chunk=4)
            greedy = schedule(spec, 4, heuristic="greedy")
            local = schedule(spec, 4, heuristic="locality")
            if local.cross_volume(spec) < greedy.cross_volume(spec):
                wins += 1
        assert wins >= 2

    def test_schedule_round_trips_through_json(self):
        sched = schedule(tiny_spec(), 4)
        doc = json.loads(sched.canonical_json())
        assert doc["spec"] == "tiny"
        assert doc["heuristic"] == "locality"
        assert len(doc["assignment"]) == 3


class TestSchedulerDeterminism:
    """Identical specs must yield byte-identical schedules."""

    @staticmethod
    @st.composite
    def random_dags(draw):
        n = draw(st.integers(min_value=1, max_value=12))
        ids = [f"t{i:02d}" for i in range(n)]
        tasks = tuple(
            TaskSpec(
                tid,
                work=draw(st.integers(min_value=1, max_value=5)),
                payload=draw(st.integers(min_value=-9, max_value=9)),
            )
            for tid in ids
        )
        edges = []
        for j in range(1, n):
            for i in range(j):
                if draw(st.booleans()):
                    edges.append(EdgeSpec(
                        ids[i], ids[j],
                        volume=draw(st.integers(min_value=1, max_value=4)),
                    ))
        return DagSpec("rand", tasks=tasks, edges=tuple(edges))

    @given(spec=random_dags(), v=st.sampled_from([2, 4, 8]),
           heuristic=st.sampled_from(sorted(HEURISTICS)))
    @settings(max_examples=40, deadline=None)
    def test_byte_identical_schedules(self, spec, v, heuristic):
        first = schedule(spec, v, heuristic=heuristic)
        # a fresh spec parsed from the JSON round trip must schedule
        # byte-identically — content addressing depends on it
        again = schedule(
            DagSpec.from_json(json.loads(spec.canonical_json())),
            v, heuristic=heuristic,
        )
        assert first.canonical_json() == again.canonical_json()

    @given(spec=random_dags(), v=st.sampled_from([2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_compiled_program_matches_reference(self, spec, v):
        program = dag_program(spec, v=v, mu=8)
        res = DBSPMachine(F).run(program.with_global_sync())
        computed: dict[str, int] = {}
        for ctx in res.contexts:
            computed.update(ctx["values"])
            assert not ctx["acc"], "undelivered cross-processor words"
        assert computed == dict(reference_values(spec))


# ----------------------------------------------------------- the compiler
def run_all_engines(program):
    direct = ENGINES["direct"].run(program, F)
    others = {
        name: ENGINES[name].run(program, F)
        for name in ("hmm", "vec", "bt", "brent")
    }
    return direct, others


class TestCompiledEquivalence:
    @pytest.mark.parametrize("workload", sorted(STREAMING_WORKLOADS))
    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    def test_all_five_engines_agree(self, workload, heuristic):
        spec = streaming_spec(workload, epochs=2, partitions=4, chunk=2)
        program = dag_program(spec, v=4, mu=8, heuristic=heuristic)
        direct, others = run_all_engines(program)
        for name, res in others.items():
            assert res.contexts == direct.contexts, name
        # vec is the hmm charge tape, vectorized: bit-identical clock
        assert others["vec"].time == others["hmm"].time
        assert others["vec"].counters == others["hmm"].counters
        computed: dict[str, int] = {}
        for ctx in direct.contexts:
            computed.update(ctx["values"])
        assert computed == dict(reference_values(spec))

    def test_small_mu_still_compiles_and_agrees(self):
        # mu=2 forces multi-round communication chunking; the degree
        # checker in the direct machine would refuse any violation
        spec = streaming_spec("stream-scan", epochs=2, partitions=4,
                              chunk=3)
        for heuristic in sorted(HEURISTICS):
            sched = schedule(spec, 4, heuristic=heuristic)
            program = compile_schedule(spec, sched, mu=2)
            direct = ENGINES["direct"].run(program, F)
            computed: dict[str, int] = {}
            for ctx in direct.contexts:
                computed.update(ctx["values"])
            assert computed == dict(reference_values(spec))

    def test_streaming_workload_refusals(self):
        with pytest.raises(ValueError, match="stream-scan"):
            streaming_spec("nope")
        with pytest.raises(ValueError, match="epochs"):
            streaming_spec("stream-scan", epochs=0)


# --------------------------------------------------------------- the bench
class TestDagBench:
    def test_smoke_bench_upholds_the_guardrail(self):
        from repro.bench import check
        from repro.dag.bench import run_dag_bench

        doc = run_dag_bench(smoke=True)
        assert check(doc, doc) == []
        wins = [w["locality_wins"] for w in doc["workloads"].values()]
        assert sum(wins) >= 2

    def test_check_refuses_cross_schema(self):
        from repro.bench import check
        from repro.dag.bench import run_dag_bench

        doc = run_dag_bench(smoke=True)
        with pytest.raises(ValueError, match="schema"):
            check(doc, {"schema": 99})

    def test_check_reports_charged_drift(self):
        from repro.bench import check
        from repro.dag.bench import run_dag_bench

        doc = run_dag_bench(smoke=True)
        drifted = json.loads(json.dumps(doc))
        name = next(iter(drifted["workloads"]))
        drifted["workloads"][name]["heuristics"]["greedy"]["messages"] += 1
        problems = check(drifted, doc)
        assert len(problems) == 1 and "drifted" in problems[0]
        assert problems[0].startswith(
            f"workloads.{name}.heuristics.greedy.messages:"
        )

    def test_checked_in_baseline_matches_the_code(self):
        import pathlib

        from repro.bench import check
        from repro.dag.bench import run_dag_bench

        baseline_path = pathlib.Path(__file__).parent.parent / (
            "BENCH_sim_dag.json"
        )
        baseline = json.loads(baseline_path.read_text())
        fresh = run_dag_bench(smoke=True)
        assert check(fresh, baseline) == []
