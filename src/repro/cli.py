"""Command-line interface: run programs through the engines from a shell.

::

    python -m repro run sort --v 64 --f x^0.5 --engine all
    python -m repro run sort --v 64 --engine hmm --jobs 4
    python -m repro profile sort --v 64 --f x^0.5 --engine bt
    python -m repro touch --n 65536 --f log
    python -m repro touch --sweep 4096,16384,65536 --jobs 4
    python -m repro bench --smoke
    python -m repro bench --jobs 4
    python -m repro bench --distribute --jobs 4 --checkpoint bench.ledger
    python -m repro bench --distribute --jobs 4 --resume bench.ledger
    python -m repro serve --port 8173 --jobs 2 --checkpoint cache.ledger
    python -m repro serve --port 8173 --jobs 2 --jobs-dir jobs/
    python -m repro serve --port 8173 --shards 2 --shard-dir shards/
    python -m repro calibrate --output CALIBRATION.json
    python -m repro serve --port 8173 --calibration CALIBRATION.json
    python -m repro loadgen --url http://127.0.0.1:8173 --smoke
    python -m repro loadgen --job-mode --smoke
    python -m repro loadgen --open-loop --smoke
    python -m repro loadgen --plan-mode --smoke
    python -m repro list
    python -m repro --version

``run`` executes one of the bundled D-BSP programs on the chosen engine(s)
and prints the charged costs plus, for simulations, the slowdown against
the direct D-BSP run.  ``profile`` runs one engine with full tracing and
renders the span tree as a per-phase cost profile.  ``touch`` contrasts
Fact 1 and Fact 2 at a given size.  ``bench`` measures wall-clock engine
throughput (charged words per second) over the fixed workload matrix and
writes ``BENCH_sim_throughput.json``; ``--check`` compares a fresh run
against a recorded baseline.  ``--checkpoint LEDGER`` records every
completed sweep cell to an append-only ledger and ``--resume LEDGER``
replays it after an interruption, recomputing only the missing cells —
the resumed document's charged costs are byte-identical to an
uninterrupted run's (``bench`` and ``touch --sweep`` both take the
pair).  ``serve`` exposes the engines over HTTP under a versioned
``/v1`` surface (``POST /v1/run``, ``POST /v1/batch``, the
``/v1/jobs`` async-sweep lifecycle, ``GET /v1/healthz``,
``GET /v1/metrics``) with a content-addressed result cache,
single-flight coalescing and 429 backpressure; ``--jobs-dir`` enables
background sweep jobs that checkpoint per cell and are resumed by a
restarted server; ``--shards N`` runs the sharded tier instead — N
shard processes (consistent hashing on the content key, one
ledger-backed cache each) behind a health-probing failover router.
``calibrate`` fits per-host cost-model curves against the closed-form
bounds and writes a versioned calibration profile; ``serve
--calibration PROFILE`` loads it to answer ``POST /v1/plan``,
auto-select engines, and gate admission on predicted charged cost
(per-tenant token buckets keyed by the ``X-Tenant`` header plus a
global in-flight ceiling — see ``docs/planner.md``).
``loadgen`` drives a server with a closed-loop
hot/cold client mix and writes ``BENCH_service_throughput.json``
(``--job-mode`` measures batch-job interference and restart-resume
identity; ``--open-loop`` runs the sharded-tier bench — scaling rows,
Poisson-arrival tail-latency phases, a shard-kill fault run — and
writes ``BENCH_service_shard.json``; ``--plan-mode`` runs the
planner bench — prediction accuracy plus the adversarial
cheap/enormous admission comparison — and writes
``BENCH_service_plan.json``).  ``list``
enumerates programs and access functions.  ``run``, ``profile``,
``touch``, ``bench`` and ``loadgen`` all take ``--json`` for
machine-readable output, and ``--version`` prints the package version.

All commands are thin shells over the engine registry
(:mod:`repro.engines`): they build a program, pick an engine from
:data:`~repro.engines.ENGINES`, and format the resulting
:class:`~repro.engines.EngineResult`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bt.machine import BTMachine
from repro.bt.touching import bt_touch_all, bt_touching_bound
from repro.engines import (
    ENGINES,
    FUNCTION_HELP,
    PROGRAMS,
    build_program,
    resolve_access_function,
)
from repro.functions import AccessFunction
from repro.hmm.algorithms import hmm_touching_bound
from repro.hmm.machine import HMMMachine
from repro.hmm.touching import hmm_touch_all
from repro.obs.export import render_profile, spans_to_jsonl

__all__ = ["main", "parse_access_function", "PROGRAMS"]


def parse_access_function(spec: str) -> AccessFunction:
    """Argparse adapter around :func:`repro.engines.resolve_access_function`."""
    try:
        return resolve_access_function(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_program(name: str, v: int, mu: int):
    if name not in PROGRAMS:
        raise SystemExit(
            f"unknown program {name!r}; try: {', '.join(sorted(PROGRAMS))}"
        )
    try:
        return build_program(name, v, mu)
    except ValueError as exc:
        raise SystemExit(f"cannot build {name} with v={v}, mu={mu}: {exc}")


def _engine_opts(engine: str, args) -> dict:
    opts: dict = {}
    if engine == "brent":
        opts["v_host"] = args.v_host or max(1, args.v // 4)
    jobs = getattr(args, "jobs", None)
    if jobs and jobs > 1 and engine in ("hmm", "vec"):
        opts["parallel"] = jobs
    return opts


def _dump_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _open_ledger(args):
    """Open the sweep ledger requested by ``--checkpoint``/``--resume``.

    ``--checkpoint PATH`` starts a fresh ledger (truncating any old
    file); ``--resume PATH`` loads an existing one — completed cells are
    skipped and new ones keep appending to the same file, so a run can
    be killed and resumed any number of times.
    """
    from repro.resilience.ledger import SweepLedger

    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    if checkpoint and resume:
        raise SystemExit("--checkpoint and --resume are mutually exclusive")
    try:
        if resume:
            return SweepLedger.resume(resume)
        if checkpoint:
            return SweepLedger.create(checkpoint)
    except OSError as exc:
        raise SystemExit(f"cannot open ledger: {exc}")
    return None


def cmd_list(_args) -> int:
    print("programs:")
    for name, (_b, desc) in sorted(PROGRAMS.items()):
        print(f"  {name:10s} {desc}")
    print(f"\naccess functions: {FUNCTION_HELP}")
    print("engines: direct | hmm | vec | bt | brent | all")
    return 0


def _engine_extra(res) -> str:
    if res.engine in ("hmm", "vec"):
        return f"rounds={res.counters.get('rounds', 0)}"
    if res.engine == "bt":
        return f"block transfers={res.counters.get('block_transfers', 0)}"
    if res.engine == "brent":
        return f"v'={res.meta.get('v_host')}"
    return ""


def cmd_run(args) -> int:
    f = args.f
    program = _build_program(args.program, args.v, args.mu)
    if args.engine == "direct":
        engines: list[str] = []
    elif args.engine == "all":
        engines = ["hmm", "vec", "bt", "brent"]
    else:
        engines = [args.engine]

    direct = ENGINES["direct"].run(program, f)
    results = []
    for engine in engines:
        res = ENGINES[engine].run(program, f, **_engine_opts(engine, args))
        res.baseline_time = direct.time
        res.slowdown = res.time / direct.time if direct.time > 0 else None
        results.append(res)

    if args.json:
        _dump_json({
            "program": program.name,
            "v": args.v,
            "mu": args.mu,
            "f": f.name,
            "supersteps": len(program),
            "direct": direct.to_json(include_trace=False),
            "engines": {
                res.engine: res.to_json(include_trace=False)
                for res in results
            },
        })
        return 0

    print(f"program: {program.name}  (v={args.v}, mu={args.mu}, "
          f"{len(program)} supersteps)")
    print(f"access/bandwidth function: {f.name}\n")
    print(f"{'direct D-BSP':14s} T = {direct.time:14.1f}")
    for res in results:
        slowdown = (f"{res.slowdown:10.1f}" if res.slowdown is not None
                    else f"{'n/a':>10s}")
        print(f"{res.engine:14s} T = {res.time:14.1f}  "
              f"slowdown = {slowdown}  ({_engine_extra(res)})")
    return 0


def cmd_profile(args) -> int:
    f = args.f
    program = _build_program(args.program, args.v, args.mu)
    res = ENGINES[args.engine].run(
        program, f, trace="full", **_engine_opts(args.engine, args)
    )

    from repro.resilience import recovery

    if args.jsonl:
        out = pathlib.Path(args.jsonl)
        # recovery events ride along as extra lines (no "index" key, so
        # spans_from_jsonl skips them when re-reading the trace)
        events = recovery.events()
        text = spans_to_jsonl(res.trace)
        if text and not text.endswith("\n"):
            text += "\n"
        text += "".join(
            json.dumps(ev, sort_keys=True) + "\n" for ev in events
        )
        try:
            out.write_text(text)
        except OSError as exc:
            raise SystemExit(f"cannot write trace to {out}: {exc}")
        if not args.json:
            extra = f" + {len(events)} recovery event(s)" if events else ""
            print(f"wrote {len(res.trace)} spans{extra} to {out}")

    if args.json:
        _dump_json(res.to_json(include_trace=not args.jsonl))
        return 0

    title = (f"{args.engine}: {program.name} "
             f"(v={args.v}, mu={args.mu}, f={f.name})")
    print(render_profile(res.trace, total=res.time, title=title))
    if res.breakdown:
        print("\nphase breakdown:")
        for phase, cost in sorted(
            res.breakdown.items(), key=lambda kv: -kv[1]
        ):
            share = 100.0 * cost / res.time if res.time > 0 else 0.0
            print(f"  {phase:12s} {cost:16.1f}  {share:5.1f}%")
    if res.counters:
        print("\ncounters:")
        for name, value in res.counters.items():
            print(f"  {name:16s} {value:>16}")
    rec = recovery.counters()
    if rec:
        print("\nrecovery (host-side, never charged):")
        for name, value in rec.items():
            print(f"  {name:20s} {value:>12}")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import build_report

    text = build_report(args.results)
    out = pathlib.Path(args.output)
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


def _bench_dag(args) -> int:
    """The ``bench --dag`` matrix: charged scheduling costs, not wall."""
    from repro.dag.bench import (
        check_dag_against,
        run_dag_bench,
        write_dag_bench,
    )

    for flag in ("distribute", "checkpoint", "resume", "only"):
        if getattr(args, flag, None):
            raise SystemExit(
                f"--{flag} applies to the wall-clock matrix; the --dag "
                f"matrix is charged-cost only (fast and deterministic)"
            )
    echo = None if args.json else print
    if echo:
        mode = "smoke engines" if args.smoke else "all engines"
        echo(f"benchmarking DAG scheduling heuristics ({mode}, "
             f"charged costs — deterministic)")
    doc = run_dag_bench(smoke=args.smoke, echo=echo)
    if args.check:
        try:
            baseline = json.loads(pathlib.Path(args.check).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read baseline {args.check}: {exc}")
        try:
            problems = check_dag_against(doc, baseline)
        except ValueError as exc:
            raise SystemExit(str(exc))
        if args.output:
            write_dag_bench(args.output, doc)
        if problems:
            for p in problems:
                print(f"REGRESSION: {p}", file=sys.stderr)
            return 1
        if echo:
            echo(f"no regressions vs {args.check} (exact charged-cost "
                 f"comparison)")
        return 0
    if args.json:
        _dump_json(doc)
    out = args.output or "BENCH_sim_dag.json"
    write_dag_bench(out, doc)
    if echo:
        echo(f"\nwrote {out}")
        echo(f"{'workload':28s} {'greedy msgs':>12s} {'locality msgs':>14s}")
        for name, wl in doc["workloads"].items():
            g = wl["heuristics"].get("greedy", {})
            loc = wl["heuristics"].get("locality", {})
            echo(f"{name:28s} {g.get('messages', 0):>12d} "
                 f"{loc.get('messages', 0):>14d}")
    problems = check_dag_against(doc, doc)
    for p in problems:
        print(f"GUARDRAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


def cmd_bench(args) -> int:
    from repro.bench import WORKLOADS, check_against, run_bench, write_bench

    if args.dag:
        return _bench_dag(args)
    workloads = WORKLOADS
    if args.only:
        workloads = tuple(
            w for w in WORKLOADS
            if args.only in w.name or args.only in w.program
        )
        if not workloads:
            raise SystemExit(
                f"--only {args.only!r} matches no workload; have: "
                f"{', '.join(w.name for w in WORKLOADS)}"
            )
    echo = None if args.json else print
    if echo:
        mode = "smoke matrix" if args.smoke else "full matrix"
        extra = f", jobs={args.jobs}" if args.jobs > 1 else ""
        extra += ", distributed" if args.distribute else ""
        if args.only:
            extra += f", only '{args.only}'"
        echo(f"benchmarking simulator wall-clock throughput ({mode}, "
             f"budget {args.budget:g}s/workload{extra})")
    ledger = _open_ledger(args)
    try:
        if args.distribute:
            from repro.parallel.sweep import run_matrix_distributed

            doc = run_matrix_distributed(
                workloads=workloads,
                budget_s=args.budget, smoke=args.smoke,
                parallel=args.jobs, echo=echo, ledger=ledger,
            )
        else:
            doc = run_bench(budget_s=args.budget, smoke=args.smoke, echo=echo,
                            workloads=workloads, jobs=args.jobs, ledger=ledger)
    finally:
        if ledger is not None:
            ledger.close()
    if ledger is not None and echo:
        echo(f"checkpoint {ledger.path}: {ledger.hits} cell(s) resumed, "
             f"{ledger.cells_recorded} recorded")

    if args.check:
        try:
            baseline = json.loads(pathlib.Path(args.check).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read baseline {args.check}: {exc}")
        problems = check_against(doc, baseline, tolerance=args.tolerance)
        if args.output:
            write_bench(args.output, doc)
        if problems:
            for p in problems:
                print(f"REGRESSION: {p}", file=sys.stderr)
            return 1
        if echo:
            echo(f"no regressions vs {args.check} "
                 f"(tolerance {args.tolerance:g}x)")
        return 0

    if args.json:
        _dump_json(doc)
    out = args.output or "BENCH_sim_throughput.json"
    write_bench(out, doc)
    if echo:
        echo(f"\nwrote {out}")
        echo(f"{'workload':16s} {'peak':>9s} {'best words/s':>14s} "
             f"{'best rounds/s':>14s}")
        for name, wl in doc["workloads"].items():
            words = wl["best_charged_words_per_s"]
            rounds = wl["best_rounds_per_s"]
            echo(f"{name:16s} {wl['peak'] or 0:>9d} "
                 f"{words or 0:>14,.0f} "
                 f"{rounds or 0:>14,.0f}")
    return 0


def cmd_calibrate(args) -> int:
    from repro.analysis.predict import (
        CalibrationProfile,
        calibrate_profile,
        write_profile,
    )

    echo = None if args.json else print
    if echo:
        mode = "smoke grid" if args.smoke else "full grid"
        echo(f"calibrating the cost model on this host ({mode}, "
             f"mu={args.mu}, f={args.f}, best of {args.repeats} repeat(s))")
    try:
        doc = calibrate_profile(
            mu=args.mu,
            f=args.f,
            repeats=args.repeats,
            smoke=args.smoke,
            echo=echo,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    CalibrationProfile(doc)  # self-check: the file we write must load
    if args.json:
        _dump_json(doc)
        return 0
    write_profile(args.output, doc)
    if echo:
        echo(f"\nwrote {args.output} ({len(doc['models'])} engine/program "
             f"model(s) over v={doc['v_grid']})")
        echo(f"serve with:  python -m repro serve --calibration "
             f"{args.output}")
    return 0


def _budget_args(args) -> dict:
    out = {}
    if args.tenant_capacity is not None:
        out["tenant_capacity"] = args.tenant_capacity
    if args.tenant_refill is not None:
        out["tenant_refill"] = args.tenant_refill
    if args.cost_ceiling is not None:
        out["cost_ceiling"] = args.cost_ceiling
    return out


def cmd_serve(args) -> int:
    if args.calibration is None and _budget_args(args):
        raise SystemExit(
            "--tenant-capacity/--tenant-refill/--cost-ceiling configure the "
            "cost-model planner; pass --calibration PROFILE to enable it"
        )
    if args.shards > 1:
        if args.checkpoint or args.resume:
            raise SystemExit(
                "--shards manages one ledger per shard under --shard-dir; "
                "--checkpoint/--resume apply to the single-process server"
            )
        from repro.service.shard import serve_sharded

        return serve_sharded(
            host=args.host,
            port=args.port,
            shards=args.shards,
            shard_dir=args.shard_dir,
            cache_capacity=args.cache_capacity,
            queue_limit=args.queue_limit,
            jobs=args.jobs,
            jobs_dir=args.jobs_dir,
            calibration=args.calibration,
            budget_args=_budget_args(args),
        )
    from repro.service.server import serve

    planner = None
    if args.calibration is not None:
        from repro.service.planner import planner_from_profile

        budgets = _budget_args(args)
        if "tenant_refill" in budgets:
            budgets["tenant_refill_per_s"] = budgets.pop("tenant_refill")
        try:
            planner = planner_from_profile(
                args.calibration, service_jobs=args.jobs, **budgets
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
    ledger = _open_ledger(args)
    try:
        return serve(
            host=args.host,
            port=args.port,
            cache_capacity=args.cache_capacity,
            queue_limit=args.queue_limit,
            jobs=args.jobs,
            ledger=ledger,
            jobs_dir=args.jobs_dir,
            planner=planner,
        )
    finally:
        if ledger is not None:
            ledger.close()


def cmd_loadgen(args) -> int:
    from repro.service.loadgen import (
        check_plan_against,
        check_service_against,
        check_shard_against,
        run_job_bench,
        run_loadgen,
        run_plan_bench,
        run_shard_bench,
        write_service_bench,
    )

    echo = None if args.json else print
    if args.plan_mode:
        if args.open_loop or args.job_mode:
            raise SystemExit("--plan-mode is exclusive with "
                             "--open-loop/--job-mode")
        if args.url:
            raise SystemExit(
                "--plan-mode boots in-process servers (it compares planner "
                "on/off admission policies); --url is not supported"
            )
        doc = run_plan_bench(
            seed=args.seed,
            smoke=args.smoke,
            calibration=args.calibration,
            echo=echo,
        )
        if args.check:
            try:
                baseline = json.loads(pathlib.Path(args.check).read_text())
            except (OSError, ValueError) as exc:
                raise SystemExit(f"cannot read baseline {args.check}: {exc}")
            try:
                problems = check_plan_against(doc, baseline)
            except ValueError as exc:
                raise SystemExit(str(exc))
            if args.output:
                write_service_bench(args.output, doc)
            if problems:
                for p in problems:
                    print(f"REGRESSION: {p}", file=sys.stderr)
                return 1
            if echo:
                echo(f"no regressions vs {args.check}")
            return 0
        if args.json:
            _dump_json(doc)
        out = args.output or "BENCH_service_plan.json"
        write_service_bench(out, doc)
        if echo:
            echo(f"\nwrote {out}")
        problems = check_plan_against(doc, doc)
        for p in problems:
            print(f"SLO VIOLATION: {p}", file=sys.stderr)
        return 1 if problems else 0
    if args.open_loop:
        if args.job_mode:
            raise SystemExit("--open-loop and --job-mode are exclusive")
        doc = run_shard_bench(
            url=args.url,
            shards=args.shards,
            rate=args.rate,
            duration_s=args.duration,
            concurrency=args.concurrency,
            seed=args.seed,
            smoke=args.smoke,
            echo=echo,
        )
        if args.check:
            try:
                baseline = json.loads(pathlib.Path(args.check).read_text())
            except (OSError, ValueError) as exc:
                raise SystemExit(f"cannot read baseline {args.check}: {exc}")
            try:
                problems = check_shard_against(
                    doc, baseline, tolerance=args.tolerance
                )
            except ValueError as exc:
                raise SystemExit(str(exc))
            if args.output:
                write_service_bench(args.output, doc)
            if problems:
                for p in problems:
                    print(f"REGRESSION: {p}", file=sys.stderr)
                return 1
            if echo:
                echo(f"no regressions vs {args.check} "
                     f"(tolerance {args.tolerance:g}x)")
            return 0
        if args.json:
            _dump_json(doc)
        out = args.output or "BENCH_service_shard.json"
        write_service_bench(out, doc)
        if echo:
            echo(f"\nwrote {out}")
        problems = check_shard_against(doc, doc)
        for p in problems:
            print(f"SLO VIOLATION: {p}", file=sys.stderr)
        return 1 if problems else 0
    if args.job_mode:
        if args.url:
            raise SystemExit(
                "--job-mode runs against in-process servers (it must stop "
                "the job runner mid-job); --url is not supported"
            )
        doc = run_job_bench(
            clients=args.clients,
            requests_per_client=args.requests,
            hot_ratio=args.hot_ratio,
            hot_keys=args.hot_keys,
            seed=args.seed,
            smoke=args.smoke,
            jobs=args.jobs,
            echo=echo,
        )
        if args.json:
            _dump_json(doc)
        out = args.output or "BENCH_service_jobs.json"
        write_service_bench(out, doc)
        if echo:
            echo(f"\nwrote {out}")
        if doc["errors"]:
            print(f"{doc['errors']} request(s) failed", file=sys.stderr)
            return 1
        if not doc["results_identical"]:
            print(
                "resumed job result differs from the uninterrupted run",
                file=sys.stderr,
            )
            return 1
        return 0
    doc = run_loadgen(
        url=args.url,
        clients=args.clients,
        requests_per_client=args.requests,
        hot_ratio=args.hot_ratio,
        hot_keys=args.hot_keys,
        batch=args.batch,
        seed=args.seed,
        smoke=args.smoke,
        jobs=args.jobs,
        echo=echo,
    )

    if args.check:
        try:
            baseline = json.loads(pathlib.Path(args.check).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read baseline {args.check}: {exc}")
        try:
            problems = check_service_against(
                doc, baseline,
                tolerance=args.tolerance,
                min_speedup=args.min_speedup,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        if args.output:
            write_service_bench(args.output, doc)
        if problems:
            for p in problems:
                print(f"REGRESSION: {p}", file=sys.stderr)
            return 1
        if echo:
            echo(f"no regressions vs {args.check} "
                 f"(tolerance {args.tolerance:g}x)")
        return 0

    if args.json:
        _dump_json(doc)
    out = args.output or "BENCH_service_throughput.json"
    write_service_bench(out, doc)
    if echo:
        echo(f"\nwrote {out}")
    if doc["errors"]:
        print(f"{doc['errors']} request(s) failed", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        speedup = doc.get("hot_vs_cold_speedup")
        if not speedup or speedup < args.min_speedup:
            print(
                f"hot/cold speedup {speedup!r} is below the "
                f"{args.min_speedup:g}x floor",
                file=sys.stderr,
            )
            return 1
    return 0


def _dag_spec(args):
    """Resolve the DAG under test: a named workload or a spec file."""
    from repro.algorithms.streaming import STREAMING_WORKLOADS, streaming_spec
    from repro.dag.spec import DagSpec

    if args.spec:
        if args.workload:
            raise SystemExit(
                "pass either a named workload or --spec FILE, not both"
            )
        try:
            doc = json.loads(pathlib.Path(args.spec).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read spec {args.spec}: {exc}")
        try:
            return DagSpec.from_json(doc)
        except ValueError as exc:
            raise SystemExit(f"invalid spec {args.spec}: {exc}")
    if not args.workload:
        raise SystemExit(
            f"name a streaming workload ({', '.join(sorted(STREAMING_WORKLOADS))}) "
            f"or pass --spec FILE"
        )
    params = {}
    for name in ("epochs", "partitions", "chunk"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    try:
        return streaming_spec(args.workload, **params)
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_dag(args) -> int:
    from repro.dag.compile import compile_schedule, reference_values
    from repro.dag.scheduler import HEURISTICS, schedule

    spec = _dag_spec(args)
    try:
        f = resolve_access_function(args.f)
    except ValueError as exc:
        raise SystemExit(str(exc))

    if args.action == "schedule":
        try:
            sched = schedule(spec, args.v, heuristic=args.heuristic)
        except ValueError as exc:
            raise SystemExit(str(exc))
        if args.json:
            doc = sched.to_json()
            doc["cross_volume"] = sched.cross_volume(spec)
            doc["tasks"] = len(spec.tasks)
            doc["total_work"] = spec.total_work()
            doc["total_volume"] = spec.total_volume()
            _dump_json(doc)
            return 0
        print(f"dag: {spec.name}  ({len(spec.tasks)} tasks, "
              f"{len(spec.edges)} edges, work {spec.total_work()}, "
              f"volume {spec.total_volume()})")
        print(f"schedule: {args.heuristic} onto v={args.v}  "
              f"({sched.n_steps} steps, cross-processor volume "
              f"{sched.cross_volume(spec)})")
        by_proc: dict[int, list[str]] = {}
        for task, proc, step in sched.assignment:
            by_proc.setdefault(proc, []).append(f"{task}@{step}")
        for proc in sorted(by_proc):
            tasks = by_proc[proc]
            shown = ", ".join(tasks[:8]) + (
                f", ... ({len(tasks)} total)" if len(tasks) > 8 else ""
            )
            print(f"  p{proc}: {shown}")
        return 0

    if args.action == "compare":
        engine = "direct" if args.engine == "all" else args.engine
        if engine not in ENGINES:
            raise SystemExit(
                f"unknown engine {engine!r}; try: "
                f"{', '.join(sorted(ENGINES))}"
            )
        rows = []
        for heuristic in sorted(HEURISTICS):
            try:
                sched = schedule(spec, args.v, heuristic=heuristic)
            except ValueError as exc:
                raise SystemExit(str(exc))
            program = compile_schedule(spec, sched, mu=args.mu)
            res = ENGINES[engine].run(program, f, trace="counters")
            rows.append({
                "heuristic": heuristic,
                "n_steps": sched.n_steps,
                "cross_volume": sched.cross_volume(spec),
                "supersteps": len(program),
                "messages": res.counters.get("messages", 0),
                "communication": res.breakdown.get("communication", 0.0),
                "time": res.time,
            })
        if args.json:
            _dump_json({
                "dag": spec.name, "v": args.v, "mu": args.mu,
                "f": f.name, "engine": engine, "heuristics": rows,
            })
            return 0
        print(f"dag: {spec.name}  (engine {engine}, v={args.v}, "
              f"mu={args.mu}, f={f.name})")
        print(f"{'heuristic':10s} {'steps':>6s} {'x-volume':>9s} "
              f"{'messages':>9s} {'comm':>14s} {'T':>14s}")
        for row in rows:
            print(f"{row['heuristic']:10s} {row['n_steps']:>6d} "
                  f"{row['cross_volume']:>9d} {row['messages']:>9d} "
                  f"{row['communication']:>14.1f} {row['time']:>14.1f}")
        return 0

    # action == "run": schedule, compile, execute like `repro run`
    try:
        sched = schedule(spec, args.v, heuristic=args.heuristic)
    except ValueError as exc:
        raise SystemExit(str(exc))
    program = compile_schedule(spec, sched, mu=args.mu)
    if args.engine == "direct":
        engines: list[str] = []
    elif args.engine == "all":
        engines = ["hmm", "vec", "bt", "brent"]
    elif args.engine in ENGINES:
        engines = [args.engine]
    else:
        raise SystemExit(
            f"unknown engine {args.engine!r}; try: "
            f"{', '.join(sorted(ENGINES))} or all"
        )
    direct = ENGINES["direct"].run(program, f)
    results = []
    for engine in engines:
        res = ENGINES[engine].run(program, f, **_engine_opts(engine, args))
        res.baseline_time = direct.time
        res.slowdown = res.time / direct.time if direct.time > 0 else None
        results.append(res)
    expected = reference_values(spec)
    computed: dict[str, int] = {}
    for ctx in direct.contexts:
        computed.update(ctx["values"])
    values_ok = computed == dict(expected)
    if args.json:
        _dump_json({
            "dag": spec.name,
            "heuristic": args.heuristic,
            "program": program.name,
            "v": args.v,
            "mu": args.mu,
            "f": f.name,
            "supersteps": len(program),
            "n_steps": sched.n_steps,
            "cross_volume": sched.cross_volume(spec),
            "values_ok": values_ok,
            "direct": direct.to_json(include_trace=False),
            "engines": {
                res.engine: res.to_json(include_trace=False)
                for res in results
            },
        })
        return 0 if values_ok else 1
    print(f"dag: {spec.name}  scheduled {args.heuristic} onto v={args.v} "
          f"({sched.n_steps} steps -> {len(program)} supersteps)")
    print(f"access/bandwidth function: {f.name}")
    check = "values match the sequential reference" if values_ok else \
        "VALUES DIVERGE from the sequential reference"
    print(f"{check}\n")
    print(f"{'direct D-BSP':14s} T = {direct.time:14.1f}")
    for res in results:
        slowdown = (f"{res.slowdown:10.1f}" if res.slowdown is not None
                    else f"{'n/a':>10s}")
        print(f"{res.engine:14s} T = {res.time:14.1f}  "
              f"slowdown = {slowdown}  ({_engine_extra(res)})")
    return 0 if values_ok else 1


def cmd_touch(args) -> int:
    if args.sweep:
        from repro.parallel.sweep import touch_sweep

        try:
            sizes = [int(s) for s in args.sweep.split(",")]
        except ValueError:
            raise SystemExit(
                f"--sweep expects comma-separated sizes, got {args.sweep!r}"
            )
        ledger = _open_ledger(args)
        try:
            doc = touch_sweep(
                sizes, f=args.f, parallel=args.jobs, ledger=ledger
            )
        finally:
            if ledger is not None:
                ledger.close()
        if args.json:
            _dump_json(doc)
            return 0
        if ledger is not None:
            print(f"checkpoint {ledger.path}: {ledger.hits} cell(s) "
                  f"resumed, {ledger.cells_recorded} recorded")
        print(f"touching sweep, f = {doc['f']}")
        print(f"{'n':>10s} {'HMM cost':>14s} {'BT cost':>14s} "
              f"{'BT wins by':>11s}")
        for cell in doc["cells"]:
            adv = cell["bt_advantage"]
            adv_s = f"{adv:>10.1f}x" if adv else f"{'n/a':>11s}"
            print(f"{cell['n']:>10d} {cell['hmm_cost']:>14.1f} "
                  f"{cell['bt_cost']:>14.1f} {adv_s}")
        return 0
    try:
        f = resolve_access_function(args.f)
    except ValueError as exc:
        raise SystemExit(str(exc))
    n = args.n
    hmm = HMMMachine(f, n)
    hmm.mem[:n] = [1] * n
    hmm_cost = hmm_touch_all(hmm, n)
    bt = BTMachine(f, 2 * n)
    bt.mem[n : 2 * n] = [1] * n
    bt_cost = bt_touch_all(bt, n)
    hmm_bound = hmm_touching_bound(f, n)
    bt_bound = bt_touching_bound(f, n)
    if args.json:
        _dump_json({
            "n": n,
            "f": f.name,
            "hmm": {"cost": hmm_cost, "fact1_bound": hmm_bound},
            "bt": {"cost": bt_cost, "fact2_bound": bt_bound},
            "bt_advantage": hmm_cost / bt_cost,
        })
        return 0
    print(f"touching n = {n} cells, f = {f.name}")
    print(f"  HMM: {hmm_cost:14.1f}   (Fact 1: ~ n f(n) "
          f"= {hmm_bound:.1f})")
    print(f"  BT : {bt_cost:14.1f}   (Fact 2: ~ n f*(n) "
          f"= {bt_bound:.1f})")
    print(f"  block transfer wins by {hmm_cost / bt_cost:.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Operational D-BSP / HMM / BT machine models and the "
            "simulation schemes of 'Translating Submachine Locality into "
            "Locality of Reference' (IPDPS 2004)."
        ),
    )
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list programs, functions, engines")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run a program through engines")
    p_run.add_argument("program", help=f"one of: {', '.join(sorted(PROGRAMS))}")
    p_run.add_argument("--v", type=int, default=64,
                       help="number of D-BSP processors (power of two)")
    p_run.add_argument("--mu", type=int, default=8,
                       help="context size in words")
    p_run.add_argument("--f", type=parse_access_function, default="x^0.5",
                       help=f"access function: {FUNCTION_HELP}")
    p_run.add_argument("--engine", default="all",
                       choices=["direct", "hmm", "vec", "bt", "brent", "all"])
    p_run.add_argument("--v-host", type=int, default=None,
                       help="host width for the brent engine (default v/4)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the hmm/vec engines "
                            "(charged costs are identical for any value)")
    p_run.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of text")
    p_run.set_defaults(func=cmd_run)

    p_prof = sub.add_parser(
        "profile",
        help="run one engine with full tracing; render the cost profile",
    )
    p_prof.add_argument("program",
                        help=f"one of: {', '.join(sorted(PROGRAMS))}")
    p_prof.add_argument("--v", type=int, default=64,
                        help="number of D-BSP processors (power of two)")
    p_prof.add_argument("--mu", type=int, default=8,
                        help="context size in words")
    p_prof.add_argument("--f", type=parse_access_function, default="x^0.5",
                        help=f"access function: {FUNCTION_HELP}")
    p_prof.add_argument("--engine", default="bt",
                        choices=["direct", "hmm", "vec", "bt", "brent"])
    p_prof.add_argument("--v-host", type=int, default=None,
                        help="host width for the brent engine (default v/4)")
    p_prof.add_argument("--jobs", type=int, default=1,
                        help="worker processes (full tracing pins the run "
                             "serial; kept for flag symmetry with run)")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the full result (trace included) as JSON")
    p_prof.add_argument("--jsonl", metavar="PATH", default=None,
                        help="also export the span trace as JSON lines")
    p_prof.set_defaults(func=cmd_profile)

    p_bench = sub.add_parser(
        "bench",
        help="measure simulator wall-clock throughput (perf trajectory)",
    )
    p_bench.add_argument("--budget", type=float, default=3.0,
                         help="wall-clock budget per workload, seconds")
    p_bench.add_argument("--smoke", action="store_true",
                         help="reduced sweep caps (CI smoke job)")
    p_bench.add_argument("--only", default=None, metavar="SUBSTR",
                         help="run only workloads whose name contains "
                              "SUBSTR (e.g. --only vec, --only sort/)")
    p_bench.add_argument("--output", default=None, metavar="PATH",
                         help="output JSON (default BENCH_sim_throughput.json)")
    p_bench.add_argument("--check", default=None, metavar="BASELINE",
                         help="compare against a recorded run; exit 1 on "
                              "throughput regressions")
    p_bench.add_argument("--tolerance", type=float, default=3.0,
                         help="allowed slow-down factor for --check")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes inside each cell's engine "
                              "(hmm/vec); charged costs are unchanged")
    p_bench.add_argument("--distribute", action="store_true",
                         help="run one workload per worker task instead "
                              "(wall clock measured inside each worker)")
    p_bench.add_argument("--checkpoint", default=None, metavar="LEDGER",
                         help="start a fresh cell ledger at this path; "
                              "every completed workload is appended as "
                              "it finishes")
    p_bench.add_argument("--resume", default=None, metavar="LEDGER",
                         help="resume from an interrupted run's ledger: "
                              "completed workloads are replayed verbatim, "
                              "only missing ones run")
    p_bench.add_argument("--json", action="store_true",
                         help="emit the result document to stdout as JSON")
    p_bench.add_argument("--dag", action="store_true",
                         help="run the DAG scheduling matrix instead "
                              "(charged costs, deterministic; writes "
                              "BENCH_sim_dag.json; --check compares "
                              "exactly and enforces the locality-beats-"
                              "greedy guardrail)")
    p_bench.set_defaults(func=cmd_bench)

    p_dag = sub.add_parser(
        "dag",
        help="schedule a task DAG onto D-BSP and run it through engines",
    )
    p_dag.add_argument("action", choices=["run", "schedule", "compare"],
                       help="run: schedule+compile+execute; schedule: "
                            "print the placement; compare: both "
                            "heuristics side by side on one engine")
    p_dag.add_argument("workload", nargs="?", default=None,
                       help="named streaming workload (stream-scan, "
                            "stream-stencil, stream-reduce); omit with "
                            "--spec")
    p_dag.add_argument("--spec", default=None, metavar="FILE",
                       help="JSON DAG spec file instead of a named "
                            "workload")
    p_dag.add_argument("--epochs", type=int, default=None,
                       help="streaming epochs (named workloads)")
    p_dag.add_argument("--partitions", type=int, default=None,
                       help="data partitions per epoch (named workloads)")
    p_dag.add_argument("--chunk", type=int, default=None,
                       help="words per partition (named workloads)")
    p_dag.add_argument("--heuristic", default="locality",
                       choices=["greedy", "locality"],
                       help="scheduling heuristic (run/schedule)")
    p_dag.add_argument("--engine", default="all",
                       help="engine for run (direct|hmm|vec|bt|brent|all) "
                            "or compare (single engine, default direct)")
    p_dag.add_argument("--v", type=int, default=8,
                       help="number of D-BSP processors (power of two)")
    p_dag.add_argument("--mu", type=int, default=8,
                       help="context size in words")
    p_dag.add_argument("--f", default="x^0.5",
                       help=f"access function: {FUNCTION_HELP}")
    p_dag.add_argument("--v-host", type=int, default=None,
                       help="host width for the brent engine (default v/4)")
    p_dag.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the hmm/vec engines "
                            "(charged costs are identical for any value)")
    p_dag.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of text")
    p_dag.set_defaults(func=cmd_dag)

    p_cal = sub.add_parser(
        "calibrate",
        help="fit per-host cost-model curves (bound-anchored power laws) "
             "and write a calibration profile for the serve planner",
    )
    p_cal.add_argument("--output", default="CALIBRATION.json", metavar="PATH",
                       help="profile path (default CALIBRATION.json)")
    p_cal.add_argument("--smoke", action="store_true",
                       help="reduced v grid (CI smoke job; wider error "
                            "bars at large v)")
    p_cal.add_argument("--mu", type=int, default=8,
                       help="words per block for calibration runs")
    p_cal.add_argument("--f", default="x^0.5",
                       help=f"access function: {FUNCTION_HELP}")
    p_cal.add_argument("--repeats", type=int, default=2,
                       help="wall-clock repeats per cell (best-of)")
    p_cal.add_argument("--json", action="store_true",
                       help="emit the profile to stdout instead of --output")
    p_cal.set_defaults(func=cmd_calibrate)

    p_serve = sub.add_parser(
        "serve",
        help="serve the engines over HTTP (cache, coalescing, backpressure)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8173,
                         help="TCP port (default 8173; 0 for ephemeral)")
    p_serve.add_argument("--cache-capacity", type=int, default=1024,
                         help="result-cache entries kept in memory (LRU)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="distinct in-flight computations before 429")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="worker processes computations dispatch to "
                              "(served charged costs are identical for "
                              "any value)")
    p_serve.add_argument("--checkpoint", default=None, metavar="LEDGER",
                         help="persist every cached result to a fresh "
                              "ledger at this path")
    p_serve.add_argument("--resume", default=None, metavar="LEDGER",
                         help="preload the cache from an existing ledger "
                              "(warm restart) and keep appending to it")
    p_serve.add_argument("--jobs-dir", default=None, metavar="DIR",
                         help="enable the async jobs API (POST /v1/jobs): "
                              "manifests, per-job ledgers and results live "
                              "here, and a restarted server re-adopts and "
                              "resumes incomplete jobs from this directory")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="run the sharded tier: N shard processes "
                              "(consistent hashing on the content key, "
                              "per-shard ledger-backed caches) behind a "
                              "failover router on --port (default 1 = the "
                              "single-process server)")
    p_serve.add_argument("--shard-dir", default="shards", metavar="DIR",
                         help="shard state directory (ledgers, port/pid "
                              "files; default shards/) — reuse it across "
                              "restarts for warm shard caches")
    p_serve.add_argument("--calibration", default=None, metavar="PROFILE",
                         help="enable the cost-model planner: load this "
                              "calibration profile (from `python -m repro "
                              "calibrate`), answer POST /v1/plan, auto-"
                              "select engines, and gate admission on "
                              "predicted charged cost")
    p_serve.add_argument("--tenant-capacity", type=float, default=None,
                         metavar="WORDS",
                         help="per-tenant token-bucket capacity in "
                              "predicted charged words (default 20e6; "
                              "needs --calibration)")
    p_serve.add_argument("--tenant-refill", type=float, default=None,
                         metavar="WORDS_PER_S",
                         help="per-tenant budget refill rate in words/s "
                              "(default 10e6; needs --calibration)")
    p_serve.add_argument("--cost-ceiling", type=float, default=None,
                         metavar="WORDS",
                         help="global ceiling on summed in-flight predicted "
                              "cost (default 50e6; needs --calibration)")
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="drive a simulation server with a closed-loop client mix",
    )
    p_load.add_argument("--url", default=None,
                        help="server base URL (default: start an "
                             "in-process server on an ephemeral port)")
    p_load.add_argument("--clients", type=int, default=4,
                        help="concurrent closed-loop clients")
    p_load.add_argument("--requests", type=int, default=50,
                        help="requests per client per phase")
    p_load.add_argument("--hot-ratio", type=float, default=0.9,
                        help="hot-key fraction in the hot phase")
    p_load.add_argument("--hot-keys", type=int, default=8,
                        help="size of the hot-key set")
    p_load.add_argument("--batch", type=int, default=1,
                        help="requests per POST /batch call (1 = POST /run)")
    p_load.add_argument("--seed", type=int, default=7,
                        help="request-stream RNG seed")
    p_load.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the in-process server")
    p_load.add_argument("--smoke", action="store_true",
                        help="reduced request counts (CI smoke job)")
    p_load.add_argument("--job-mode", action="store_true",
                        help="measure batch-job interference instead: "
                             "interactive p50 with/without a background "
                             "sweep job, job time-to-complete with/without "
                             "an injected mid-job restart (writes "
                             "BENCH_service_jobs.json)")
    p_load.add_argument("--open-loop", action="store_true",
                        help="run the sharded-tier bench instead: "
                             "closed-loop scaling rows (N shards vs 1), "
                             "open-loop (Poisson-arrival) tail-latency "
                             "phases at --rate, a shard-kill fault run and "
                             "the identity check (writes "
                             "BENCH_service_shard.json); with --url, one "
                             "open-loop phase against the running tier")
    p_load.add_argument("--plan-mode", action="store_true",
                        help="run the planner/admission bench instead: "
                             "prediction accuracy of POST /v1/plan vs "
                             "measured charged cost, then an adversarial "
                             "cheap/enormous mix under flat queue_limit vs "
                             "cost-aware admission (writes "
                             "BENCH_service_plan.json)")
    p_load.add_argument("--calibration", default=None, metavar="PROFILE",
                        help="with --plan-mode: reuse this calibration "
                             "profile instead of calibrating a smoke "
                             "profile in-process")
    p_load.add_argument("--shards", type=int, default=2,
                        help="shard count for --open-loop standalone mode")
    p_load.add_argument("--rate", type=float, default=150.0,
                        help="offered arrival rate (req/s) for --open-loop")
    p_load.add_argument("--duration", type=float, default=8.0,
                        help="seconds per open-loop phase")
    p_load.add_argument("--concurrency", type=int, default=16,
                        help="open-loop worker threads (bounds in-flight "
                             "requests; queueing beyond it lands in the "
                             "latency distribution)")
    p_load.add_argument("--output", default=None, metavar="PATH",
                        help="output JSON "
                             "(default BENCH_service_throughput.json)")
    p_load.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a recorded run; exit 1 on "
                             "throughput regressions or failed requests")
    p_load.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed slow-down factor for --check")
    p_load.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless hot/cold speedup reaches this "
                             "floor")
    p_load.add_argument("--json", action="store_true",
                        help="emit the result document to stdout as JSON")
    p_load.set_defaults(func=cmd_loadgen)

    p_touch = sub.add_parser("touch", help="Fact 1 vs Fact 2 at one size")
    p_touch.add_argument("--n", type=int, default=1 << 16)
    p_touch.add_argument("--f", default="x^0.5",
                         help=f"access function: {FUNCTION_HELP}")
    p_touch.add_argument("--sweep", default=None, metavar="N1,N2,...",
                         help="run the Fact 1/2 sweep over these sizes "
                              "(cells fan out across --jobs workers)")
    p_touch.add_argument("--jobs", type=int, default=1,
                         help="worker processes for --sweep cells")
    p_touch.add_argument("--checkpoint", default=None, metavar="LEDGER",
                         help="with --sweep: checkpoint each cell to a "
                              "fresh ledger at this path")
    p_touch.add_argument("--resume", default=None, metavar="LEDGER",
                         help="with --sweep: resume an interrupted sweep "
                              "from its ledger")
    p_touch.add_argument("--json", action="store_true",
                         help="emit a JSON document instead of text")
    p_touch.set_defaults(func=cmd_touch)

    p_report = sub.add_parser(
        "report", help="collate benchmark result tables into REPORT.md"
    )
    p_report.add_argument("--results", default="benchmarks/results",
                          help="directory holding the *.txt result tables")
    p_report.add_argument("--output", default="REPORT.md")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
