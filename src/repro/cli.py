"""Command-line interface: regenerate any paper exhibit.

Usage::

    knl-hybridmem list
    knl-hybridmem fig2
    knl-hybridmem --cache-dir ~/.cache/knl-hybridmem all
    knl-hybridmem --trace-out fig4c.trace.json --metrics-out fig4c.json fig4c
    knl-hybridmem advisor minife --size-gb 7.2 --threads 128
    knl-hybridmem describe
    knl-hybridmem serve --port 8713
    knl-hybridmem bench serve --clients 64

Observability: ``--trace-out`` / ``--metrics-out`` (or ``REPRO_TRACE=1``,
with optional ``REPRO_TRACE_OUT`` / ``REPRO_METRICS_OUT`` paths) wrap the
command in an observation session (:mod:`repro.obs`).  Exhibits on stdout
are byte-identical with or without it; the trace (Chrome ``trace_event``
JSON for ``chrome://tracing``), the metrics JSON (including a per-cell
sweep breakdown) and a one-line summary go to the given files / stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from typing import Any

from repro import obs
from repro.checks.checker import InvariantViolation, check_mode_from_env
from repro.core.advisor import PlacementAdvisor
from repro.core.executor import SweepExecutor
from repro.core.runner import ExperimentRunner
from repro.figures import EXHIBITS
from repro.machine import registry
from repro.machine.topology import ThreadCapacityError
from repro.memory.modes import MCDRAMConfig
from repro.runtime.simos import SimulatedOS
from repro.workloads.registry import FROM_GB


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knl-hybridmem",
        description=(
            "Reproduce the tables and figures of 'Exploring the Performance "
            "Benefit of Hybrid Memory System on HPC Environments'"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist run records as JSON under DIR and reuse them",
    )
    parser.add_argument(
        "--table-cache",
        default=None,
        metavar="DIR",
        help=(
            "persist built batch-engine model tables under DIR and warm "
            "from them (defaults to CACHE_DIR/tables when --cache-dir is "
            "set; the REPRO_TABLE_CACHE environment variable does the "
            "same; see docs/ENGINE.md)"
        ),
    )
    parser.add_argument(
        "--machine",
        choices=list(registry.names()),
        default="knl7210",
        help=(
            "machine model from the registry to evaluate on "
            "(default: knl7210; see docs/MACHINES.md)"
        ),
    )
    parser.add_argument(
        "--check",
        choices=["warn", "raise"],
        default=None,
        metavar="MODE",
        help=(
            "validate every run against the model-invariant registry "
            "(MODE: warn or raise; the REPRO_CHECK environment variable "
            "does the same, e.g. REPRO_CHECK=1 for raise)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "enable observability and write a Chrome trace_event JSON "
            "(open in chrome://tracing or ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "enable observability and write the metrics registry "
            "(counters/gauges/histograms + per-cell sweep breakdown) as JSON"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available exhibits")
    sub.add_parser("all", help="generate every exhibit")
    sub.add_parser("describe", help="describe the modelled node")
    for exhibit_id in EXHIBITS:
        sub.add_parser(exhibit_id, help=f"generate {exhibit_id}")
    advisor = sub.add_parser(
        "advisor", help="recommend a memory configuration for a workload"
    )
    advisor.add_argument("workload", choices=sorted(FROM_GB))
    advisor.add_argument("--size-gb", type=float, required=True)
    advisor.add_argument("--threads", type=int, default=64)
    decompose = sub.add_parser(
        "decompose", help="size a multi-node decomposition (Section IV-C)"
    )
    decompose.add_argument("workload", choices=sorted(FROM_GB))
    decompose.add_argument("--total-gb", type=float, required=True)
    decompose.add_argument(
        "--nodes", type=int, nargs="+", default=[2, 4, 8, 12, 16]
    )
    energy = sub.add_parser(
        "energy", help="time/energy/EDP comparison across configurations"
    )
    energy.add_argument("workload", choices=sorted(FROM_GB))
    energy.add_argument("--size-gb", type=float, required=True)
    energy.add_argument("--threads", type=int, default=64)
    optimize = sub.add_parser(
        "optimize",
        help="per-structure DRAM/HBM placement search (future-work study)",
    )
    optimize.add_argument("workload", choices=["minife", "graph500"])
    optimize.add_argument("--size-gb", type=float, required=True)
    optimize.add_argument("--threads", type=int, default=64)
    sub.add_parser("report", help="full study report (all exhibits)")
    sub.add_parser(
        "check",
        help="regenerate every exhibit under full invariant checking",
    )
    plan = sub.add_parser(
        "plan",
        help=(
            "solve a fleet capacity plan: place a traffic mix onto a "
            "machine pool, choosing memory modes (see docs/PLANNING.md)"
        ),
    )
    plan.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help=(
            "JSON plan spec ({'mix': [...], 'pool': [...], 'objective': "
            "...}; same shape as the /v1/plan 'plan' object); '-' reads "
            "stdin; exclusive with --mix/--pool"
        ),
    )
    plan.add_argument(
        "--mix",
        action="append",
        default=None,
        metavar="WORKLOAD:SIZE_GB[:THREADS[:WEIGHT]]",
        help=(
            "one traffic item (repeatable), e.g. 'minife:20' or "
            "'dgemm:12:128:0.5'; THREADS defaults to 64, WEIGHT "
            "(arrivals/s) to 1"
        ),
    )
    plan.add_argument(
        "--pool",
        action="append",
        default=None,
        metavar="MACHINE:NODES[:CONFIG,...]",
        help=(
            "one machine pool entry (repeatable), e.g. 'knl7210:16' or "
            "'xeonmax9480:8:HBM,DRAM'; CONFIG list defaults to the paper "
            "trio (DRAM, HBM, Cache Mode)"
        ),
    )
    plan.add_argument(
        "--objective",
        choices=["runtime", "energy"],
        default="runtime",
        help="what the solver minimizes (default: runtime)",
    )
    plan.add_argument(
        "--json",
        action="store_true",
        help="print the PlanResult as JSON instead of tables (exactly "
        "the 'plan' object a /v1/plan response carries)",
    )
    plan.add_argument(
        "--table-cache",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="table-cache directory (same as the global flag, accepted "
        "after the verb for convenience)",
    )
    bench = sub.add_parser(
        "bench",
        help=(
            "measure throughput: 'engine' (scalar vs batch, "
            "BENCH_engine.json), 'serve' (coalesced vs naive serving, "
            "BENCH_serve.json) or 'plan' (planner latency vs fleet size, "
            "BENCH_plan.json)"
        ),
    )
    bench.add_argument(
        "target",
        nargs="?",
        choices=["engine", "serve", "plan"],
        default="engine",
        help="what to benchmark (default: engine)",
    )
    bench.add_argument(
        "--fleet-sizes",
        type=int,
        nargs="+",
        default=[10, 100, 1000],
        metavar="N",
        help="plan: traffic-mix sizes to time (default: 10 100 1000)",
    )
    bench.add_argument(
        "--points",
        type=int,
        default=10_080,
        help="engine: minimum grid size to evaluate (default: 10080)",
    )
    bench.add_argument(
        "--clients",
        type=int,
        default=None,
        help="serve: concurrent closed-loop clients (default: 64, or "
        "1024 for the sharded bench)",
    )
    bench.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="serve: benchmark a sharded deployment, scaling the replica "
        "count up to N and reporting goodput under overload (default: 1 "
        "= the classic coalesced-vs-naive bench)",
    )
    bench.add_argument(
        "--requests-per-client",
        type=int,
        default=8,
        help="serve: requests each client issues per phase (default: 8)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="serve: runs per phase, best reported (default: 3)",
    )
    bench.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        help="serve: evaluation worker threads in the server (default: 2)",
    )
    bench.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help=(
            "where to write the measurement JSON (default: "
            "BENCH_engine.json or BENCH_serve.json by target)"
        ),
    )
    warmup = sub.add_parser(
        "warmup",
        help=(
            "prewarm the persistent model-table cache: build and store "
            "ModelTables for registered machines x the paper config trio "
            "(see docs/ENGINE.md, 'Prewarming')"
        ),
    )
    warmup.add_argument(
        "--machines",
        nargs="+",
        choices=list(registry.names()),
        default=None,
        metavar="KEY",
        help="machines to prewarm (default: every registered machine)",
    )
    warmup.add_argument(
        "--points",
        type=int,
        default=2_520,
        help="minimum grid cells per machine (default: 2520)",
    )
    # Accept the global --table-cache after the verb too (`repro warmup
    # --table-cache DIR`); SUPPRESS keeps the subparser from clobbering
    # a value given in the global position.
    warmup.add_argument(
        "--table-cache",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="table-cache directory to prewarm (same as the global flag)",
    )
    serve = sub.add_parser(
        "serve",
        help="run the coalescing prediction service (see docs/SERVING.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8713,
        help="TCP port; 0 picks a free one (default: 8713)",
    )
    serve.add_argument(
        "--machine",
        choices=list(registry.names()),
        default="knl7210",
        help="machine preset answering the queries (default: knl7210)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="evaluation worker threads (default: 2)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="largest coalesced batch per dispatch (default: 256)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="admission queue bound; beyond it requests get 429 "
        "(default: 1024)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=4096,
        help="result-cache capacity; 0 disables caching (default: 4096)",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=300.0,
        help="result-cache TTL in seconds; 0 or less means no expiry "
        "(default: 300)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=10.0,
        help="default per-request deadline in seconds (default: 10)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="run a sharded deployment: N service subprocesses behind a "
        "consistent-hash router (default: 1 = single service)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="after binding, write 'host port' to FILE (for ephemeral "
        "--port 0 supervision; the shard deployment uses this)",
    )
    serve.add_argument(
        "--replica-id",
        default="",
        help="identity of this instance inside a sharded deployment "
        "(surfaces on /healthz and /version)",
    )
    serve.add_argument(
        "--prewarm",
        action="store_true",
        help="before accepting traffic, prewarm the shared model-table "
        "cache for every registered machine (requires a table cache "
        "directory: --table-cache, --cache-dir or REPRO_TABLE_CACHE; "
        "sharded deployments prewarm once at the router, replicas warm "
        "from disk)",
    )
    serve.add_argument(
        "--table-cache",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="table-cache directory (same as the global flag, accepted "
        "after the verb for convenience)",
    )
    return parser


def _check_mode(args: argparse.Namespace) -> "str | None":
    """The effective check mode: --check wins, REPRO_CHECK is fallback."""
    if args.check is not None:
        return args.check
    return check_mode_from_env()


def _machine(args: argparse.Namespace) -> "object":
    """Build the registry machine the global ``--machine`` flag names."""
    return registry.build(getattr(args, "machine", "knl7210"))


def _table_cache_dir(args: argparse.Namespace) -> "str | None":
    """The effective table-cache directory, mirroring the executor's
    resolution: ``--table-cache`` wins, then ``REPRO_TABLE_CACHE``, then
    ``CACHE_DIR/tables`` when ``--cache-dir`` is set."""
    if args.table_cache:
        return str(args.table_cache)
    env = os.environ.get("REPRO_TABLE_CACHE", "").strip()
    if env:
        return env
    if args.cache_dir:
        return os.path.join(args.cache_dir, "tables")
    return None


def _run_warmup(args: argparse.Namespace, *, machines=None) -> int:
    """Prewarm the shared table cache; exit 2 without a directory."""
    from repro.engine.warmup import prewarm_tables

    directory = _table_cache_dir(args)
    if directory is None:
        print(
            "[warmup] no table cache directory to prewarm: pass "
            "--table-cache DIR (or --cache-dir DIR, or set "
            "REPRO_TABLE_CACHE)",
            file=sys.stderr,
        )
        return 2
    if machines is None:
        machines = getattr(args, "machines", None)
    report = prewarm_tables(
        directory, machines=machines, points=getattr(args, "points", 2_520)
    )
    print(report.describe())
    return 0


def _build_executor(args: argparse.Namespace) -> SweepExecutor:
    return SweepExecutor(
        ExperimentRunner(_machine(args)),
        cache_dir=args.cache_dir,
        table_cache_dir=args.table_cache,
        profile_hooks=getattr(args, "profile_hooks", ()),
        check=_check_mode(args),
    )


def _report_stats(executor: SweepExecutor) -> None:
    """Cache accounting on stderr (stdout carries exhibits)."""
    if executor.cache.cache_dir is not None:
        print(f"[executor] {executor.stats().describe()}", file=sys.stderr)


def _observation_for(
    args: argparse.Namespace, env: "dict[str, str] | None" = None
) -> "obs.Observation | None":
    """Start an observation session when the flags or REPRO_TRACE ask.

    ``--trace-out`` / ``--metrics-out`` imply enabling; so does a truthy
    ``REPRO_TRACE``, whose output paths come from ``REPRO_TRACE_OUT`` /
    ``REPRO_METRICS_OUT`` (either may be unset: the summary still goes to
    stderr).  Returns ``None`` — the zero-overhead path — otherwise.
    """
    environ = env if env is not None else os.environ
    if args.trace_out is None:
        args.trace_out = environ.get("REPRO_TRACE_OUT") or None
    if args.metrics_out is None:
        args.metrics_out = environ.get("REPRO_METRICS_OUT") or None
    wanted = (
        args.trace_out is not None
        or args.metrics_out is not None
        or obs.env_truthy(environ.get("REPRO_TRACE"))
    )
    if not wanted:
        return None
    args.profile_hooks = [obs.CellProfileCollector()]
    return obs.Observation().start()


def _write_observability(
    session: "obs.Observation", args: argparse.Namespace
) -> None:
    """Export the session (after stop()); summary to stderr."""
    collector = args.profile_hooks[0]
    if args.trace_out is not None:
        session.write(trace_out=args.trace_out)
    if args.metrics_out is not None:
        exported = session.metrics_dict()
        exported["cells"] = collector.as_list()
        with open(args.metrics_out, "w") as handle:
            json.dump(exported, handle, indent=1, sort_keys=True)
    written = [p for p in (args.trace_out, args.metrics_out) if p is not None]
    destination = f" -> {', '.join(written)}" if written else ""
    print(f"[obs] {session.summary()}{destination}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    session = _observation_for(args)
    if session is None:
        return _dispatch_checked(args)
    try:
        return _dispatch_checked(args)
    finally:
        session.stop()
        _write_observability(session, args)


def _dispatch_checked(args: argparse.Namespace) -> int:
    """Dispatch, turning raise-mode violations into a clean exit 1 and
    an exhibit too large for ``--machine`` into a one-line exit 2."""
    try:
        return _dispatch(args)
    except InvariantViolation as exc:
        print(f"[check] {exc}", file=sys.stderr)
        return 1
    except ThreadCapacityError as exc:
        print(
            f"[repro] {exc.exhibit_id or args.command} needs "
            f"{exc.num_threads} threads, but machine "
            f"{getattr(args, 'machine', 'knl7210')} holds at most "
            f"{exc.capacity}",
            file=sys.stderr,
        )
        return 2


def _write_port_file(path: str, host: str, port: int) -> None:
    """Atomically publish the bound address (write-then-rename; readers
    treat a trailing newline as the completeness marker)."""
    import os

    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(f"{host} {port}\n")
    os.replace(tmp, path)


def _run_serve(args: argparse.Namespace) -> int:
    """Run the prediction service in the foreground until interrupted."""
    import asyncio

    from repro.api.errors import ValidationError
    from repro.serve.http import HttpServer
    from repro.serve.service import PredictionService, ServiceConfig

    table_cache_dir = _table_cache_dir(args)
    if args.prewarm:
        if table_cache_dir is None:
            print(
                "[serve] --prewarm needs a table cache directory: pass "
                "--table-cache DIR (or --cache-dir DIR, or set "
                "REPRO_TABLE_CACHE)",
                file=sys.stderr,
            )
            return 2
        from repro.engine.warmup import prewarm_tables

        report = prewarm_tables(table_cache_dir)
        for line in report.describe().splitlines():
            print(f"[serve] {line}", file=sys.stderr)
    try:
        config = ServiceConfig(
            machine=args.machine,
            replica_id=args.replica_id,
            table_cache_dir=table_cache_dir,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            workers=args.workers,
            cache_entries=args.cache_entries,
            cache_ttl_s=args.cache_ttl if args.cache_ttl > 0 else None,
            default_deadline_s=args.deadline,
        )
    except ValidationError as exc:
        print(f"[serve] {exc}", file=sys.stderr)
        return 2
    if args.replicas > 1:
        return _run_serve_sharded(args, config)

    async def _serve() -> None:
        service = PredictionService(config)
        server = HttpServer(service, host=args.host, port=args.port)
        await service.start()
        host, port = await server.start()
        if args.port_file:
            _write_port_file(args.port_file, host, port)
        name = f" {config.replica_id}" if config.replica_id else ""
        print(
            f"[serve{name}] listening on http://{host}:{port} "
            f"({config.machine}, {config.workers} workers) — "
            f"Ctrl-C drains and exits",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print(f"[serve{name}] draining...", file=sys.stderr)
            await server.stop()
            await service.stop()
            print(f"[serve{name}] stopped", file=sys.stderr)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _run_serve_sharded(args: argparse.Namespace, service_config: Any) -> int:
    """Run N service subprocesses behind the shard router (foreground)."""
    import time as _time

    from repro.api.errors import ValidationError
    from repro.serve.shard import ShardConfig, ShardDeployment

    try:
        config = ShardConfig(
            replicas=args.replicas,
            backend="process",
            service=service_config,
            host=args.host,
            port=args.port,
        )
    except ValidationError as exc:
        print(f"[serve] {exc}", file=sys.stderr)
        return 2
    deployment = ShardDeployment(config)
    try:
        host, port = deployment.start()
        if args.port_file:
            _write_port_file(args.port_file, host, port)
        replicas = ", ".join(
            f"{rid}@{h}:{p}" for rid, (h, p) in deployment.addresses().items()
        )
        print(
            f"[serve] router listening on http://{host}:{port} "
            f"({service_config.machine}, {args.replicas} replicas: "
            f"{replicas}) — Ctrl-C stops the fleet",
            file=sys.stderr,
        )
        while True:
            _time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        print("[serve] stopping fleet...", file=sys.stderr)
        deployment.stop()
        print("[serve] stopped", file=sys.stderr)
    return 0


def _parse_mix_flag(text: str) -> "dict[str, Any]":
    """One ``--mix WORKLOAD:SIZE_GB[:THREADS[:WEIGHT]]`` value."""
    parts = text.split(":")
    if not 2 <= len(parts) <= 4:
        raise ValueError(
            f"--mix expects WORKLOAD:SIZE_GB[:THREADS[:WEIGHT]], got {text!r}"
        )
    item: dict[str, Any] = {
        "workload": parts[0],
        "size_gb": float(parts[1]),
    }
    if len(parts) >= 3:
        item["num_threads"] = int(parts[2])
    if len(parts) == 4:
        item["weight"] = float(parts[3])
    return item


def _parse_pool_flag(text: str) -> "dict[str, Any]":
    """One ``--pool MACHINE:NODES[:CONFIG,...]`` value."""
    parts = text.split(":")
    if not 2 <= len(parts) <= 3:
        raise ValueError(
            f"--pool expects MACHINE:NODES[:CONFIG,...], got {text!r}"
        )
    entry: dict[str, Any] = {
        "machine": parts[0],
        "nodes": int(parts[1]),
    }
    if len(parts) == 3:
        entry["configs"] = [c.strip() for c in parts[2].split(",") if c.strip()]
    return entry


def _plan_request(args: argparse.Namespace) -> "Any":
    """Build the PlanRequest from ``--spec`` or ``--mix``/``--pool``."""
    from repro.api.plan import PlanRequest

    if args.spec is not None:
        if args.mix or args.pool:
            raise ValueError("--spec is exclusive with --mix/--pool")
        if args.spec == "-":
            spec = json.load(sys.stdin)
        else:
            with open(args.spec, encoding="utf-8") as handle:
                spec = json.load(handle)
        if "objective" not in spec:
            spec = dict(spec, objective=args.objective)
        return PlanRequest.from_dict(spec)
    if not args.mix or not args.pool:
        raise ValueError(
            "pass --spec FILE, or at least one --mix and one --pool"
        )
    return PlanRequest.from_dict(
        {
            "mix": [_parse_mix_flag(text) for text in args.mix],
            "pool": [_parse_pool_flag(text) for text in args.pool],
            "objective": args.objective,
        }
    )


def _run_plan(args: argparse.Namespace) -> int:
    """Solve a capacity plan and print it (tables, or --json)."""
    from repro.api.errors import ApiError
    from repro.api.facade import Predictor
    from repro.plan.planner import CapacityPlanner
    from repro.util.tables import TextTable

    try:
        request = _plan_request(args)
    except ValueError as exc:
        print(f"[plan] {exc}", file=sys.stderr)
        return 2
    predictor = Predictor(
        cache_dir=args.cache_dir, table_cache_dir=_table_cache_dir(args)
    )
    try:
        result = CapacityPlanner(predictor).plan(request)
    except ApiError as exc:
        print(f"[plan] {exc.code}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    unit = "node-s/s" if result.objective == "runtime" else "J/s"
    assignments = TextTable(
        ["workload", "size GB", "threads", "weight", "machine", "config",
         "time s", "load nodes", "energy J"],
        title=f"Plan ({result.objective}: {result.objective_value:.4g} {unit})",
    )
    for a in result.assignments:
        assignments.add_row(
            [
                a.item.workload,
                f"{a.item.size_gb:g}",
                a.item.num_threads,
                f"{a.item.weight:g}",
                a.machine,
                a.config,
                f"{a.time_s:.4g}",
                f"{a.load_nodes:.4g}",
                f"{a.energy_j:.4g}",
            ]
        )
    print(assignments.render())
    print()
    loads = TextTable(
        ["machine", "nodes", "load nodes", "utilization"],
        title="Machine loads",
    )
    for load in result.loads:
        loads.add_row(
            [
                load.machine,
                load.nodes,
                f"{load.load_nodes:.4g}",
                f"{load.utilization:.1%}",
            ]
        )
    print(loads.render())
    return 0


def _bench_serve_sharded(args: argparse.Namespace) -> int:
    """Benchmark the sharded deployment into the ``sharded`` section of
    the serve benchmark document (the writer keeps the other sections)."""
    from repro.serve.loadgen import measure_serve_sharded, write_bench_json

    counts = [1]
    while counts[-1] * 2 < args.replicas:
        counts.append(counts[-1] * 2)
    if counts[-1] != args.replicas:
        counts.append(args.replicas)
    clients = args.clients if args.clients is not None else 1024
    sharded = measure_serve_sharded(
        replica_counts=tuple(counts),
        concurrency=clients,
        requests_per_client=args.requests_per_client,
        workers=args.serve_workers,
        machine=getattr(args, "machine", "knl7210"),
    )
    path = write_bench_json({"sharded": sharded}, args.out or "BENCH_serve.json")
    scaling = sharded["scaling"]
    for n in counts:
        phase = sharded["overload"][str(n)]
        print(
            f"replicas {n:>2}  goodput {phase['goodput_rps']:8.1f} rps  "
            f"ok {phase['succeeded']}/{phase['offered']}  "
            f"retries {phase['retries']}  "
            f"p99 {phase['p99_ms']:.1f} ms  "
            f"goodput x{scaling['speedup_vs_min'][str(n)]:.2f}  "
            f"tail x{scaling['tail_p99_speedup_vs_min'][str(n)]:.2f}"
        )
    print(
        f"host cores: {sharded['host_cpu_count']} "
        "(goodput pins at the shared compute ceiling once replicas "
        "outnumber cores; the host-independent signal is admission — "
        "429 retries collapse to zero)"
    )
    identity = sharded["identity"]
    print(
        f"identity audit: {identity['checked']} responses checked, "
        f"{identity['mismatches']} mismatches"
    )
    print(f"[bench] wrote {path}", file=sys.stderr)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    command = args.command
    if command == "list":
        for exhibit_id in EXHIBITS:
            print(exhibit_id)
        return 0
    if command == "describe":
        print(SimulatedOS(MCDRAMConfig.flat(), machine=_machine(args)).describe())
        return 0
    if command == "advisor":
        workload = FROM_GB[args.workload](args.size_gb)
        advisor = PlacementAdvisor(ExperimentRunner(_machine(args)))
        recommendation = advisor.recommend(workload, args.threads)
        print(recommendation.describe())
        return 0
    if command == "decompose":
        from repro.cluster.multinode import MultiNodeModel

        model = MultiNodeModel()
        print(
            f"{args.workload}: {args.total_gb:g} GB total over N nodes "
            f"(per-node compute + Aries communication)"
        )
        for nodes in args.nodes:
            try:
                result = model.run(
                    FROM_GB[args.workload], args.total_gb, nodes
                )
            except RuntimeError as exc:
                print(f"  {nodes:>3} nodes: {exc}")
                continue
            print(
                f"  {nodes:>3} nodes: {result.per_node_gb:6.1f} GB/node -> "
                f"{result.config.value:<11} aggregate "
                f"{result.aggregate_metric:.4g} "
                f"(efficiency {result.parallel_efficiency:.1%})"
            )
        return 0
    if command == "energy":
        from repro.core.report import energy_comparison_by_name

        print(
            energy_comparison_by_name(
                args.workload, args.size_gb, num_threads=args.threads
            ).render()
        )
        return 0
    if command == "optimize":
        from repro.core.configs import ConfigName
        from repro.core.placement_optimizer import PlacementOptimizer

        workload = FROM_GB[args.workload](args.size_gb)
        executor = _build_executor(args)
        print("coarse configurations:")
        for config in ConfigName.paper_trio():
            record = executor.run(workload, config, args.threads)
            value = "-" if record.metric is None else f"{record.metric:.4g}"
            print(f"  {config.value:<12} {value}")
        _report_stats(executor)
        best = PlacementOptimizer().optimize(workload, num_threads=args.threads)
        print(f"optimized per-structure placement: {best.metric:.4g}")
        print(f"  {best.describe()}")
        return 0
    if command == "plan":
        return _run_plan(args)
    if command == "bench":
        if args.target == "plan":
            from repro.plan.bench import measure_plan
            from repro.serve.loadgen import write_bench_json

            document = measure_plan(
                tuple(args.fleet_sizes),
                table_cache_dir=_table_cache_dir(args),
            )
            path = write_bench_json(document, args.out or "BENCH_plan.json")
            for size in args.fleet_sizes:
                row = document["planner"]["details"][str(size)]
                print(
                    f"fleet {size:>5}  solve {row['latency_ms']:9.1f} ms  "
                    f"candidates {row['candidates']:>5}  "
                    f"nodes/machine {row['nodes_per_machine']}"
                )
            print(f"[bench] wrote {path}", file=sys.stderr)
            return 0
        if args.target == "serve" and args.replicas > 1:
            return _bench_serve_sharded(args)
        if args.target == "serve":
            from repro.serve.loadgen import measure_serve, write_bench_json

            document = measure_serve(
                clients=args.clients if args.clients is not None else 64,
                requests_per_client=args.requests_per_client,
                workers=args.serve_workers,
                repeats=args.repeats,
            )
            path = write_bench_json(
                document, args.out or "BENCH_serve.json"
            )
            for phase in ("coalesced", "hot_cache", "naive"):
                stats = document[phase]
                print(
                    f"{phase:<10} {stats['throughput_rps']:8.1f} rps  "
                    f"p50 {stats['p50_ms']:.2f} ms  "
                    f"p99 {stats['p99_ms']:.2f} ms"
                )
            print(
                "speedup coalesced/naive "
                f"{document['speedup_coalesced_vs_naive']:.2f}x, "
                f"hot/naive {document['speedup_hot_vs_naive']:.2f}x"
            )
            print(f"[bench] wrote {path}", file=sys.stderr)
            return 0
        from repro.core.perfbench import measure_engine, write_bench_json

        result = measure_engine(args.points, machine=_machine(args))
        path = write_bench_json(result, args.out or "BENCH_engine.json")
        print(result.describe())
        print(f"[bench] wrote {path}", file=sys.stderr)
        return 0
    if command == "warmup":
        return _run_warmup(args)
    if command == "serve":
        return _run_serve(args)
    if command == "check":
        from repro.checks.batch import check_exhibits

        report = check_exhibits(machine=_machine(args), cache_dir=args.cache_dir)
        print(report.render())
        return 0 if report.ok else 1
    if command == "report":
        from repro.core.report import generate_report

        executor = _build_executor(args)
        print(generate_report(executor).render())
        _report_stats(executor)
        return 0
    executor = _build_executor(args)
    for exhibit_id in (EXHIBITS if command == "all" else (command,)):
        try:
            exhibit = EXHIBITS[exhibit_id](executor)
        except ThreadCapacityError as exc:
            exc.exhibit_id = exhibit_id
            raise
        print(exhibit.render())
        if command == "all":
            print()
    _report_stats(executor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
