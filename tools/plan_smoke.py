#!/usr/bin/env python
"""CI smoke for the capacity planner (`repro.plan` + `/v1/plan`).

End-to-end over a real deployment:

1. prewarms a persistent table cache (``repro warmup``) for the two
   pool machines;
2. boots a real prediction service on that cache and solves a
   3-workload mix over a knl7210 + xeonmax9480 pool through
   ``POST /v1/plan``;
3. fails (non-zero exit) if the plan is infeasible, violates any plan
   invariant, differs from a direct in-process ``CapacityPlanner``
   solve of the same spec, or if serving the plan built **any** model
   table from scratch (the prewarmed deployment must plan with zero
   table builds — executor ``table_cache_misses`` stays 0; stores may
   be nonzero because newly memoized points merge back to disk), or if
   the planner priced a repeated spec more than once (the mix repeats
   specs with other weights; executor ``hits + misses`` must grow by
   the number of distinct candidates, not by ``candidate_count``), or
   if sending the same request again does not return the same plan
   with **zero** new run-cache lookups (the worker's planner remembers
   every option it priced).

Usage::

    PYTHONPATH=src python tools/plan_smoke.py [--table-cache DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

MACHINES = ["knl7210", "xeonmax9480"]

SPEC = {
    "mix": [
        {"workload": "dgemm", "size_gb": 12.0, "num_threads": 64,
         "weight": 0.001},
        {"workload": "minife", "size_gb": 20.0, "num_threads": 64,
         "weight": 0.002},
        {"workload": "gups", "size_gb": 8.0, "num_threads": 32,
         "weight": 0.001},
        # Repeated specs at other weights: priced once, placed apiece.
        {"workload": "dgemm", "size_gb": 12.0, "num_threads": 64,
         "weight": 0.003},
        {"workload": "gups", "size_gb": 8.0, "num_threads": 32,
         "weight": 0.0005},
    ],
    "pool": [
        {"machine": "knl7210", "nodes": 8},
        {"machine": "xeonmax9480", "nodes": 8},
    ],
    "objective": "runtime",
}


def distinct_candidates(request, predictor) -> int:
    """Resolvable (spec, machine, config) triples over the request's
    distinct ``(workload, size_gb, num_threads)`` specs."""
    from repro.api.errors import ValidationError
    from repro.api.types import Query

    specs = {(i.workload, i.size_gb, i.num_threads) for i in request.mix}
    count = 0
    for workload, size_gb, num_threads in specs:
        for entry in request.pool:
            for config in entry.effective_configs():
                try:
                    predictor.resolve(
                        Query(workload, size_gb, config, num_threads,
                              entry.machine)
                    )
                except ValidationError:
                    continue
                count += 1
    return count


def run_smoke(table_cache_dir: str) -> dict:
    from repro.api.facade import Predictor
    from repro.api.plan import PlanRequest
    from repro.cli import main as cli_main
    from repro.plan import CapacityPlanner, check_plan
    from repro.serve.client import ServeClient
    from repro.serve.service import ServiceConfig
    from repro.serve.threadserver import ServerThread

    code = cli_main(
        ["--table-cache", table_cache_dir, "warmup", "--machines", *MACHINES]
    )
    assert code == 0, f"repro warmup exited {code}"

    request = PlanRequest.from_dict(SPEC)
    # One worker, so the repeat solve runs on the planner that priced
    # the first.
    thread = ServerThread(
        ServiceConfig(table_cache_dir=table_cache_dir, workers=1)
    )
    host, port = thread.start()
    try:
        with ServeClient(host, port) as client:
            before = client.metrics()["executor"]
            served = client.plan(request)
            metrics = client.metrics()
            repeat = client.plan(request)
            after_repeat = client.metrics()["executor"]
    finally:
        thread.stop()

    violations = check_plan(request, served)
    assert not violations, f"served plan violates invariants: {violations}"

    predictor = Predictor(table_cache_dir=table_cache_dir)
    direct = CapacityPlanner(predictor).plan(request)
    distinct = distinct_candidates(request, predictor)
    assert served == direct, (
        "served plan differs from the direct in-process solve:\n"
        f"  served: {served.to_dict()}\n  direct: {direct.to_dict()}"
    )

    executor = metrics["executor"]
    assert executor["table_cache_misses"] == 0, (
        f"prewarmed service missed the table cache "
        f"{executor['table_cache_misses']} times (a miss = a table "
        "built from scratch)"
    )
    assert executor["table_cache_hits"] > 0, (
        "service never touched the table cache — the smoke is not "
        "exercising the prewarmed path"
    )
    lookups = (executor["hits"] + executor["misses"]) - (
        before["hits"] + before["misses"]
    )
    assert distinct < request.candidate_count(), (
        "the smoke mix must repeat specs to exercise deduplication"
    )
    assert lookups == distinct, (
        f"serving the plan made {lookups} run-cache lookups; expected one "
        f"per distinct candidate ({distinct}), not one per item "
        f"candidate ({request.candidate_count()})"
    )
    assert repeat == served, (
        "the repeated request got a different plan:\n"
        f"  first:  {served.to_dict()}\n  repeat: {repeat.to_dict()}"
    )
    repeat_lookups = (after_repeat["hits"] + after_repeat["misses"]) - (
        executor["hits"] + executor["misses"]
    )
    assert repeat_lookups == 0, (
        f"the repeated request made {repeat_lookups} run-cache lookups; "
        "every option was priced by the first and should be remembered"
    )
    return {
        "objective_value": served.objective_value,
        "assignments": [
            {"workload": a.item.workload, "machine": a.machine,
             "config": a.config}
            for a in served.assignments
        ],
        "table_cache_hits": executor["table_cache_hits"],
        "table_cache_misses": executor["table_cache_misses"],
        "table_cache_stores": executor["table_cache_stores"],
        "candidates": request.candidate_count(),
        "distinct_candidates": distinct,
        "run_cache_lookups": lookups,
        "repeat_run_cache_lookups": repeat_lookups,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--table-cache",
        default=None,
        metavar="DIR",
        help="table-cache directory to prewarm and serve from "
        "(default: a fresh temporary directory)",
    )
    args = parser.parse_args(argv)
    try:
        if args.table_cache is not None:
            report = run_smoke(args.table_cache)
        else:
            with tempfile.TemporaryDirectory(
                prefix="repro-plan-smoke-"
            ) as tmp:
                report = run_smoke(tmp)
    except AssertionError as exc:
        print(f"[plan-smoke] FAIL: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"[plan-smoke] OK: feasible plan "
        f"(objective {report['objective_value']:.4g}), "
        f"{report['table_cache_hits']} table-cache hits, 0 misses",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
