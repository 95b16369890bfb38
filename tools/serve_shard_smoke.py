#!/usr/bin/env python
"""CI smoke for the sharded deployment (`repro.serve.shard`).

Boots a 3-replica process-backend deployment (the production shape:
real subprocesses, real TCP, one shared persistent table-cache
directory), drives its router with the closed-loop driver
(`repro.serve.loadgen.run_phase`) — the same data plane
`repro serve --replicas N` runs — kills one replica mid-run, and fails
(non-zero exit) unless:

* every surviving request completes or surfaces a typed error — no
  hangs, no malformed envelopes;
* at least 90% of offered requests succeed despite the kill (the
  router's failover along the ring absorbs the lost replica's share);
* a sample of responses is bit-identical to direct scalar evaluation;
* `/healthz` reports the victim down and the survivors routable.

The shared table-cache directory is *prewarmed* before the replicas
boot — the same `repro.engine.warmup.prewarm_tables` path behind
`make warmup` and `repro serve --prewarm` — so the smoke also covers
the production deploy shape where every replica loads tables from disk
instead of building them (pass ``--no-prewarm`` for the cold shape).

Usage::

    PYTHONPATH=src python tools/serve_shard_smoke.py [--clients N]
        [--requests-per-client N] [--replicas N] [--no-prewarm]

The defaults (3 replicas, 32 clients x 4 requests) match the CI
serve-shard job — a correctness smoke, not a benchmark (the gated
`point-miss-routed` workload of `servebench/` measures the router).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument("--requests-per-client", type=int, default=4)
    parser.add_argument("--check-sample", type=int, default=16)
    parser.add_argument("--min-success-rate", type=float, default=0.90)
    parser.add_argument(
        "--no-prewarm",
        action="store_true",
        help="skip prewarming the shared table cache before boot",
    )
    args = parser.parse_args(argv)

    from repro.serve.client import ServeClient
    from repro.serve.loadgen import (
        _partition,
        build_query_pool,
        run_phase,
        verify_identity,
    )
    from repro.serve.service import ServiceConfig
    from repro.serve.shard import ShardConfig, ShardDeployment

    total = args.clients * args.requests_per_client
    partitions = _partition(build_query_pool(total), args.clients)

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-shard-smoke-") as tables:
        if not args.no_prewarm:
            from repro.engine.warmup import prewarm_tables

            report = prewarm_tables(tables, machines=("knl7210",))
            for line in report.describe().splitlines():
                print(f"[serve-shard-smoke] {line}", file=sys.stderr)
        config = ShardConfig(
            replicas=args.replicas,
            backend="process",
            service=ServiceConfig(
                workers=1,
                max_queue=max(64, args.clients),
                cache_entries=2 * total,
                cache_ttl_s=None,
                table_cache_dir=tables,
            ),
            probe_interval_s=0.2,
            fail_after=1,
        )
        deployment = ShardDeployment(config)
        with deployment as (host, port):
            victim = deployment.replicas.routable_ids()[-1]

            def assassin() -> None:
                time.sleep(0.1)
                deployment.kill_replica(victim)

            killer = threading.Thread(target=assassin, name="assassin")
            killer.start()
            phase, responses = run_phase(
                "smoke", host, port, partitions, deadline_s=60.0
            )
            killer.join()

            if phase.success_rate < args.min_success_rate:
                failures.append(
                    f"success rate {phase.success_rate:.3f} < "
                    f"{args.min_success_rate} "
                    f"({phase.requests - phase.errors}/{phase.requests} ok, "
                    f"{phase.errors} failed)"
                )
            # The probe loop discovers the death asynchronously; give it
            # a bounded window before calling the health view wrong.
            deadline = time.monotonic() + 10.0
            with ServeClient(host, port, timeout=30.0) as client:
                while True:
                    health = client.healthz()
                    states = {
                        rid: info["state"]
                        for rid, info in health[
                            "replica_set"
                        ]["replicas"].items()
                    }
                    if states.get(victim) != "up":
                        break
                    if time.monotonic() >= deadline:
                        failures.append(
                            f"killed replica {victim} still 'up' after 10s"
                        )
                        break
                    time.sleep(0.2)
            down = [r for r in states if r != victim and states[r] != "up"]
            if down:
                failures.append(f"surviving replicas not up: {down}")

            identity = verify_identity(responses, args.check_sample)
            if not identity["checked"]:
                failures.append("identity audit sampled zero responses")
            if not identity["bit_identical"]:
                failures.append(
                    f"{identity['mismatches']}/{identity['checked']} "
                    "responses differ from direct scalar evaluation"
                )

    if failures:
        for failure in failures:
            print(f"[serve-shard-smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"[serve-shard-smoke] OK: {phase.describe()}; replica {victim} "
        f"killed mid-run; {identity['checked']} responses audited "
        "bit-identical",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
