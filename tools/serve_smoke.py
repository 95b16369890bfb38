#!/usr/bin/env python
"""CI smoke for the prediction service (`repro.serve`).

Boots a real server on a background thread, drives it with concurrent
clients over TCP, and fails (non-zero exit) if any request errors, the
p99 latency exceeds the bound, any served result differs from direct
scalar evaluation, or the invariant checker flags a served metric.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--clients N]
        [--requests-per-client N] [--p99-bound-ms MS]

The defaults (50 clients x 4 requests = 200 concurrent queries) match
the CI serve-smoke job; the p99 bound is deliberately generous — it
exists to catch hangs and collapse, not to benchmark (`servebench/`
does that).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=50)
    parser.add_argument("--requests-per-client", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--p99-bound-ms", type=float, default=5000.0)
    parser.add_argument("--check-sample", type=int, default=16)
    args = parser.parse_args(argv)

    from repro.checks.checker import InvariantViolation
    from repro.serve.loadgen import SmokeFailure, run_smoke

    try:
        report = run_smoke(
            clients=args.clients,
            requests_per_client=args.requests_per_client,
            workers=args.workers,
            p99_bound_ms=args.p99_bound_ms,
            check_sample=args.check_sample,
        )
    except (SmokeFailure, InvariantViolation) as exc:
        print(f"[serve-smoke] FAIL: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"[serve-smoke] OK: {report['phase']['requests']} requests, "
        f"p99 {report['phase']['p99_ms']:.1f} ms, "
        f"{report['invariant_audited']} runs audited, "
        f"{report['violations']} violations",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
