"""Run one workload of the serving benchmark and print one JSON result.

    python3 servebench/run.py --workload grid-miss --seed 1 --seconds 10 --trace 0

``--trace 0`` boots the server tree three times, each on a fresh table
cache, measures the same closed-loop window on each boot and prints
every end-to-end metric as the median over the three boots (``setup_s``
over those and two more boots).  The server tree is pinned to one CPU;
each window runs as :data:`SEGMENTS` segments with a speed probe of that
CPU (``servebench.calibrate``) on either side, and every time a segment
measured is scaled to the calibration's nominal CPU.
``--trace 1`` measures that window untraced, then on a tree that
carries the layer tracer (``servebench/inject``), and prints every
per-layer metric.  Every answer is verified after its window.  The last
line of standard output is the result object; the line before it holds
the environment fingerprint and the untimed extras (p99, raw
uncalibrated figures, samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Server trees booted per ``--trace 0`` run.  Each boot measures the same
#: window (a third of ``--seconds``); every metric is the median over
#: the boots, so one boot that meets a slow spell of the host cannot
#: move it.
BOOTS = 3
#: Further boots per ``--trace 0`` run that only time set-up, so that
#: ``setup_s`` is a median of five.
SETUP_ONLY_BOOTS = 2
#: A window that runs this many times ``--seconds`` stops sending.
LIMIT_FACTOR = 3
#: Segments per window.  A CPU's speed can change within a second, so
#: the probes on either side of a segment should be well under one apart.
SEGMENTS = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "server_rss_mb": "MiB",
    "success_ratio": "ratio",
    "queries_per_s": "queries/s",
    "plans_per_s": "plans/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "server_cpu_us_per_query": "us",
    "server_cpu_ms_per_plan": "ms",
}


@dataclass
class Segment:
    """One closed-loop stretch of a window and the host speed around it."""

    window: object  # client.Window
    cpu_s: float
    factor: float  # calibrate.factor of the probes on either side


@dataclass
class Phase:
    """One measured window on one server tree."""

    segments: list[Segment]
    verdicts: list[str]  # per window outcome (see servebench.verify)
    warm_verdicts: list[str]  # priming and warm-up outcomes
    rss_mib: float
    steal_share: float

    @property
    def outcomes(self) -> list:
        return [o for s in self.segments for o in s.window.outcomes]

    @property
    def cut_short(self) -> bool:
        return any(s.window.cut_short for s in self.segments)

    def latencies_ms(self, calibrated: bool = True) -> list[float]:
        return sorted(
            o.latency_s * 1e3 * (s.factor if calibrated else 1.0)
            for s in self.segments
            for o in s.window.outcomes
        )

    def elapsed_s(self, calibrated: bool = True) -> float:
        return sum(s.window.elapsed_s * (s.factor if calibrated else 1.0) for s in self.segments)

    def cpu_s(self, calibrated: bool = True) -> float:
        return sum(s.cpu_s * (s.factor if calibrated else 1.0) for s in self.segments)


def _percentile(sorted_values: list[float], q: int) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def _boot(server, probe, verifier) -> tuple[float, float]:
    """Start the tree; seconds from spawn to the first correct answer, as
    measured and as calibrated."""
    from servebench import calibrate
    from servebench.client import Connection
    from servebench.server import ServerError
    from servebench.verify import OK

    before = calibrate.probe(server.cpus)
    server.start()
    host, port = server.wait_address()
    connection = Connection(host, port)
    try:
        outcome = connection.send(probe)
    finally:
        connection.close()
    if verifier.check(outcome) != OK:
        raise ServerError(f"wrong set-up probe answer: {outcome.body!r:.300}")
    seconds = outcome.done - server.spawned_at
    return seconds, seconds * calibrate.factor(before, calibrate.probe(server.cpus))


def _snapshots(trace_dir: Path, pids: list[int]) -> list[dict]:
    """The tracer snapshot of every process of the tree."""
    errors = sorted(trace_dir.glob("error-*.txt"))
    if errors:
        raise RuntimeError("tracer failed:\n" + errors[0].read_text(encoding="utf-8"))
    snapshots = []
    for pid in pids:
        record = trace_dir / f"proc-{pid}.json"
        deadline = time.monotonic() + 30.0
        while not record.exists():
            if time.monotonic() > deadline:
                raise RuntimeError(f"process {pid} has no tracer")
            time.sleep(0.01)
        port = json.loads(record.read_text(encoding="utf-8"))["port"]
        chunks = []
        with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
            while chunk := sock.recv(1 << 16):
                chunks.append(chunk)
        snapshots.append(json.loads(b"".join(chunks)))
    return snapshots


def _metrics(host: str, port: int) -> dict:
    from servebench.client import Connection

    connection = Connection(host, port)
    try:
        status, body = connection.get("/metrics")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


def _segments(requests: list, lanes: int) -> list[list]:
    """``requests`` cut into up to :data:`SEGMENTS` contiguous runs of at
    least ``lanes`` requests each."""
    count = max(1, min(SEGMENTS, len(requests) // lanes))
    bounds = [round(i * len(requests) / count) for i in range(count + 1)]
    return [requests[a:b] for a, b in zip(bounds, bounds[1:])]


def _measure(server, traffic, seconds, verifier, trace: dict | None = None) -> Phase:
    """Prime, warm up and measure one window on a booted tree.  With
    ``trace`` (a dict), tracer snapshots and /metrics documents from
    both ends of the window are stored in it."""
    from servebench import calibrate, client, procfs

    host, port = server.wait_address()
    warm = client.run_sequential(host, port, traffic.priming)
    warm += client.closed_loop(host, port, traffic.warmup, traffic.lanes).outcomes
    if trace is not None:
        trace["before"] = _snapshots(server.trace_dir, server.pids())
        trace["metrics_before"] = _metrics(host, port)
    pids = server.pids()
    host0 = procfs.HostTimes.read()
    deadline = time.perf_counter() + LIMIT_FACTOR * seconds
    segments: list[Segment] = []
    speed, cpu = calibrate.probe(server.cpus), procfs.cpu_seconds(pids)
    for chunk in _segments(traffic.window, traffic.lanes):
        window = client.closed_loop(
            host, port, chunk, traffic.lanes, max(deadline - time.perf_counter(), 0.0)
        )
        cpu_after = procfs.cpu_seconds(pids)
        speed_after = calibrate.probe(server.cpus)
        segments.append(
            Segment(window, cpu_after - cpu, calibrate.factor(speed, speed_after))
        )
        speed, cpu = speed_after, cpu_after
        if window.cut_short:
            break
    host1 = procfs.HostTimes.read()
    rss = procfs.peak_rss_mib(server.pids())
    if trace is not None:
        trace["after"] = _snapshots(server.trace_dir, server.pids())
        trace["metrics_after"] = _metrics(host, port)
        trace["table_dir_mib"] = procfs.dir_mib(str(server.tables_dir))
    phase = Phase(
        segments=segments,
        verdicts=[],
        warm_verdicts=verifier.check_all(warm),
        rss_mib=rss,
        steal_share=host1.steal_share_since(host0),
    )
    phase.verdicts = verifier.check_all(phase.outcomes)
    if phase.cut_short:
        print(
            f"[servebench] the window was cut at {LIMIT_FACTOR * seconds:g}s "
            f"after {len(phase.outcomes)} of {len(traffic.window)} requests",
            file=sys.stderr,
        )
    return phase


def _window_metrics(phase: Phase, calibrated: bool = True) -> dict[str, float]:
    """The end-to-end metrics one boot's window measured."""
    from servebench.verify import OK

    good = [o for o, verdict in zip(phase.outcomes, phase.verdicts) if verdict == OK]
    units = sum(o.request.units for o in good)
    elapsed = phase.elapsed_s(calibrated)
    cpu_s = phase.cpu_s(calibrated)
    latencies = phase.latencies_ms(calibrated)
    return {
        "server_rss_mb": phase.rss_mib,
        "queries_per_s": units / elapsed,
        "plans_per_s": len(good) / elapsed,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": _percentile(latencies, 90),
        "server_cpu_us_per_query": cpu_s * 1e6 / max(units, 1),
        "server_cpu_ms_per_plan": cpu_s * 1e3 / max(len(good), 1),
    }


def _end_to_end(
    phases: list[Phase], setups: list[float], calibrated: bool = True
) -> dict[str, float]:
    """Medians over the boots; the success ratio pools every window."""
    from servebench.verify import OK

    per_boot = [_window_metrics(p, calibrated) for p in phases]
    verdicts = [v for p in phases for v in p.verdicts]
    medians = {k: statistics.median(m[k] for m in per_boot) for k in per_boot[0]}
    return {
        "setup_s": statistics.median(setups),
        "server_rss_mb": medians["server_rss_mb"],
        "success_ratio": verdicts.count(OK) / len(verdicts),
        **{k: v for k, v in medians.items() if k != "server_rss_mb"},
    }


def _fingerprint(steal_share: float) -> dict[str, object]:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "cpu_steal_share": steal_share,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info)."""
    from servebench import layers, traffic as traffic_mod
    from servebench.server import ServerProcess
    from servebench.verify import OK, WRONG, Verifier

    traffic = traffic_mod.build(workload, seed, seconds / BOOTS)
    verifier = Verifier()
    # The server tree gets the last CPU to itself and the client keeps the
    # rest: each vCPU drifts on its own, and the probes time the server's.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = {cpus[-1]}
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus[:-1]))
    phases: list[Phase] = []
    setups: list[tuple[float, float]] = []  # (as measured, calibrated)
    traced: dict = {}
    # (name, trace directory, measures a window)
    boots = [(f"boot{i}", None, True) for i in range(1 if trace else BOOTS)]
    if trace:
        boots.append(("traced", workdir / "trace", True))
    else:
        boots += [(f"setup{i}", None, False) for i in range(SETUP_ONLY_BOOTS)]
    for name, trace_dir, measures in boots:
        server = ServerProcess(
            ROOT, workdir / name, replicas=traffic.replicas, trace_dir=trace_dir,
            cpus=server_cpus,
        )
        try:
            setups.append(_boot(server, traffic.probe, verifier))
            if measures:
                phases.append(
                    _measure(
                        server, traffic, seconds / BOOTS, verifier,
                        traced if trace_dir is not None else None,
                    )
                )
        finally:
            server.stop()
    verdicts = [v for p in phases for v in p.verdicts + p.warm_verdicts]
    attempted = sum(len(p.outcomes) for p in phases)
    failed = sum(v != OK for v in verdicts)
    last = phases[-1]
    untraced = phases[:1] if trace else phases
    factors = [s.factor for p in phases for s in p.segments]
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "window_requests": len(traffic.window),
        "latency_p99_ms": statistics.median(
            _percentile(p.latencies_ms(), 99) for p in untraced
        ),
        "setup_samples_s": [raw for raw, _ in setups],
        "host_factor_range": [min(factors), max(factors)],
        "fingerprint": _fingerprint(statistics.fmean(p.steal_share for p in phases)),
        **traffic.notes,
    }
    if not trace:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in _end_to_end(phases, [c for _, c in setups]).items()
        }
        info["uncalibrated"] = _end_to_end(phases, [raw for raw, _ in setups], False)
    else:
        outcomes = last.outcomes
        window = layers.TracedWindow(
            before=traced["before"],
            after=traced["after"],
            metrics_before=traced["metrics_before"],
            metrics_after=traced["metrics_after"],
            routed=traffic.replicas > 1,
            queries=sum(o.request.units for o in outcomes),
            client_latency_mean_s=statistics.fmean(o.latency_s for o in outcomes),
            response_bytes_mean=statistics.fmean(len(o.body or b"") for o in outcomes),
            table_dir_mib=traced["table_dir_mib"],
            traced_p50_ms=statistics.median(last.latencies_ms()),
            untraced_p50_ms=statistics.median(phases[0].latencies_ms()),
        )
        metrics = {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in layers.per_layer(window).items()
        }
    result = {
        "correct": WRONG not in verdicts,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def _terminate(signum, frame):  # noqa: ARG001 - signal handler signature
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("grid-miss", "point-hit", "plan", "point-miss-routed"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"[servebench] no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGTERM, _terminate)
    # A run started in the background inherits SIGINT ignored, and so
    # would the server, whose graceful stop is SIGINT.  A caught signal
    # is reset to its default across exec, so the server gets it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    workdir = ROOT / ".servebench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps({"servebench": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
