"""Tests of the serving benchmark itself.

Run from the repository root::

    python3 -m pytest servebench/tests -q

The tiny runs boot real servers and take a few minutes in total.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.api.facade import Predictor  # noqa: E402
from repro.api.types import Query  # noqa: E402

from servebench import calibrate, traffic  # noqa: E402
from servebench.client import Outcome  # noqa: E402
from servebench.verify import ERROR, OK, WRONG, Verifier  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_declared_workloads_have_generators() -> None:
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(traffic.WORKLOADS)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "servebench", tmp_path / "servebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run("point-hit", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("workload", ["grid-miss", "point-miss-routed"])
def test_fresh_key_streams_never_repeat_a_run_key(workload: str) -> None:
    built = traffic.build(workload, seed=11, seconds=0.2)
    keyer = Predictor()
    keys = [
        keyer.cache_key(query)
        for request in built.warmup + built.window
        for query in request.tag
    ]
    assert len(keys) == len(set(keys))
    assert keyer.cache_key(traffic.PROBE_QUERY) not in keys


def test_same_seed_same_requests() -> None:
    first = traffic.build("point-miss-routed", seed=3, seconds=0.1)
    second = traffic.build("point-miss-routed", seed=3, seconds=0.1)
    assert [r.wire for r in first.window] == [r.wire for r in second.window]


def test_segments_cover_the_window_in_order() -> None:
    from servebench import run

    requests = list(range(2 * run.SEGMENTS + 3))
    parts = run._segments(requests, lanes=2)
    assert len(parts) == run.SEGMENTS
    assert [r for part in parts for r in part] == requests
    assert min(len(part) for part in parts) >= 2
    assert run._segments([1, 2, 3], lanes=2) == [[1, 2, 3]]


def test_calibration_scales_to_the_nominal_host() -> None:
    reference = calibrate.REFERENCE_S
    assert calibrate.factor(reference, reference) == 1.0
    assert calibrate.factor(reference, 3 * reference) == 0.5
    assert calibrate.probe(calls=3) > 0


def _answer(outcome_request, results: list[dict]) -> Outcome:
    body = json.dumps({"results": results, "meta": {}}).encode()
    return Outcome(outcome_request, 0.0, 0.001, 200, body)


def test_verifier_rejects_a_corrupted_predict_answer() -> None:
    query = Query("dgemm", 3.5, "HBM", 64, "knl7210")
    request = traffic.query_request(query)
    truth = Predictor().predict(query).to_dict()
    verifier = Verifier()
    assert verifier.check(_answer(request, [truth])) == OK
    tampered = dict(truth, time_ns=math.nextafter(truth["time_ns"], math.inf))
    assert verifier.check(_answer(request, [tampered])) == WRONG
    assert verifier.check(Outcome(request, 0.0, 0.001, 500, b"{}")) == ERROR
    assert verifier.check(Outcome(request, 0.0, 0.001, 0, None)) == ERROR


def test_verifier_rejects_a_corrupted_plan() -> None:
    built = traffic.build("plan", seed=5, seconds=0.05)
    request = built.priming[0]
    plan = json.loads(request.tag.expected)
    verifier = Verifier()
    good = Outcome(request, 0.0, 0.001, 200, json.dumps({"plan": plan}).encode())
    assert verifier.check(good) == OK
    plan["assignments"][0]["load_nodes"] *= 2
    bad = Outcome(request, 0.0, 0.001, 200, json.dumps({"plan": plan}).encode())
    assert verifier.check(bad) == WRONG


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "servebench_tracer", ROOT / "servebench" / "inject" / "sitecustomize.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_self_time_excludes_callees_and_awaits() -> None:
    module = _tracer_module()
    tracer = module.Tracer()

    def busy(seconds: float) -> None:
        end = module._clock() + seconds * 1e9
        while module._clock() < end:
            pass

    child = tracer.wrap("child", lambda: busy(0.02))

    async def handler() -> None:
        busy(0.01)
        child()
        await asyncio.sleep(0.05)

    asyncio.run(tracer.wrap_async("handler", handler)())
    calls, total, self_ns, _, _ = tracer.stats["handler"]
    assert calls == 1
    assert total >= 80e6  # 10 ms busy + 20 ms child + 50 ms asleep
    assert 8e6 <= self_ns < 25e6  # only its own 10 ms on the loop
    assert tracer.edges[("handler", "child")][0] == 1
