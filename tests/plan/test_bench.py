"""`repro bench plan`: repeated cold solves, a warm row, the served
parse and encode stages, one history row."""

from __future__ import annotations

import json

import pytest

from repro.api.facade import Predictor
from repro.core.perfbench import write_bench_json
from repro.plan.bench import (
    REPEATS,
    history_row,
    host_probe_ms,
    measure_plan,
    synthetic_request,
)
from repro.plan.planner import CapacityPlanner


@pytest.fixture(scope="module")
def resolves():
    """Resolve calls made by one cold solve, and by the whole benchmark."""
    calls = []
    original = Predictor.resolve

    def counting(self, query):
        calls.append(query)
        return original(self, query)

    Predictor.resolve = counting
    try:
        request = synthetic_request(8, nodes_per_machine=4)
        CapacityPlanner(Predictor()).plan(request)
        one = len(calls)
        document = measure_plan((8,))
        return one, len(calls) - one, document
    finally:
        Predictor.resolve = original


def test_rows_are_medians_with_their_iqr(resolves):
    _, _, document = resolves
    planner = document["planner"]
    row = planner["details"]["8"]
    assert planner["repeats"] == REPEATS
    for kind in ("cold", "warm"):
        samples = row[f"{kind}_ms"]
        assert len(samples) == REPEATS
        prefix = "" if kind == "cold" else "warm_"
        assert min(samples) <= row[f"{prefix}latency_ms"] <= max(samples)
        assert 0.0 <= row[f"{prefix}iqr_ms"] <= max(samples) - min(samples)
        assert planner[f"{prefix}latency_ms"]["8"] == row[f"{prefix}latency_ms"]
        assert planner[f"{prefix}iqr_ms"]["8"] == row[f"{prefix}iqr_ms"]


def test_served_parse_and_encode_have_rows(resolves):
    _, _, document = resolves
    planner = document["planner"]
    row = planner["details"]["8"]
    for stage in ("parse", "encode"):
        assert row[f"{stage}_ms"] > 0.0
        assert row[f"{stage}_iqr_ms"] >= 0.0
        assert planner[f"{stage}_ms"]["8"] == row[f"{stage}_ms"]
        assert planner[f"{stage}_iqr_ms"]["8"] == row[f"{stage}_iqr_ms"]


def test_cold_solves_price_afresh_and_warm_ones_do_not(resolves):
    one, total, document = resolves
    assert document["planner"]["details"]["8"]["escalations"] == 0
    # The fitting solve and each cold repeat price every option; the
    # warm repeats on the last planner price none.
    assert total == (1 + REPEATS) * one


def test_history_keeps_the_cold_medians(resolves, tmp_path):
    _, _, document = resolves
    path = str(tmp_path / "BENCH_plan.json")
    write_bench_json(document, path, history_row(document))
    write_bench_json(document, path, history_row(document))
    with open(path, encoding="utf-8") as handle:
        written = json.load(handle)
    assert [row["plan_latency_ms"] for row in written["history"]] == [
        document["planner"]["latency_ms"]
    ] * 2


def test_history_rows_carry_the_host_probe(resolves, tmp_path):
    _, _, document = resolves
    assert document["host_probe_ms"] > 0.0
    path = str(tmp_path / "BENCH_plan.json")
    write_bench_json(document, path, history_row(document))
    with open(path, encoding="utf-8") as handle:
        (row,) = json.load(handle)["history"]
    assert row["host_probe_ms"] == document["host_probe_ms"]


def test_the_host_probe_reads_a_finite_time():
    assert 0.0 < host_probe_ms() < float("inf")
