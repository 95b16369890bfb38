"""BENCH trajectory files: history accumulation and recalibration notes.

``make bench`` / ``make bench-serve`` regenerate their BENCH_*.json
files; since this PR they no longer *overwrite* the trajectory — every
regeneration appends one compact timestamped row to a ``history`` list
carried over from the existing file, and the engine file preserves the
``recalibration`` note explaining the 2026-08 scalar-baseline break.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.perfbench import (
    RECALIBRATION_NOTE,
    EngineBenchResult,
    write_bench_json,
)
from repro.serve.loadgen import write_bench_json as write_serve_bench_json


def fake_result(scalar_seconds: float = 0.05) -> EngineBenchResult:
    return EngineBenchResult(
        grid_points=1000,
        scalar_sample_points=100,
        scalar_seconds=scalar_seconds,
        batch_cold_seconds=0.02,
        batch_warm_seconds=0.01,
        batch_hot_seconds=0.005,
        identity_checked_points=100,
        eventsim_requests=12800,
        eventsim_reference_seconds=0.04,
        eventsim_optimized_seconds=0.008,
    )


class TestEngineBenchHistory:
    def test_first_write_creates_history_and_recalibration(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_bench_json(fake_result(), path)
        document = json.loads(path.read_text())
        assert document["recalibration"] == RECALIBRATION_NOTE
        assert len(document["history"]) == 1
        entry = document["history"][0]
        assert entry["scalar_us_per_point"] == 500.0
        assert entry["eventsim_speedup"] == 5.0
        assert "at" in entry

    def test_regeneration_appends_not_overwrites(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_bench_json(fake_result(0.05), path)
        write_bench_json(fake_result(0.02), path)
        document = json.loads(path.read_text())
        assert [h["scalar_us_per_point"] for h in document["history"]] == [
            500.0,
            200.0,
        ]
        # The headline block always reflects the latest measurement.
        assert document["scalar"]["us_per_point"] == 200.0

    def test_existing_recalibration_note_is_preserved(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        custom = {"date": "2031-01-01", "reason": "future break"}
        path.write_text(json.dumps({"recalibration": custom}))
        write_bench_json(fake_result(), path)
        document = json.loads(path.read_text())
        assert document["recalibration"] == custom

    def test_corrupt_existing_file_starts_history_fresh(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{not json")
        write_bench_json(fake_result(), path)
        document = json.loads(path.read_text())
        assert len(document["history"]) == 1

    def test_eventsim_point_recorded(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_bench_json(fake_result(), path)
        document = json.loads(path.read_text())
        assert document["eventsim"]["speedup"] == 5.0
        assert document["eventsim"]["requests"] == 12800
        assert "eventsim_vector" not in document


class TestServeBenchHistory:
    DOCUMENT = {
        "speedup_coalesced_vs_naive": 3.1,
        "speedup_hot_vs_naive": 4.0,
        "coalesced": {"throughput_rps": 900.0},
    }

    def test_history_accumulates_across_writes(self, tmp_path):
        path = str(tmp_path / "BENCH_serve.json")
        write_serve_bench_json(dict(self.DOCUMENT), path)
        write_serve_bench_json(dict(self.DOCUMENT), path)
        document = json.loads(Path(path).read_text())
        assert len(document["history"]) == 2
        assert all(
            h["speedup_coalesced_vs_naive"] == 3.1 for h in document["history"]
        )

    def test_sharded_scaling_summary_lands_in_history(self, tmp_path):
        path = str(tmp_path / "BENCH_serve.json")
        sharded = {
            "scaling": {
                "goodput_rps": {"1": 100.0, "4": 380.0},
                "speedup_vs_min": {"1": 1.0, "4": 3.8},
                "parallel_efficiency": {"1": 1.0, "4": 0.95},
            }
        }
        write_serve_bench_json(sharded, path)
        entry = json.loads(Path(path).read_text())["history"][0]
        assert entry["speedup_vs_min"] == {"1": 1.0, "4": 3.8}
        assert entry["parallel_efficiency"] == {"1": 1.0, "4": 0.95}

    def test_each_run_replaces_only_the_sections_it_measured(self, tmp_path):
        bench = tmp_path / "BENCH_serve.json"
        path = str(bench)
        sharded = {"scaling": {"speedup_vs_min": {"1": 1.0, "2": 1.9}}}
        write_serve_bench_json(
            {"coalesced": {"throughput_rps": 1.0}, "sharded": sharded}, path
        )
        write_serve_bench_json(dict(self.DOCUMENT), path)
        document = json.loads(bench.read_text())
        assert document["sharded"] == sharded
        assert document["coalesced"] == {"throughput_rps": 900.0}
        write_serve_bench_json({"sharded": {"scaling": {}}}, path)
        document = json.loads(bench.read_text())
        assert document["sharded"] == {"scaling": {}}
        assert document["speedup_coalesced_vs_naive"] == 3.1
        history = document["history"]
        assert len(history) == 3
        assert history[0]["speedup_vs_min"] == {"1": 1.0, "2": 1.9}
        assert "speedup_vs_min" not in history[1]

    def test_input_document_is_not_mutated(self, tmp_path):
        document = dict(self.DOCUMENT)
        write_serve_bench_json(document, str(tmp_path / "b.json"))
        assert "history" not in document
