"""BENCH trajectory files: the one writer, history rows and notes.

``repro bench`` and ``repro bench plan`` write their BENCH_*.json files
through one writer, ``repro.core.perfbench.write_bench_json``.  It never
*overwrites* the trajectory: every write appends one timestamped,
host-stamped row to a ``history`` list carried over from the existing
file, keeps every key the run did not measure, and the engine file
keeps the ``recalibration`` note explaining the 2026-08 scalar-baseline
break.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from repro.core.perfbench import (
    RECALIBRATION_NOTE,
    EngineBenchResult,
    host_fingerprint,
    write_bench_json,
    write_engine_bench,
)
from repro.plan.bench import history_row

REPO_ROOT = Path(__file__).resolve().parents[2]


def fake_result(scalar_seconds: float = 0.05) -> EngineBenchResult:
    return EngineBenchResult(
        grid_points=1000,
        scalar_sample_points=100,
        scalar_seconds=scalar_seconds,
        batch_cold_seconds=0.02,
        batch_warm_seconds=0.01,
        batch_hot_seconds=0.005,
        identity_checked_points=100,
    )


class TestEngineBenchHistory:
    def test_first_write_creates_history_and_recalibration(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_engine_bench(fake_result(), path)
        document = json.loads(path.read_text())
        assert document["recalibration"] == RECALIBRATION_NOTE
        assert len(document["history"]) == 1
        entry = document["history"][0]
        assert entry["scalar_us_per_point"] == 500.0
        assert "at" in entry

    def test_regeneration_appends_not_overwrites(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_engine_bench(fake_result(0.05), path)
        write_engine_bench(fake_result(0.02), path)
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
        write_engine_bench(fake_result(), path)
        document = json.loads(path.read_text())
        assert document["recalibration"] == custom

    def test_corrupt_existing_file_starts_history_fresh(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{not json")
        write_engine_bench(fake_result(), path)
        document = json.loads(path.read_text())
        assert len(document["history"]) == 1

    def test_no_event_simulator_row_is_written(self, tmp_path):
        # The event simulator is a test oracle, not a production path:
        # the engine bench times nothing of it.
        path = tmp_path / "BENCH_engine.json"
        write_engine_bench(fake_result(), path)
        document = json.loads(path.read_text())
        assert "eventsim" not in document
        assert "eventsim_vector" not in document
        assert "eventsim_speedup" not in document["history"][0]


class TestServeBenchHistory:
    """The writer's merge rule on multi-section documents, each section
    measured by a different run (the shape the serving benchmark's file
    had)."""

    DOCUMENT = {
        "speedup_coalesced_vs_naive": 3.1,
        "coalesced": {"throughput_rps": 900.0},
    }
    ROW = {"throughput_rps": 900.0}

    def test_history_accumulates_across_writes(self, tmp_path):
        path = tmp_path / "BENCH.json"
        write_bench_json(dict(self.DOCUMENT), path, self.ROW)
        write_bench_json(dict(self.DOCUMENT), path, self.ROW)
        document = json.loads(path.read_text())
        assert len(document["history"]) == 2
        assert all(h["throughput_rps"] == 900.0 for h in document["history"])
        assert all("at" in h for h in document["history"])

    def test_each_run_replaces_only_the_sections_it_measured(self, tmp_path):
        path = tmp_path / "BENCH.json"
        sharded = {"scaling": {"speedup_vs_min": {"1": 1.0, "2": 1.9}}}
        write_bench_json(
            {"coalesced": {"throughput_rps": 1.0}, "sharded": sharded},
            path,
            {"run": 1},
        )
        write_bench_json(dict(self.DOCUMENT), path, {"run": 2})
        document = json.loads(path.read_text())
        assert document["sharded"] == sharded
        assert document["coalesced"] == {"throughput_rps": 900.0}
        write_bench_json({"sharded": {"scaling": {}}}, path, {"run": 3})
        document = json.loads(path.read_text())
        assert document["sharded"] == {"scaling": {}}
        assert document["speedup_coalesced_vs_naive"] == 3.1
        assert [h["run"] for h in document["history"]] == [1, 2, 3]

    def test_input_document_is_not_mutated(self, tmp_path):
        document = dict(self.DOCUMENT)
        row = dict(self.ROW)
        write_bench_json(document, tmp_path / "b.json", row)
        assert document == self.DOCUMENT
        assert row == self.ROW

    def test_corrupt_or_non_object_file_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH.json"
        for junk in ("{not json", "[1, 2]"):
            path.write_text(junk)
            write_bench_json(dict(self.DOCUMENT), path, self.ROW)
            document = json.loads(path.read_text())
            assert len(document["history"]) == 1
            assert document["coalesced"] == self.DOCUMENT["coalesced"]

    def test_every_history_row_carries_the_host_fingerprint(self, tmp_path):
        path = tmp_path / "BENCH.json"
        write_bench_json(dict(self.DOCUMENT), path, self.ROW)
        write_engine_bench(fake_result(), path)
        host = host_fingerprint()
        assert set(host) == {"cpu_count", "machine", "python", "numpy"}
        assert host["cpu_count"] == os.cpu_count()
        history = json.loads(path.read_text())["history"]
        assert [row["host"] for row in history] == [host, host]


class TestCommittedBenchFilesRoundTrip:
    """One write onto a copy of each committed BENCH file keeps every
    prior key and history row and appends exactly one row."""

    def _round_trip(self, name, tmp_path, write):
        path = tmp_path / name
        shutil.copy(REPO_ROOT / name, path)
        before = json.loads(path.read_text())
        write(path)
        after = json.loads(path.read_text())
        assert set(before) <= set(after)
        assert after["history"][:-1] == before["history"]
        assert len(after["history"]) == len(before["history"]) + 1
        return before, after

    def test_engine_file(self, tmp_path):
        before, after = self._round_trip(
            "BENCH_engine.json", tmp_path,
            lambda path: write_engine_bench(fake_result(), path),
        )
        assert after["recalibration"] == before["recalibration"]
        assert after["history"][-1]["scalar_us_per_point"] == 500.0

    def test_plan_file(self, tmp_path):
        committed = json.loads((REPO_ROOT / "BENCH_plan.json").read_text())
        document = {
            "planner": {**committed["planner"], "latency_ms": {"10": 1.5}},
            "host_probe_ms": 3.5,
        }
        before, after = self._round_trip(
            "BENCH_plan.json", tmp_path,
            lambda path: write_bench_json(
                document, path, history_row(document)
            ),
        )
        assert after["note"] == before["note"]
        assert after["history"][-1]["plan_latency_ms"] == {"10": 1.5}
        assert after["history"][-1]["host_probe_ms"] == 3.5
