"""Deploy-time table prewarming (:mod:`repro.engine.warmup`).

The promise under test: after :func:`prewarm_tables` has populated a
shared cache directory, a fresh evaluator or predictor against the same
machines and grid *builds nothing* — every table set loads (zero
misses) and nothing new is persisted (zero stores).
"""

from __future__ import annotations

from repro import obs
from repro.api.facade import Predictor
from repro.api.types import Query
from repro.core.perfbench import build_grid
from repro.engine.batch import BatchEvaluator
from repro.engine.table_cache import TableCache
from repro.engine.warmup import prewarm_tables
from repro.machine import registry

POINTS = 504  # one grid "size row" per machine keeps the tests quick


class TestPrewarmTables:
    def test_cold_prewarm_stores_the_trio_per_machine(self, tmp_path):
        report = prewarm_tables(
            tmp_path, machines=("knl7210",), points=POINTS
        )
        assert [e.machine for e in report.entries] == ["knl7210"]
        entry = report.entries[0]
        assert entry.stores == 3  # one table set per paper-trio config
        assert entry.cache_misses == 3
        assert not entry.already_warm
        assert list(tmp_path.glob("tables-*.json"))

    def test_prewarmed_evaluator_builds_nothing(self, tmp_path):
        prewarm_tables(tmp_path, machines=("knl7210",), points=POINTS)
        machine = registry.build("knl7210")
        cache = TableCache(tmp_path)
        evaluator = BatchEvaluator(machine, table_cache=cache)
        evaluator.evaluate(build_grid(POINTS, machine=machine))
        assert cache.misses == 0
        assert cache.stores == 0
        assert cache.hits == 3

    def test_prewarm_is_idempotent(self, tmp_path):
        prewarm_tables(tmp_path, machines=("knl7210",), points=POINTS)
        again = prewarm_tables(tmp_path, machines=("knl7210",), points=POINTS)
        assert again.total_stores == 0
        assert all(entry.already_warm for entry in again.entries)

    def test_default_covers_every_registered_machine(self, tmp_path):
        report = prewarm_tables(tmp_path, points=POINTS)
        assert [e.machine for e in report.entries] == list(registry.names())
        # Distinct machines must land in distinct cache entries.
        assert len(list(tmp_path.glob("tables-*.json"))) == 3 * len(
            report.entries
        )

    def test_prewarmed_predictor_reports_zero_table_builds(self, tmp_path):
        prewarm_tables(tmp_path, machines=("knl7210",), points=POINTS)
        predictor = Predictor(
            machine="knl7210", table_cache_dir=str(tmp_path)
        )
        # Queries inside the prewarm grid's coverage (its sizes start
        # at 0.5 GB and step 0.15, over minife/gups x the paper trio
        # x the thread ladder).
        queries = [
            Query(
                workload=workload,
                size_gb=size,
                config=config,
                num_threads=64,
            )
            for workload in ("minife", "gups")
            for size in (0.5, 0.65)
            for config in ("DRAM", "HBM", "Cache Mode")
        ]
        results = predictor.predict_many(queries)
        assert len(results) == len(queries)
        stats = predictor.stats()
        assert stats.table_cache_misses == 0
        assert stats.table_cache_stores == 0
        assert stats.table_cache_hits > 0

    def test_observability_counters_and_span(self, tmp_path):
        session = obs.Observation().start()
        try:
            prewarm_tables(tmp_path, machines=("knl7210",), points=POINTS)
        finally:
            session.stop()
        metrics = session.metrics_dict()["counters"]
        assert metrics["tables.prewarm_machines"] == 1.0
        assert metrics["tables.prewarm_points"] >= POINTS
        assert metrics["tables.prewarm_stores"] == 3.0
        names = {span.name for span in session.spans()}
        assert "tables.prewarm" in names

    def test_report_describe_is_informative(self, tmp_path):
        report = prewarm_tables(tmp_path, machines=("knl7210",), points=POINTS)
        text = report.describe()
        assert "knl7210" in text
        assert str(tmp_path) in text
