"""Ablation: dynamic hot-page migration vs the paper's static placements.

The road the paper's future work points down: instead of binding whole
applications (or structures) once, an AutoHBW-style runtime migrates hot
pages into HBM per epoch.  The study contrasts the two access classes:

* Zipf-skewed access (graph-analytics-like): migration finds the hot set
  and serves most accesses from HBM — dynamic placement pays.
* uniform access (GUPS-like): there is no hot set; the hit rate pins at
  the capacity ratio and migration traffic is pure overhead — the
  paper's static DRAM binding remains right.
"""

from repro.memory.migration import (
    MigrationPolicy,
    simulate_migration,
    uniform_page_weights,
    zipfian_page_weights,
)
from repro.util.tables import TextTable

N_PAGES = 20_000
HBM_PAGES = 2_000  # 10% capacity ratio, like 16 GB vs 160 GB of data


def run_ablation():
    policy = MigrationPolicy(hbm_pages=HBM_PAGES, budget_pages_per_epoch=1000)
    zipf = simulate_migration(
        zipfian_page_weights(N_PAGES), policy, epochs=25, seed=11
    )
    uniform = simulate_migration(
        uniform_page_weights(N_PAGES), policy, epochs=25, seed=11
    )
    return zipf, uniform


def test_ablation_migration(benchmark, record_text):
    zipf, uniform = benchmark(run_ablation)
    table = TextTable(
        ["access pattern", "HBM hit fraction", "pages migrated",
         "migration traffic", "converged by epoch"],
        title=(
            f"Ablation: hot-page migration, {N_PAGES} pages, "
            f"{HBM_PAGES} HBM pages (10%)"
        ),
    )
    for name, outcome in (("zipf (skew 0.99)", zipf), ("uniform", uniform)):
        table.add_row(
            [
                name,
                f"{outcome.hbm_hit_fraction:.1%}",
                outcome.migrated_pages,
                f"{outcome.migration_traffic_bytes / 1e6:.1f} MB",
                outcome.steady_state_epoch,
            ]
        )
    text = table.render()
    record_text("ablation_migration", text)
    print(text)
    assert zipf.hbm_hit_fraction > 0.6
    assert uniform.hbm_hit_fraction < 0.2
    assert zipf.converged
