"""Fig. 4a: DGEMM GFLOPS vs array size, three configurations.

Shape: HBM ~2x DRAM wherever it fits; missing at 24 GB; cache in between.
"""

from repro.figures.fig4 import generate_a


def test_fig4a_dgemm(benchmark, runner, record_exhibit):
    exhibit = benchmark(generate_a, runner)
    record_exhibit(exhibit)
    improvements = [v for v in exhibit.data["hbm_improvement"] if v is not None]
    assert all(1.8 <= v <= 2.3 for v in improvements)
    sizes = exhibit.data["sizes_gb"]
    assert dict(zip(sizes, exhibit.data["HBM"]))[24.0] is None
    # Absolute scale: hundreds of GFLOPS, like the paper's y-axis.
    dram = dict(zip(sizes, exhibit.data["DRAM"]))[6.0]
    assert 2e11 <= dram <= 4e11
    print(exhibit.render())
