"""Configuration tests."""

from repro.core.configs import ConfigName, make_config, standard_configs
from repro.memory.modes import MemoryMode


class TestStandardConfigs:
    def test_trio_order(self):
        names = [c.name for c in standard_configs()]
        assert names == [ConfigName.DRAM, ConfigName.HBM, ConfigName.CACHE]

    def test_dram_is_flat_membind0(self):
        c = make_config(ConfigName.DRAM)
        assert c.mcdram.mode is MemoryMode.FLAT
        assert c.numactl == "--membind=0"

    def test_hbm_is_flat_membind1(self):
        c = make_config(ConfigName.HBM)
        assert c.mcdram.mode is MemoryMode.FLAT
        assert c.numactl == "--membind=1"

    def test_cache_is_cache_membind0(self):
        """The paper binds node 0 in cache mode 'for consistency'."""
        c = make_config(ConfigName.CACHE)
        assert c.mcdram.mode is MemoryMode.CACHE
        assert c.numactl == "--membind=0"

    def test_labels_match_figures(self):
        assert make_config(ConfigName.CACHE).label == "Cache Mode"


class TestExtraConfigs:
    def test_hybrid(self):
        c = make_config(ConfigName.HYBRID, hybrid_cache_fraction=0.25)
        assert c.mcdram.mode is MemoryMode.HYBRID
        assert c.mcdram.cache_fraction == 0.25

    def test_interleave(self):
        c = make_config(ConfigName.INTERLEAVE)
        assert c.numactl == "--interleave=0,1"

    def test_associativity_knob(self):
        c = make_config(ConfigName.CACHE, cache_associativity=8)
        assert c.mcdram.cache_associativity == 8

    def test_describe(self):
        assert "membind" in make_config(ConfigName.HBM).describe()
