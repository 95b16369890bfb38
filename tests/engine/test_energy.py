"""Energy model tests."""

import pytest

from repro.engine.energy import EnergyModel, EnergyParameters
from repro.engine.placement import Location, PlacementMix
from repro.engine.profilephase import AccessPattern, MemoryProfile, Phase
from repro.util.units import GB


def stream_profile(gb=4.0):
    return MemoryProfile(
        "stream",
        (
            Phase(
                "triad",
                AccessPattern.SEQUENTIAL,
                traffic_bytes=gb * GB,
                flops=1e9,
                footprint_bytes=int(gb * GB),
            ),
        ),
    )


@pytest.fixture()
def model():
    return EnergyModel()


class TestEnergyModel:
    def test_hbm_moves_bytes_cheaper(self, model, flat_model):
        prof = stream_profile()
        dram_run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        hbm_run = flat_model.evaluate(prof, PlacementMix.pure(Location.HBM), 64)
        dram_e = model.estimate(prof, dram_run)
        hbm_e = model.estimate(prof, hbm_run)
        assert hbm_e.dynamic_memory_j < dram_e.dynamic_memory_j
        # HBM also finishes faster -> less static energy -> lower total.
        assert hbm_e.total_j < dram_e.total_j

    def test_memory_energy_magnitude(self, model, flat_model):
        """4 GB at 120 pJ/byte = 0.48 J on DDR."""
        prof = stream_profile(4.0)
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        assert estimate.dynamic_memory_j == pytest.approx(0.48, rel=1e-6)

    def test_static_energy_scales_with_time(self, model, flat_model):
        prof = stream_profile()
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        assert estimate.static_j == pytest.approx(215.0 * run.time_s)

    def test_compute_energy(self, model, flat_model):
        prof = stream_profile()
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        assert estimate.dynamic_compute_j == pytest.approx(1e9 * 20e-12)

    def test_edp(self, model, flat_model):
        prof = stream_profile()
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        assert estimate.edp(run.time_s) == pytest.approx(
            estimate.total_j * run.time_s
        )

    def test_cache_mode_pays_probe_energy(self, model, cache_model_pm):
        prof = stream_profile()
        run = cache_model_pm.evaluate(
            prof, PlacementMix.pure(Location.DRAM_CACHED), 64
        )
        estimate = model.estimate(prof, run)
        params = EnergyParameters()
        expected = (
            prof.phases[0].traffic_bytes
            * (params.hbm_pj_per_byte + params.cache_probe_pj_per_byte)
            * 1e-12
        )
        assert estimate.dynamic_memory_j == pytest.approx(expected)

    def test_fine_grained_mapping(self, model, flat_model):
        prof = MemoryProfile(
            "two",
            (
                Phase("a", AccessPattern.SEQUENTIAL, 1 * GB, footprint_bytes=GB),
                Phase("b", AccessPattern.SEQUENTIAL, 1 * GB, footprint_bytes=GB),
            ),
        )
        mixes = {
            "a": PlacementMix.pure(Location.HBM),
            "b": PlacementMix.pure(Location.DRAM),
        }
        run = flat_model.evaluate(prof, mixes, 64)
        estimate = model.estimate(prof, run, mixes)
        params = EnergyParameters()
        expected = (
            1 * GB * params.hbm_pj_per_byte + 1 * GB * params.dram_pj_per_byte
        ) * 1e-12
        assert estimate.dynamic_memory_j == pytest.approx(expected)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EnergyParameters(flop_pj=-1.0)
        with pytest.raises(ValueError):
            EnergyParameters(static_watts=-5.0)

    def test_negative_edp_time_rejected(self, model, flat_model):
        prof = stream_profile()
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        with pytest.raises(ValueError):
            estimate.edp(-1.0)
