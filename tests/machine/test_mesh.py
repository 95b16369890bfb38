"""Mesh, tile and topology tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import registry
from repro.machine.mesh import ClusterMode, Mesh2D
from repro.machine.tile import Tile
from repro.machine.presets import knl7210, knl7250
from repro.util.units import MiB
from tests.oracles.mesh import average_hop_distance_permutation


class TestTile:
    def test_build(self):
        t = Tile.build(3, 6)
        assert t.core_ids == (6, 7)
        assert t.l2_capacity_bytes == 1 * MiB

    def test_exactly_two_cores(self):
        t = Tile.build(0, 0)
        with pytest.raises(ValueError):
            Tile(tile_id=0, cores=(t.cores[0],) * 3, l2=t.l2)  # type: ignore[arg-type]

    def test_negative_id(self):
        with pytest.raises(ValueError):
            Tile.build(-1, 0)


def small_mesh(n=4, rows=2, cols=2, mode=ClusterMode.QUADRANT) -> Mesh2D:
    tiles = tuple(Tile.build(i, 2 * i) for i in range(n))
    return Mesh2D(rows=rows, cols=cols, tiles=tiles, cluster_mode=mode)


class TestMesh:
    def test_coordinates_row_major(self):
        m = small_mesh()
        assert m.coordinates(0) == (0, 0)
        assert m.coordinates(1) == (0, 1)
        assert m.coordinates(2) == (1, 0)

    def test_hop_distance_manhattan(self):
        m = small_mesh()
        assert m.hop_distance(0, 3) == 2
        assert m.hop_distance(1, 2) == 2
        assert m.hop_distance(0, 0) == 0

    def test_average_hop_symmetric(self):
        m = small_mesh()
        assert m.average_hop_distance() == pytest.approx(4.0 / 3.0)

    def test_single_tile_average(self):
        m = small_mesh(n=1, rows=1, cols=1)
        assert m.average_hop_distance() == 0.0

    def test_tiles_must_fit(self):
        tiles = tuple(Tile.build(i, 2 * i) for i in range(5))
        with pytest.raises(ValueError):
            Mesh2D(rows=2, cols=2, tiles=tiles)

    def test_quadrant_faster_than_all_to_all(self):
        q = small_mesh(mode=ClusterMode.QUADRANT)
        a = small_mesh(mode=ClusterMode.ALL_TO_ALL)
        assert q.directory_lookup_ns() < a.directory_lookup_ns()

    def test_total_l2(self):
        assert small_mesh().total_l2_bytes == 4 * MiB

    def test_cores_enumeration(self):
        assert len(small_mesh().cores()) == 8

    def test_coordinate_range_checked(self):
        with pytest.raises(ValueError):
            small_mesh().coordinates(10)


class TestClosedFormHopDistance:
    """The closed-form mean hop distance must be *bit-identical* to the
    O(n^2) permutation sum it replaced: both reduce to the same exact
    integer pair-distance total divided by the same pair count."""

    def test_matches_permutation_on_registry_machines(self):
        for key in registry.names():
            mesh = registry.build(key).mesh
            assert (
                mesh.average_hop_distance()
                == average_hop_distance_permutation(mesh)
            ), key

    def test_matches_permutation_with_partial_last_row(self):
        for n in (1, 2, 3, 5, 7, 11):
            mesh = small_mesh(n=n, rows=4, cols=3)
            assert (
                mesh.average_hop_distance()
                == average_hop_distance_permutation(mesh)
            ), n

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_matches_permutation_on_arbitrary_grids(self, rows, cols, data):
        n = data.draw(st.integers(min_value=1, max_value=rows * cols))
        mesh = small_mesh(n=n, rows=rows, cols=cols)
        assert (
            mesh.average_hop_distance()
            == average_hop_distance_permutation(mesh)
        )

    def test_derived_latencies_use_cached_average(self):
        mesh = small_mesh()
        first = mesh.directory_lookup_ns()
        assert "_average_hop_distance" in mesh.__dict__
        assert mesh.directory_lookup_ns() == first
        assert mesh.remote_l2_forward_ns() == mesh.remote_l2_forward_ns()


class TestPresets:
    def test_7210_counts(self):
        m = knl7210()
        assert m.num_cores == 64
        assert m.max_threads == 256
        assert m.mesh.num_tiles == 32
        assert m.total_l2_bytes == 32 * MiB
        assert m.frequency_ghz == pytest.approx(1.3)

    def test_7210_peak_flops(self):
        # 64 cores x 41.6 GF = 2662.4 GF.
        assert knl7210().peak_dp_gflops == pytest.approx(2662.4)

    def test_7250_differs(self):
        m = knl7250()
        assert m.num_cores == 68
        assert m.frequency_ghz == pytest.approx(1.4)

    def test_mesh_l2_sets_fig3_knee(self):
        """'Two mesh L2 cache size' = 64 MB in the paper's Fig. 3 text."""
        assert 2 * knl7210().total_l2_bytes == 64 * MiB

    def test_describe_mentions_key_facts(self):
        text = knl7210().describe()
        assert "64 cores" in text
        assert "quadrant" in text
