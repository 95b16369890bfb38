"""Mesh hop-distance oracle."""

from __future__ import annotations

import itertools

from repro.machine.mesh import Mesh2D


def average_hop_distance_permutation(mesh: Mesh2D) -> float:
    """Mean hop distance as the O(n²) sum over ordered tile pairs.

    :meth:`Mesh2D.average_hop_distance` computes the same mean in closed
    form and must match this bit for bit.
    """
    n = len(mesh.tiles)
    if n == 1:
        return 0.0
    total = sum(
        mesh.hop_distance(a, b) for a, b in itertools.permutations(range(n), 2)
    )
    return total / (n * (n - 1))
