"""Monotone piecewise-cubic Hermite interpolation (PCHIP).

:class:`Pchip` is the shape-preserving cubic of Fritsch & Carlson as
scipy implements it (``scipy.interpolate.PchipInterpolator`` with
``extrapolate=False``), reproduced operation for operation so that both
return the same IEEE double for every input:

* **Construction** follows scipy's ``PchipInterpolator._find_derivatives``
  (weighted harmonic mean of the neighbouring slopes at interior knots,
  zero where the slopes change sign or vanish), ``_edge_case`` (the
  one-sided three-point endpoint estimate with its shape guard) and the
  per-interval coefficients of ``CubicHermiteSpline``.  It runs once per
  knot set on numpy arrays, in the same float-operation order.
* **Evaluation** follows ``PPoly``: the interval is ``x[i] <= v < x[i+1]``,
  closed on the right at the last knot; outside the knots (and for NaN)
  the answer is NaN; inside it is the Horner-free power sum
  ``0.0 + y_i``, ``+ d_i*s``, ``+ c2_i*s**2``, ``+ c3_i*s**3`` with
  ``s = v - x[i]`` and the powers built by repeated multiplication.

``tests/util/test_pchip.py`` holds scipy as the oracle and pins the
identity bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np


def _edge_case(
    h0: np.ndarray, h1: np.ndarray, m0: np.ndarray, m1: np.ndarray
) -> np.ndarray:
    """End-knot derivatives: a one-sided three-point estimate, zeroed
    when it points against the end slope and capped at three times that
    slope when the data turn (Moler, *Numerical Computing with MATLAB*,
    ``pchiptx``)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    mask = np.sign(d) != np.sign(m0)
    mask2 = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    mmm = (~mask) & mask2
    d[mask] = 0.0
    d[mmm] = 3.0 * m0[mmm]
    return d


def _derivatives(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot derivatives from interval widths ``h`` and slopes ``m``."""
    n = len(h) + 1
    if n == 2:
        # Two knots: the straight line through them.
        return np.array([m[0], m[0]])
    smk = np.sign(m)
    condition = (smk[1:] != smk[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # Divisions by a zero slope are discarded by ``condition``; a slope
    # so small that ``w / m`` overflows gives the derivative 1/inf = 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros(n)
    d[1:-1][~condition] = 1.0 / whmean[~condition]
    ends = _edge_case(h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]])
    d[0], d[-1] = ends
    return d


class Pchip:
    """The PCHIP interpolant through knots ``x`` (finite, strictly
    increasing, at least two) and values ``y`` (finite); NaN outside
    ``[x[0], x[-1]]``.

    Call it with one number for a float, or use :meth:`many` for a
    column; both give the same bits per element.
    """

    __slots__ = ("_knots", "_pieces", "_x", "_coefs")

    def __init__(self, x: Sequence[float], y: Sequence[float]) -> None:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError(
                f"x and y must be 1-D of one length, got shapes {x.shape} "
                f"and {y.shape}"
            )
        if len(x) < 2:
            raise ValueError(f"need at least 2 knots, got {len(x)}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("knots and values must be finite")
        h = np.diff(x)
        if (h <= 0).any():
            raise ValueError("knots must be strictly increasing")
        m = np.diff(y) / h
        d = _derivatives(h, m)
        # CubicHermiteSpline's coefficients, highest power first there;
        # here stored lowest first.  ``0.0 + y`` is PPoly's running sum
        # starting from 0.0 (it turns a -0.0 value into +0.0).
        t = (d[:-1] + d[1:] - 2 * m) / h
        coefs = (0.0 + y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)
        self._x = x
        self._coefs = coefs
        self._knots = x.tolist()
        self._pieces = list(
            zip(x[:-1].tolist(), *(c.tolist() for c in coefs))
        )

    def __call__(self, v: float) -> float:
        knots = self._knots
        if not knots[0] <= v <= knots[-1]:
            return math.nan
        i = bisect_right(knots, v) - 1
        if i == len(self._pieces):
            i -= 1  # v is the last knot: the last interval is closed
        x0, c0, c1, c2, c3 = self._pieces[i]
        s = v - x0
        res = c0 + c1 * s
        z = s * s
        res = res + c2 * z
        z = z * s
        return res + c3 * z

    def many(self, v: np.ndarray) -> np.ndarray:
        """Columnar twin of :meth:`__call__`: per element the same bits."""
        x = self._x
        v = np.asarray(v, dtype=np.float64)
        inside = (v >= x[0]) & (v <= x[-1])
        v = np.where(inside, v, x[0])
        i = np.minimum(np.searchsorted(x, v, side="right") - 1, len(x) - 2)
        c0, c1, c2, c3 = (c[i] for c in self._coefs)
        s = v - x[i]
        res = c0 + c1 * s
        z = s * s
        res = res + c2 * z
        z = z * s
        res = res + c3 * z
        return np.where(inside, res, np.nan)
