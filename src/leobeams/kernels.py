"""Hot numeric kernel: beam-gain matrices over point grids.

For a UPA sub-array the array-factor power separates into two Dirichlet
factors, one per axis, driven only by the direction-cosine offsets between
the evaluation point and the beam target. Sub-array placement adds a global
phase that power ignores, and planar arrays have no z term, so this kernel
is exact for the full panel.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def gain_matrix(px, py, tx, ty, h_sat, n_x, n_y, spacing):
    """Gain of every beam toward every point, vectorized in numpy.

    px, py: satellite-frame point coordinates [m], shape (n_points,).
    tx, ty: beam target coordinates [m], shape (n_beams,).
    Returns shape (n_points, n_beams), values in [0, n_x * n_y].
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    rp = np.sqrt(px * px + py * py + h_sat * h_sat)
    rt = np.sqrt(tx * tx + ty * ty + h_sat * h_sat)
    dvx = (px / rp)[:, None] - (tx / rt)[None, :]
    dvy = (py / rp)[:, None] - (ty / rt)[None, :]
    a = np.pi * spacing * dvx
    b = np.pi * spacing * dvy
    return _dirichlet_sq(a, n_x) * _dirichlet_sq(b, n_y) / (n_x * n_y)


def _dirichlet_sq(a, n):
    s = np.sin(a)
    small = np.abs(s) < _EPS
    ratio = np.sin(n * a) / np.where(small, 1.0, s)
    return np.where(small, float(n) ** 2, ratio * ratio)
