"""Hot numeric kernel: beam-gain matrices over point grids.

For a UPA sub-array the array-factor power separates into two Dirichlet
factors, one per axis, driven only by the direction-cosine offsets between
the evaluation point and the beam target. Sub-array placement adds a global
phase that power ignores, and planar arrays have no z term, so this kernel
is exact for the full panel.

The offset angle a = a_p - a_t splits into a per-point and a per-beam part,
so angle addition, sin(a_p - a_t) = sin a_p cos a_t - cos a_p sin a_t (and
the same for n a), takes every sin and cos once per point and once per beam
on each axis; the point-beam matrix sees only multiplies and adds. The
difference of products carries a rounding error of a few ulp of 1, so the
Dirichlet ratio's relative error grows as 1 / |sin a| where sin a -> 0: at
the beam's own target (below _EPS the exact limit n^2 is used) and at its
grating lobes |a| -> pi. Relative to the peak gain it stays within a few
ulp / |sin a| on each axis.

The matrix is computed as a C-ordered (beams x points) array and returned
as its (points x beams) transpose. A scene has 10 to 15 beams and thousands
of points per call, so in this layout every elementwise pass, and the
serving-beam reduction over beams, runs along rows of thousands of
contiguous values instead of rows of 10 to 15. Multiplication commutes in
IEEE arithmetic, so every value is bit-identical to the other layout's.

The kernel is odd-symmetric in x and in y: negating py and ty together
negates every y-axis angle exactly (and px and tx every x-axis angle; the
radii see only squares), np.sin is odd and np.cos even, and IEEE rounding
commutes with negation, so each sine difference flips sign bit for bit and
its square, and so the gain, is unchanged. With points or targets on an
axis (+0.0 or -0.0) the differences of equal terms may differ only in the
sign of a zero, which the _EPS branch maps to the same limit.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def gain_matrix(px, py, tx, ty, h_sat, n_x, n_y, spacing):
    """Gain of every beam toward every point, vectorized in numpy.

    px, py: satellite-frame point coordinates [m], shape (n_points,).
    tx, ty: beam target coordinates [m], shape (n_beams,).
    Returns shape (n_points, n_beams), values in [0, n_x * n_y]: the
    transpose of a C-ordered (n_beams, n_points) array, whose `.T` has one
    contiguous row per beam.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    rp = np.sqrt(px * px + py * py + h_sat * h_sat)
    rt = np.sqrt(tx * tx + ty * ty + h_sat * h_sat)
    k = np.pi * spacing
    g = _dirichlet_sq(k * (px / rp), k * (tx / rt), n_x)
    g *= _dirichlet_sq(k * (py / rp), k * (ty / rt), n_y)
    g /= n_x * n_y
    return g.T


def _sin_diff(u, v):
    """sin(u[None, :] - v[:, None]) by angle addition: one row per v."""
    s = np.multiply.outer(np.cos(v), np.sin(u))
    s -= np.multiply.outer(np.sin(v), np.cos(u))
    return s


def _dirichlet_sq(ap, at, n):
    """(sin(n a) / sin a)^2 at a = ap[None, :] - at[:, None], shape
    (at.size, ap.size); n^2 where sin a ~ 0."""
    s = _sin_diff(ap, at)
    small = np.abs(s) < _EPS
    s[small] = 1.0
    ratio = _sin_diff(n * ap, n * at)
    ratio /= s
    ratio *= ratio
    ratio[small] = float(n) ** 2
    return ratio
