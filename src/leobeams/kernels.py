"""Hot numeric kernel: beam-gain matrices over point grids.

For a UPA sub-array the array-factor power separates into two Dirichlet
factors, one per axis, driven only by the direction-cosine offsets between
the evaluation point and the beam target. Sub-array placement adds a global
phase that power ignores, and planar arrays have no z term, so this kernel
is exact for the full panel.

The offset angle a = a_p - a_t splits into a per-point and a per-beam part,
so angle addition, sin(a_p - a_t) = sin a_p cos a_t - cos a_p sin a_t (and
the same for n a), takes every sin and cos once per point on each axis and
once per distinct beam cosine a_t. The per-point half, sin and cos of a_p
and of n a_p on each axis, is `point_terms`, 8 values per point whose
columns are independent: the simulator's one slice loop computes them once
per slice of points and hands them to each call on that slice, one per beam
set, and the kernel computes them itself when given none. A beam's x factor
depends on it only through its x cosine tx / rt, and its y factor only
through ty / rt, so each axis factor is evaluated once per distinct cosine
and shared by every row that has it: the mirrored rows of a call, (tx,
+-ty) on x and (+-tx, ty) on y, have equal radii and so equal cosines bit
for bit. A row is then one product of its two factors, and the point-beam
matrix sees only multiplies and adds. The difference of products carries a
rounding error of a few ulp of 1, so the Dirichlet ratio's relative error
grows as 1 / |sin a| where sin a -> 0: at the beam's own target (below _EPS
the exact limit n^2 is used) and at its grating lobes |a| -> pi. Relative
to the peak gain it stays within a few ulp / |sin a| on each axis.

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


def point_terms(px, py, h_sat, n_x, n_y, spacing):
    """The per-point half of the angle addition: shape (8, n_points), the
    rows sin a_p, cos a_p, sin(n_x a_p), cos(n_x a_p) of the x-axis angle
    a_p = pi spacing px / r_p, then the same four of the y-axis angle with
    n_y. Every column depends on its own point only, so a slice of the
    columns is the terms of the sliced points, bit for bit.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    rp = np.sqrt(px * px + py * py + h_sat * h_sat)
    k = np.pi * spacing
    terms = np.empty((8,) + px.shape)
    for p, n, out in ((px, n_x, terms[:4]), (py, n_y, terms[4:])):
        ap = k * (p / rp)
        np.sin(ap, out=out[0])
        np.cos(ap, out=out[1])
        ap *= n
        np.sin(ap, out=out[2])
        np.cos(ap, out=out[3])
    return terms


def gain_matrix(px, py, tx, ty, h_sat, n_x, n_y, spacing, terms=None):
    """Gain of every beam toward every point, vectorized in numpy.

    px, py: satellite-frame point coordinates [m], shape (n_points,).
    tx, ty: beam target coordinates [m], shape (n_beams,).
    terms: optionally `point_terms` of (px, py) with the same h_sat, n_x,
    n_y and spacing, or any column slice of a larger call's, so that callers
    serving several beam sets at the same points take the point trig once.
    Returns shape (n_points, n_beams), values in [0, n_x * n_y]: the
    transpose of a C-ordered (n_beams, n_points) array, whose `.T` has one
    contiguous row per beam.

    Each axis factor is evaluated once per distinct direction cosine and a
    row is the product of its x and y factors, so every gain is the bits a
    factor pair evaluated for that row alone would give: equal cosines give
    equal factors, and a +0.0 and a -0.0 cosine differ at most in the sign
    of a zero sine difference, which the _EPS branch maps to the same limit.
    """
    if terms is None:
        terms = point_terms(px, py, h_sat, n_x, n_y, spacing)
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    rt = np.sqrt(tx * tx + ty * ty + h_sat * h_sat)
    k = np.pi * spacing
    ux, ix = _distinct(k * (tx / rt))
    uy, iy = _distinct(k * (ty / rt))
    fx = _dirichlet_sq(terms[:4], ux, n_x)
    fy = _dirichlet_sq(terms[4:], uy, n_y)
    g = np.empty((tx.size, terms.shape[1]))
    for row, i, j in zip(g, ix, iy):
        np.multiply(fx[i], fy[j], out=row)
    g /= n_x * n_y
    return g.T


def _distinct(a):
    """The distinct values of a (+0.0 and -0.0 are one) and, for each entry,
    its index among them. A dict over a short list: a call has at most a few
    dozen rows, often one, where np.unique's sort costs more."""
    where = {}
    index = [where.setdefault(v, len(where)) for v in a.tolist()]
    return np.array(list(where)), index


def _sin_diff(sin_u, cos_u, v):
    """sin(u[None, :] - v[:, None]) by angle addition from the sines and
    cosines of u: one row per v."""
    s = np.multiply.outer(np.cos(v), sin_u)
    s -= np.multiply.outer(np.sin(v), cos_u)
    return s


def _dirichlet_sq(p, at, n):
    """(sin(n a) / sin a)^2 at a = ap[None, :] - at[:, None], shape
    (at.size, ap.size), from p, one axis's four `point_terms` rows of ap;
    n^2 where sin a ~ 0."""
    s = _sin_diff(p[0], p[1], at)
    small = np.abs(s) < _EPS
    s[small] = 1.0
    ratio = _sin_diff(p[2], p[3], n * at)
    ratio /= s
    ratio *= ratio
    ratio[small] = float(n) ** 2
    return ratio
