import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobeams import antenna as ant
from leobeams import kernels
from leobeams import simulate as sim
from leobeams.codebook import beam_precoder
from leobeams.geometry import direction_to

H = 1.3e6


def _random_case(rng, n_pts, n_beams):
    px = rng.uniform(-5.3e5, 5.3e5, n_pts)
    py = rng.uniform(-1.7e5, 1.7e5, n_pts)
    tx = rng.uniform(-5.3e5, 5.3e5, n_beams)
    ty = rng.uniform(-1.7e5, 1.7e5, n_beams)
    return px, py, tx, ty


def test_kernel_matches_generic_beam_gain():
    # dual route: the separable fast kernel against the direct
    # steering-vector inner product over the full array
    rng = np.random.default_rng(11)
    px, py, tx, ty = _random_case(rng, n_pts=12, n_beams=5)
    geom = ant.satellite_array(5, (12, 24), 0.5)
    fast = kernels.gain_matrix(px, py, tx, ty, H, 12, 24, 0.5)
    for j in range(tx.size):
        pre = beam_precoder(np.array([tx[j], ty[j]]), geom, j, H)
        for i in range(px.size):
            ref = ant.beam_gain(geom, pre, direction_to(px[i], py[i], H))
            assert fast[i, j] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_kernel_own_target_equals_subarray_size():
    rng = np.random.default_rng(4)
    tx = rng.uniform(-5e5, 5e5, 8)
    ty = rng.uniform(-1.6e5, 1.6e5, 8)
    g = kernels.gain_matrix(tx, ty, tx, ty, H, 12, 24, 0.5)
    assert np.diag(g) == pytest.approx(288.0, rel=1e-12)


def test_kernel_rows_are_contiguous_per_beam():
    # the layout guard: the kernel computes beams x points, so the serving
    # reductions walk one contiguous row of points per beam
    rng = np.random.default_rng(2)
    px, py, tx, ty = _random_case(rng, n_pts=50, n_beams=13)
    g = kernels.gain_matrix(px, py, tx, ty, H, 12, 24, 0.5)
    assert g.shape == (50, 13)
    assert g.T.flags.c_contiguous


def test_kernel_handles_near_coincident_directions():
    g = kernels.gain_matrix(np.array([1e-7]), np.array([0.0]),
                            np.array([0.0]), np.array([0.0]),
                            H, 12, 24, 0.5)
    assert g[0, 0] == pytest.approx(288.0, rel=1e-9)



# ---------------------------------------------------------------------------
# angle-addition kernel against the direct formula
# ---------------------------------------------------------------------------

def _direct_gain_matrix(px, py, tx, ty, h_sat, n_x, n_y, spacing):
    """The direct formula, four sines per (point, beam) element: the oracle."""
    rp = np.sqrt(px * px + py * py + h_sat * h_sat)
    rt = np.sqrt(tx * tx + ty * ty + h_sat * h_sat)
    a = np.pi * spacing * ((px / rp)[:, None] - (tx / rt)[None, :])
    b = np.pi * spacing * ((py / rp)[:, None] - (ty / rt)[None, :])

    def dirichlet_sq(a, n):
        s = np.sin(a)
        small = np.abs(s) < kernels._EPS
        ratio = np.sin(n * a) / np.where(small, 1.0, s)
        return np.where(small, float(n) ** 2, ratio * ratio)
    return dirichlet_sq(a, n_x) * dirichlet_sq(b, n_y) / (n_x * n_y)


_U = 8 * np.finfo(float).eps  # a few ulp of 1


def _rounding_bound(px, py, tx, ty, h_sat, n_x, n_y, spacing):
    """Largest |angle addition - direct| the rounding model allows, per element.

    On one axis with a = a_p - a_t and A = |a_p| + |a_t|, each formula gets
    sin a to within U (1 + A) and sin(n a) to within U (1 + n A) absolute:
    the arguments carry a few relative roundings of terms of size A (n A),
    and the sines, products and difference add a few ulp of 1. As
    |sin(n a) / sin a| <= n, D = (sin n a / sin a)^2 then moves by at most
    4 n^2 U (1 + A) / |sin a| to first order, per formula. Below _EPS both
    formulas return the limit n^2, so |sin a| is floored there. The gain is
    Dx Dy / (n_x n_y), so relative to the peak n_x n_y the two axes add,
    plus their product and a few ulp for the final multiply and divide.
    """
    rp = np.sqrt(px * px + py * py + h_sat * h_sat)
    rt = np.sqrt(tx * tx + ty * ty + h_sat * h_sat)
    k = np.pi * spacing

    def rel(p, t):
        a = k * (p[:, None] - t[None, :])
        big_a = k * (np.abs(p)[:, None] + np.abs(t)[None, :])
        sin_a = np.maximum(np.abs(np.sin(a)), kernels._EPS)
        return 2 * 4 * _U * (1 + big_a) / sin_a  # two formulas
    rx, ry = rel(px / rp, tx / rt), rel(py / rp, ty / rt)
    return n_x * n_y * (rx + ry + rx * ry + 4 * np.finfo(float).eps)


def _from_cosines(u, v, h_sat):
    w = np.sqrt(1.0 - u * u - v * v)
    return u * h_sat / w, v * h_sat / w


@st.composite
def _kernel_case(draw):
    """Random beams plus one point placed against beam j: on its target, at
    10^-3..10^5 m from it, on a Dirichlet null of the x factor, or next to a
    grating lobe (|a| ~ pi). Three random points ride along in every case."""
    kind = draw(st.sampled_from(["target", "offset", "null", "grating"]))
    n_x = draw(st.integers(2 if kind == "null" else 1, 32))
    n_y = draw(st.integers(1, 32))
    spacing = draw(st.floats(0.6 if kind == "grating" else 0.5, 1.0))
    h_sat = draw(st.floats(3e5, 2e6))
    n_beams = draw(st.integers(1, 6))
    cos = st.lists(st.floats(-0.6, 0.6), min_size=n_beams + 3,
                   max_size=n_beams + 3)
    small = st.lists(st.floats(-0.2, 0.2), min_size=n_beams + 3,
                     max_size=n_beams + 3)
    u, v = np.array(draw(cos)), np.array(draw(small))
    ut, vt, up, vp = u[:n_beams], v[:n_beams], u[n_beams:], v[n_beams:]
    j = draw(st.integers(0, n_beams - 1))
    if kind in ("null", "grating"):
        # direction cosines d apart on x, so a = pi spacing d
        if kind == "null":  # a = m pi / n_x, m not a multiple of n_x
            m = draw(st.integers(1, int(1.6 * n_x * spacing)).filter(
                lambda m: m % n_x))
            d = m / (n_x * spacing)
        else:  # a = pi (1 - delta): the grating lobe
            delta = draw(st.sampled_from([0.0]) | st.floats(1e-12, 1e-2))
            d = (1 - delta) / spacing
        d *= draw(st.sampled_from([-1.0, 1.0]))
        c = draw(st.floats(-0.05, 0.05))
        ut[j], u_new = c - d / 2, c + d / 2
        v_new = vt[j] + draw(st.floats(-0.2, 0.2))
    tx, ty = _from_cosines(ut, vt, h_sat)
    px, py = _from_cosines(up, vp, h_sat)
    if kind == "target":
        x0, y0 = tx[j], ty[j]
    elif kind == "offset":
        r = 10.0 ** draw(st.floats(-3, 5))
        th = draw(st.floats(0, 2 * np.pi))
        x0, y0 = tx[j] + r * np.cos(th), ty[j] + r * np.sin(th)
    else:
        x0, y0 = _from_cosines(u_new, v_new, h_sat)
    px, py = np.append(px, x0), np.append(py, y0)
    return kind, j, (px, py, tx, ty, h_sat, n_x, n_y, spacing)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_kernel_case())
def test_kernel_within_rounding_bound_of_direct_formula(case):
    kind, j, args = case
    fast = kernels.gain_matrix(*args)
    ref = _direct_gain_matrix(*args)
    tol = _rounding_bound(*args)
    assert np.all(np.abs(fast - ref) <= tol)
    if kind == "target":  # sin a = 0 on both axes: the exact limit, bit for bit
        assert fast[-1, j] == ref[-1, j] == args[5] * args[6]
    # the serving choice: a row's argmax may differ only between gains the
    # rounding bound cannot order
    peak = args[5] * args[6]
    rows = np.flatnonzero(ref.max(axis=1) > 1e-3 * peak)
    kf, kr = fast.argmax(axis=1)[rows], ref.argmax(axis=1)[rows]
    gap = ref[rows, kr] - ref[rows, kf]
    assert np.all((kf == kr) | (gap <= tol[rows, kr] + tol[rows, kf]))


# ---------------------------------------------------------------------------
# mirror symmetry about y = 0 and x = 0
# ---------------------------------------------------------------------------

def _matching(tx, ty, to_x, to_y):
    """P with (to_x[P[j]], to_y[P[j]]) == (tx[j], ty[j]) exactly, matched by
    value; +0.0 and -0.0 compare equal."""
    where = {t: i for i, t in enumerate(zip(to_x.tolist(), to_y.tolist()))}
    return np.array([where[t] for t in zip(tx.tolist(), ty.tolist())])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_kernel_case(), st.lists(st.sampled_from([0.0, -0.0]), min_size=1,
                                max_size=4), st.booleans())
def test_kernel_is_odd_symmetric_in_y(case, zeros, zero_target):
    # np.sin is odd and np.cos even, and IEEE negation commutes with every
    # rounding, so negating py and ty together leaves each gain bit for bit;
    # points sit on beam targets (the _EPS branch) and on y = +0.0 and -0.0
    _, _, (px, py, tx, ty, h_sat, n_x, n_y, spacing) = case
    if zero_target:
        ty = ty.copy()
        ty[0] = zeros[0]
    zeros = np.array(zeros)
    px = np.concatenate([px, tx, np.resize(tx, zeros.size)])
    py = np.concatenate([py, ty, zeros])
    rest = (h_sat, n_x, n_y, spacing)
    g = kernels.gain_matrix(px, py, tx, ty, *rest)
    assert g.tobytes() == kernels.gain_matrix(px, -py, tx, -ty, *rest).tobytes()
    # on a beam set closed under y -> -y, the mirrored points see the same
    # gains with the beams permuted by the mirror order M
    tx2, ty2 = np.concatenate([tx, tx]), np.concatenate([ty, -ty])
    m = _matching(tx2, -ty2, tx2, ty2)
    up = kernels.gain_matrix(px, py, tx2, ty2, *rest)
    down = kernels.gain_matrix(px, -py, tx2, ty2, *rest)
    assert np.ascontiguousarray(up[:, m]).tobytes() == down.tobytes()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_kernel_case(), st.lists(st.sampled_from([0.0, -0.0]), min_size=1,
                                max_size=4), st.booleans())
def test_kernel_is_odd_symmetric_in_x(case, zeros, zero_target):
    # the same holds on the x axis: negating px and tx together leaves each
    # gain bit for bit; points sit on beam targets and on x = +0.0 and -0.0,
    # and a target may sit on x = +0.0 or -0.0
    _, _, (px, py, tx, ty, h_sat, n_x, n_y, spacing) = case
    if zero_target:
        tx = tx.copy()
        tx[0] = zeros[0]
    zeros = np.array(zeros)
    px = np.concatenate([px, tx, zeros])
    py = np.concatenate([py, ty, np.resize(ty, zeros.size)])
    rest = (h_sat, n_x, n_y, spacing)
    g = kernels.gain_matrix(px, py, tx, ty, *rest)
    assert g.tobytes() == kernels.gain_matrix(-px, py, -tx, ty, *rest).tobytes()
    # on a beam set closed under x -> -x, the x-mirrored points see the same
    # gains with the beams permuted by the x-mirror order X
    tx2, ty2 = np.concatenate([tx, -tx]), np.concatenate([ty, ty])
    x = _matching(-tx2, ty2, tx2, ty2)
    right = kernels.gain_matrix(px, py, tx2, ty2, *rest)
    left = kernels.gain_matrix(-px, py, tx2, ty2, *rest)
    assert np.ascontiguousarray(right[:, x]).tobytes() == left.tobytes()


# ---------------------------------------------------------------------------
# one axis factor per distinct direction cosine, against one per row
# ---------------------------------------------------------------------------

def _per_row_gain_matrix(px, py, tx, ty, h_sat, n_x, n_y, spacing):
    """The kernel with both Dirichlet factors evaluated once per row, in the
    same float operations: the oracle for the shared factors, bit for bit."""
    px, py, tx, ty = (np.asarray(a, dtype=float) for a in (px, py, tx, ty))
    rp = np.sqrt(px * px + py * py + h_sat * h_sat)
    rt = np.sqrt(tx * tx + ty * ty + h_sat * h_sat)
    k = np.pi * spacing

    def sin_diff(u, v):
        s = np.multiply.outer(np.cos(v), np.sin(u))
        s -= np.multiply.outer(np.sin(v), np.cos(u))
        return s

    def dirichlet_sq(ap, at, n):
        s = sin_diff(ap, at)
        small = np.abs(s) < kernels._EPS
        s[small] = 1.0
        ratio = sin_diff(n * ap, n * at)
        ratio /= s
        ratio *= ratio
        ratio[small] = float(n) ** 2
        return ratio
    g = dirichlet_sq(k * (px / rp), k * (tx / rt), n_x)
    g *= dirichlet_sq(k * (py / rp), k * (ty / rt), n_y)
    g /= n_x * n_y
    return g.T


def _assert_same_bits(args):
    fast = kernels.gain_matrix(*args)
    ref = _per_row_gain_matrix(*args)
    assert fast.shape == ref.shape and fast.T.flags.c_contiguous
    assert fast.tobytes() == ref.tobytes()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_kernel_case(), st.sampled_from([0.0, -0.0]),
       st.sampled_from([0.0, -0.0]), st.booleans())
def test_shared_axis_factors_match_per_row_kernel_bit_for_bit(case, zx, zy,
                                                              single):
    # the rows _serve_plan hands the kernel: every beam with its y-, x- and
    # xy-mirror, and targets on x = +0.0 / -0.0 and y = +0.0 / -0.0 in the
    # same call; points sit on every target (the _EPS branch) and on the
    # axes, so +0.0 and -0.0 cosines share one factor
    _, _, (px, py, tx, ty, *rest) = case
    if single:
        tx, ty = tx[:1], ty[:1]
    else:
        tx = np.concatenate([tx, tx, -tx, -tx, [zx, -zx, tx[0], tx[0]]])
        ty = np.concatenate([ty, -ty, ty, -ty, [ty[0], ty[0], zy, -zy]])
    px = np.concatenate([px, tx, [zx, -zx, px[0]]])
    py = np.concatenate([py, ty, [py[0], py[0], zy]])
    _assert_same_bits((px, py, tx, ty, *rest))


@pytest.mark.parametrize("n_pts, n_rows", [(0, 0), (0, 3), (5, 0), (1, 1)])
def test_shared_axis_factors_keep_empty_and_single_shapes(n_pts, n_rows):
    rng = np.random.default_rng(7)
    px, py, tx, ty = _random_case(rng, n_pts, n_rows)
    _assert_same_bits((px, py, tx, ty, H, 12, 24, 0.5))
    assert kernels.gain_matrix(px, py, tx, ty, H, 12, 24, 0.5).shape == (
        n_pts, n_rows)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_kernel_case(), st.sampled_from([0.0, -0.0]),
       st.sampled_from([0.0, -0.0]), st.integers(-12, 12),
       st.integers(-12, 12), st.sampled_from([1, 2, 3, -1, -2]))
def test_kernel_on_sliced_point_terms_matches_sliced_points(case, zx, zy,
                                                            start, stop, step):
    # each column of point_terms is its own point's, so any slice of a
    # larger call's terms gives the sliced points' gains bit for bit; points
    # sit on every target (the _EPS branch) and on x and y = +0.0 and -0.0
    _, _, (px, py, tx, ty, *rest) = case
    px = np.concatenate([px, tx, [zx, -zx, px[0], px[0]]])
    py = np.concatenate([py, ty, [py[0], py[0], zy, -zy]])
    terms = kernels.point_terms(px, py, *rest)
    assert terms.shape == (8, px.size)
    s = slice(start, stop, step)
    want = kernels.gain_matrix(px[s], py[s], tx, ty, *rest)
    got = kernels.gain_matrix(px[s], py[s], tx, ty, *rest, terms[:, s])
    assert got.shape == want.shape and got.T.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == _per_row_gain_matrix(px[s], py[s], tx, ty,
                                                 *rest).tobytes()


def _served_kernel_calls(monkeypatch, serve_whole, scene, mode, g, px, py):
    """Per kernel call of serving iteration g on all four sides (h = g) at
    (px, py): its first eight arguments and the number of cosines each axis
    factor was evaluated at, x then y. The ninth, the point terms, must be
    exactly the `point_terms` of the call's points."""
    calls, kernel, factor = [], sim.gain_matrix, kernels._dirichlet_sq

    def kernel_probe(*args):
        head, (terms,) = args[:8], args[8:]
        want = kernels.point_terms(*head[:2], *head[4:])
        assert terms.shape == want.shape and terms.tobytes() == want.tobytes()
        calls.append((head, []))
        return kernel(*args)

    def factor_probe(p, at, n):
        calls[-1][1].append(at.size)
        return factor(p, at, n)
    monkeypatch.setattr(sim, "gain_matrix", kernel_probe)
    monkeypatch.setattr(kernels, "_dirichlet_sq", factor_probe)
    serve_whole(scene, px, py, sim.codebook_for(scene, mode), g, g)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("mode, g, rows, n_cos", [
    ("hex", 0, 13, [9, 5]), ("hex", 1, 20, [14, 7]), ("hex", 2, 10, [7, 5]),
    ("hex", 3, 20, [14, 7]), ("dft", 0, 15, [9, 7])])
def test_served_calls_share_axis_factors(scene, monkeypatch, serve_whole,
                                         mode, g, rows, n_cos):
    # the default scene's mirrored calls, rows as _serve_plan builds them:
    # each axis factor is evaluated once per distinct cosine, not once per
    # row, and every gain keeps the per-row kernel's bits
    xs = np.arange(-5.5e5, 5.6e5, 2.5e4)
    ys = np.arange(0.0, 1.9e5, 2.5e4)
    px, py = (a.ravel() for a in np.meshgrid(xs, ys))
    calls = _served_kernel_calls(monkeypatch, serve_whole, scene, mode, g,
                                 px, py)
    assert len(calls) == 1
    (args, evaluated), = calls
    assert args[2].size == rows
    assert evaluated == n_cos
    _assert_same_bits(args)
    targets = sim.codebook_for(scene, mode).snapshot(g)[0]
    _assert_same_bits((targets[:, 0], targets[:, 1], *args[2:]))
