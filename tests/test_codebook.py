import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobeams import codebook as cb
from leobeams.antenna import beam_gain, satellite_array
from leobeams.geometry import (EARTH_RADIUS, Roi, angular_speed, direction_to,
                               ground_track_speed)
from leobeams.simulate import _mirror_order

H = 1.3e6
RX, RY = 534.1e3, 170.5e3


@pytest.fixture(scope="module")
def spec():
    return cb.make_lattice_spec(H, 1.4, (12, 24), 4, ground_track_speed(H))


@pytest.fixture(scope="module")
def roi():
    return Roi(RX, RY)


def _oracle_counts(c_x, c_y, cycle_len):
    """Brute-force lattice enumeration, written independently of the package."""
    counts = []
    for k in range(cycle_len):
        n = 0
        for i in range(-6, 7):
            for j in range(-6, 7):
                cands = [(c_x * (i - k / cycle_len), math.sqrt(3) * c_y * j),
                         (c_x * (i + 0.5 - k / cycle_len),
                          math.sqrt(3) * c_y * (j + 0.5))]
                for x, y in cands:
                    if (x / RX) ** 2 + (y / RY) ** 2 <= 1 + 1e-9:
                        n += 1
        counts.append(n)
    return counts


def test_lattice_scaling_oracle():
    c_x, c_y = cb.lattice_scaling(H, 1.4, (12, 24))
    assert c_x == pytest.approx(math.pi * H / (1.4 * 12), rel=1e-12)
    assert c_y == pytest.approx(math.pi * H / (1.4 * 24), rel=1e-12)
    assert c_x == pytest.approx(243099.4, abs=0.5)
    assert c_y == pytest.approx(121549.7, abs=0.5)


def test_cycle_period_oracles(spec):
    vg = ground_track_speed(H)
    assert spec.t_c == pytest.approx(spec.c_x / (4 * vg), rel=1e-12)
    assert spec.t_c == pytest.approx(10.1518, abs=2e-4)
    one = cb.make_lattice_spec(H, 1.4, (12, 24), 1, vg)
    assert one.t_c == pytest.approx(40.607, abs=1e-3)
    # the closed form pi h / (L w R_e O n_x): the lattice advances one x
    # period per full cycle of L updates
    direct = math.pi * H / (4 * angular_speed(H) * EARTH_RADIUS * 1.4 * 12)
    assert direct == pytest.approx(spec.t_c, rel=1e-12)


def test_iteration_counts_match_enumeration_oracle(spec, roi):
    oracle = _oracle_counts(spec.c_x, spec.c_y, 4)
    assert oracle == [13, 10, 10, 10]
    got = [len(cb.iteration_lattice(k, spec, roi)) for k in range(4)]
    assert got == oracle


def test_iteration_lattice_is_k_periodic(spec, roi):
    for k in range(4):
        a = cb.iteration_lattice(k, spec, roi)
        b = cb.iteration_lattice(k + 4, spec, roi)
        assert np.array_equal(a, b)


def test_iteration_lattice_rejects_negative(spec, roi):
    with pytest.raises(ValueError):
        cb.iteration_lattice(-1, spec, roi)


def test_sort_key_example(spec):
    c_x, c_y = spec.c_x, spec.c_y
    pts = np.array([[0.0, 0.0],
                    [-c_x, 0.0],
                    [c_x / 2, math.sqrt(3) * c_y / 2]])
    ordered = cb._sorted_yx(pts)
    assert ordered[0] == pytest.approx([-c_x, 0.0])
    assert ordered[1] == pytest.approx([0.0, 0.0])
    assert ordered[2] == pytest.approx([c_x / 2, math.sqrt(3) * c_y / 2])


def test_eventually_active_points(spec, roi):
    pts = cb.eventually_active_points(spec, roi)
    assert len(pts) == 13
    # sorted by (y, x)
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    assert np.array_equal(order, np.arange(13))
    # every active point of every iteration, shifted back to the base
    # lattice, appears in the labeled set
    for k in range(4):
        for p in cb.iteration_lattice(k, spec, roi):
            shifted = p + np.array([k * spec.c_x / 4, 0.0])
            d = np.min(np.hypot(pts[:, 0] - shifted[0], pts[:, 1] - shifted[1]))
            assert d < 1e-6


def test_point_roi_yields_single_label(spec):
    pts = cb.eventually_active_points(spec, Roi(1.0, 1.0))
    assert len(pts) == 1
    assert pts[0] == pytest.approx([0.0, 0.0], abs=1e-9)


@pytest.fixture(scope="module")
def cycle(spec, roi):
    geom = satellite_array(13, (12, 24), 0.5)
    return cb.build_cycle(geom, spec, roi)


def test_build_cycle_structure(cycle):
    assert cycle.n_beams == 13
    assert [len(it) for it in cycle.iterations] == [13, 10, 10, 10]
    for beams in cycle.iterations:
        ids = [b.beam_id for b in beams]
        assert ids == sorted(ids)
        assert [b.rf_chain for b in beams] == list(range(len(beams)))
        assert len(set(ids)) == len(ids)


def test_beam_ids_advance_per_cycle(cycle):
    base = cycle.beam_ids(1)
    assert np.array_equal(cycle.beam_ids(5), (base + 1) % 13)
    assert np.array_equal(cycle.beam_ids(9), (base + 2) % 13)
    assert np.array_equal(cycle.beam_ids(-3), (base - 1) % 13)


def test_node_keeps_id_one_cycle_later(cycle, spec):
    # ground node at the base lattice origin, observed at iteration 0 and a
    # full cycle later: by then it has drifted one x period in the satellite
    # frame and must carry the same stable ID
    t0 = cycle.targets(0)
    col0 = int(np.argmin(np.hypot(t0[:, 0], t0[:, 1])))
    assert t0[col0] == pytest.approx([0.0, 0.0], abs=1e-6)
    id0 = cycle.beam_ids(0)[col0]
    col4 = int(np.argmin(np.hypot(t0[:, 0] + spec.c_x, t0[:, 1])))
    assert t0[col4] == pytest.approx([-spec.c_x, 0.0], abs=1e-6)
    assert cycle.beam_ids(4)[col4] == id0


def test_precoders_point_at_targets(cycle):
    geom = satellite_array(13, (12, 24), 0.5)
    for b in cycle.iterations[2]:
        v = direction_to(b.target[0], b.target[1], H)
        pre = cb.beam_precoder(b.target, geom, b.rf_chain, H)
        assert beam_gain(geom, pre, v) == pytest.approx(288.0, rel=1e-9)


def test_overflow_names_offending_iteration(spec, roi):
    geom = satellite_array(9, (12, 24), 0.5)
    with pytest.raises(ValueError, match=r"iteration 0.*13.*9"):
        cb.build_cycle(geom, spec, roi)


def test_single_iteration_cycle_matches_initial(roi):
    vg = ground_track_speed(H)
    one = cb.make_lattice_spec(H, 1.4, (12, 24), 1, vg)
    geom = satellite_array(13, (12, 24), 0.5)
    cyc = cb.build_cycle(geom, one, roi)
    assert len(cyc.iterations) == 1
    assert np.array_equal(cyc.targets(0), cb.iteration_lattice(0, one, roi))


def _two_sub_lattices(spec, roi, i_hi, shift):
    ny = math.sqrt(3.0) * spec.c_y
    j_hi = int(math.ceil(roi.semi_y / ny)) + 2
    gi, gj = np.meshgrid(np.arange(-i_hi, i_hi + 1, dtype=float),
                         np.arange(-j_hi, j_hi + 1, dtype=float), indexing="ij")
    main = np.column_stack([spec.c_x * (gi.ravel() - shift), ny * gj.ravel()])
    offs = np.column_stack([spec.c_x * (gi.ravel() + 0.5 - shift),
                            ny * (gj.ravel() + 0.5)])
    return np.vstack([main, offs])


def _oracle_lattice(k, spec, roi):
    """Iteration k enumerated over its own index box."""
    pts = _two_sub_lattices(spec, roi, int(math.ceil(roi.semi_x / spec.c_x)) + 2,
                            (k % spec.cycle_len) / spec.cycle_len)
    return cb._sorted_yx(pts[roi.contains(pts[:, 0], pts[:, 1])])


def _oracle_cycle(spec, roi):
    """Labeled points and (beam_id, rf_chain, target) rows of each iteration,
    labeled by nearest-neighbour search from a second enumeration."""
    i_hi = int(math.ceil((roi.semi_x + spec.c_x) / spec.c_x)) + 2
    pts = _two_sub_lattices(spec, roi, i_hi, 0.0)
    keep = np.zeros(len(pts), dtype=bool)
    for k in range(spec.cycle_len):
        keep |= roi.contains(pts[:, 0] - k * spec.c_x / spec.cycle_len, pts[:, 1])
    labeled = cb._sorted_yx(pts[keep])
    iterations = []
    for k in range(spec.cycle_len):
        rows = []
        for p in _oracle_lattice(k, spec, roi):
            d = np.hypot(labeled[:, 0] - p[0] - k * spec.c_x / spec.cycle_len,
                         labeled[:, 1] - p[1])
            assert d.min() < 1.0
            rows.append((int(np.argmin(d)), (float(p[0]), float(p[1]))))
        rows.sort()
        iterations.append([(bid, chain, t) for chain, (bid, t) in enumerate(rows)])
    return labeled, iterations


@st.composite
def _lattice_cases(draw):
    h = draw(st.floats(0.5e6, 2e6))
    spec = cb.make_lattice_spec(h, draw(st.floats(1.2, 1.7)),
                                draw(st.sampled_from([(12, 24), (8, 8), (16, 4)])),
                                draw(st.integers(1, 7)), ground_track_speed(h))
    # semi-axes anywhere, or on a multiple of the node spacing so that nodes
    # sit on the ellipse at some shift
    semi_x = draw(st.one_of(
        st.floats(1.0, 1.5e6),
        st.integers(1, 40).map(lambda m: m * spec.c_x / (2 * spec.cycle_len))))
    semi_y = draw(st.one_of(
        st.floats(1.0, 1.5e6),
        st.integers(1, 10).map(lambda m: m * math.sqrt(3.0) * spec.c_y / 2)))
    return spec, Roi(semi_x, semi_y)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_lattice_cases())
def test_labels_by_lattice_rank_match_nearest_neighbour_oracle(case):
    spec, roi = case
    labeled, want = _oracle_cycle(spec, roi)
    cyc = cb.build_cycle(SimpleNamespace(n_rf=10**6), spec, roi)
    assert np.array_equal(cyc.labeled_points, labeled)
    assert np.array_equal(cb.eventually_active_points(spec, roi), labeled)
    assert cyc.cycle_len == spec.cycle_len
    for k in range(spec.cycle_len):
        assert [(b.beam_id, b.rf_chain, b.target) for b in cyc.iterations[k]] == want[k]
    for k in range(3 * spec.cycle_len):
        assert np.array_equal(cb.iteration_lattice(k, spec, roi),
                              _oracle_lattice(k, spec, roi))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_lattice_cases(), st.integers(0, 3))
def test_every_iteration_is_closed_under_y_mirror(case, cycles):
    # each beam's target (x, y) has a partner at (x, -y) exactly, also for
    # global iterations past the first cycle, whose IDs wrap
    spec, roi = case
    cyc = cb.build_cycle(SimpleNamespace(n_rf=10**6), spec, roi)
    for k in range(spec.cycle_len):
        t = cyc.targets(k + cycles * spec.cycle_len)
        if t.size:
            m = _mirror_order(t[:, 0], t[:, 1])
            assert np.array_equal(t[m, 1], -t[:, 1])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n_beams=st.integers(1, 30), shrink=st.floats(0.5, 1.0),
       semi_x=st.floats(1e4, 1.5e6), semi_y=st.floats(1e4, 1.5e6))
def test_dft_baseline_is_closed_under_y_mirror(n_beams, shrink, semi_x, semi_y):
    # a grid the ROI does not fit to n_beams is rejected, not built
    try:
        beams = cb.dft_baseline(SimpleNamespace(n_rf=13), Roi(semi_x, semi_y),
                                n_beams, shrink)
    except ValueError:
        return
    t = np.array([b.target for b in beams])
    m = _mirror_order(t[:, 0], t[:, 1])
    assert np.array_equal(t[m, 1], -t[:, 1])


def test_mirror_order_rejects_an_unpaired_beam():
    with pytest.raises(RuntimeError, match="symmetric"):
        _mirror_order(np.array([0.0, 1.0]), np.array([5.0, -5.0]))


def test_dft_baseline_grid(roi):
    geom = satellite_array(13, (12, 24), 0.5)
    beams = cb.dft_baseline(geom, roi)
    assert len(beams) == 15
    xs = sorted({round(b.target[0], 3) for b in beams})
    ys = sorted({round(b.target[1], 3) for b in beams})
    assert len(xs) == 5 and len(ys) == 3
    pts = np.array([b.target for b in beams])
    assert pts.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-6)
    # IDs follow the (y, x) order
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    assert [beams[i].beam_id for i in order] == list(range(15))
    for b in beams:
        v = direction_to(b.target[0], b.target[1], H)
        pre = cb.beam_precoder(b.target, geom, b.rf_chain, H)
        assert beam_gain(geom, pre, v) == pytest.approx(288.0, rel=1e-9)


def test_dft_baseline_rejects_bad_shrink(roi):
    geom = satellite_array(13, (12, 24), 0.5)
    with pytest.raises(ValueError, match="beams"):
        cb.dft_baseline(geom, roi, shrink=0.5)
    with pytest.raises(ValueError, match="beams"):
        cb.dft_baseline(geom, roi, shrink=1.2)


def test_tables(cycle):
    geom = satellite_array(13, (12, 24), 0.5)
    rows = cb.cycle_table(cycle)
    assert len(rows) == 43
    assert rows[0][0] == 0 and rows[-1][0] == 3
    phases = cb.phase_table(cycle.iterations[0][0], geom, H)
    assert len(phases) == 288
    assert all(-math.pi <= p <= math.pi for _, p in phases)
