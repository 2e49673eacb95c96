import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobeams import codebook as cb
from leobeams.antenna import beam_gain, satellite_array
from leobeams.geometry import (EARTH_MASS, EARTH_RADIUS, GRAV_CONST, Roi,
                               direction_to, ground_track_speed)

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
    # the closed form pi h / (L w R_e O n_x), with the orbit's angular rate
    # w = sqrt(G M / r) / r at r = R_e + h: the lattice advances one x
    # period per full cycle of L updates
    r = EARTH_RADIUS + H
    w = math.sqrt(GRAV_CONST * EARTH_MASS / r) / r
    direct = math.pi * H / (4 * w * EARTH_RADIUS * 1.4 * 12)
    assert direct == pytest.approx(spec.t_c, rel=1e-12)


def test_iteration_counts_match_enumeration_oracle(spec, cycle):
    oracle = _oracle_counts(spec.c_x, spec.c_y, 4)
    assert oracle == [13, 10, 10, 10]
    assert [len(t) for t in cycle.targets] == oracle


def test_iterations_are_k_periodic(cycle):
    # a full cycle later every target recurs exactly, its ID one higher
    for k in range(4):
        t0, ids0 = cycle.snapshot(k)
        t1, ids1 = cycle.snapshot(k + 4)
        assert np.array_equal(t1[np.searchsorted(ids1, (ids0 + 1) % 13)], t0)


def test_sort_key_example(spec):
    c_x, c_y = spec.c_x, spec.c_y
    pts = np.array([[0.0, 0.0],
                    [-c_x, 0.0],
                    [c_x / 2, math.sqrt(3) * c_y / 2]])
    ordered = cb._sorted_yx(pts)
    assert ordered[0] == pytest.approx([-c_x, 0.0])
    assert ordered[1] == pytest.approx([0.0, 0.0])
    assert ordered[2] == pytest.approx([c_x / 2, math.sqrt(3) * c_y / 2])


def test_eventually_active_points(spec, roi, cycle):
    pts = cb.eventually_active_points(spec, roi)
    assert len(pts) == 13
    # sorted by (y, x)
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    assert np.array_equal(order, np.arange(13))
    # every active point of every iteration, shifted back to the base
    # lattice, appears in the labeled set
    for k in range(4):
        for p in cycle.targets[k]:
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
    assert cycle.n_beams == 13 and cycle.advance == 1
    assert [len(t) for t in cycle.targets] == [13, 10, 10, 10]
    for t, ids, rf in zip(cycle.targets, cycle.ids, cycle.rf, strict=True):
        assert np.all(np.diff(ids) > 0)
        assert np.array_equal(rf, np.arange(len(t)))
        assert len(ids) == len(t)
    with pytest.raises(ValueError, match="read-only"):
        cycle.ids[0][0] = 5


def test_beam_ids_advance_per_cycle(cycle):
    # the same iteration one cycle later or earlier: the same targets with
    # IDs one up or down, re-sorted into ascending-ID order
    t1, base = cycle.snapshot(1)
    for g, step in ((5, 1), (9, 2), (-3, -1)):
        t, ids = cycle.snapshot(g)
        assert np.all(np.diff(ids) > 0)
        assert np.array_equal(t[np.searchsorted(ids, (base + step) % 13)], t1)


def test_node_keeps_id_one_cycle_later(cycle, spec):
    # ground node at the base lattice origin, observed at iteration 0 and a
    # full cycle later: by then it has drifted one x period in the satellite
    # frame and must carry the same stable ID
    t0, ids0 = cycle.snapshot(0)
    col0 = int(np.argmin(np.hypot(t0[:, 0], t0[:, 1])))
    assert t0[col0] == pytest.approx([0.0, 0.0], abs=1e-6)
    t4, ids4 = cycle.snapshot(4)
    col4 = int(np.argmin(np.hypot(t4[:, 0] + spec.c_x, t4[:, 1])))
    assert t4[col4] == pytest.approx([-spec.c_x, 0.0], abs=1e-6)
    assert ids4[col4] == ids0[col0]


def test_precoders_point_at_targets(cycle):
    geom = satellite_array(13, (12, 24), 0.5)
    for t, c in zip(cycle.targets[2], cycle.rf[2]):
        v = direction_to(t[0], t[1], H)
        pre = cb.beam_precoder(t, geom, c, H)
        assert beam_gain(geom, pre, v) == pytest.approx(288.0, rel=1e-9)


def test_overflow_names_offending_iteration(spec, roi):
    geom = satellite_array(9, (12, 24), 0.5)
    with pytest.raises(ValueError, match=r"iteration 0.*13.*9"):
        cb.build_cycle(geom, spec, roi)


@pytest.mark.parametrize("cycle_len, oversampling",
                         [(1_000_000, 1.4), (4, 1e3), (4, 1e300)])
def test_oversized_lattice_refused_before_allocating(roi, cycle_len,
                                                     oversampling,
                                                     traced_peak):
    geom = satellite_array(13, (12, 24), 0.5)
    big = cb.make_lattice_spec(H, oversampling, (12, 24), cycle_len,
                               ground_track_speed(H))
    def refused():
        with pytest.raises(ValueError, match=r"cycle_len = .* oversampling"):
            cb.build_cycle(geom, big, roi)
    assert traced_peak(refused).peak < 2**16


def test_lattice_node_cap_counts_the_whole_box(spec, roi, monkeypatch):
    # the default box: 2 sub-lattices x 13 x 7 indices x K = 4 shifts
    geom = satellite_array(13, (12, 24), 0.5)
    monkeypatch.setattr(cb, "MAX_LATTICE_NODES", 728)
    assert cb.build_cycle(geom, spec, roi).n_beams == 13
    monkeypatch.setattr(cb, "MAX_LATTICE_NODES", 727)
    with pytest.raises(ValueError, match="need 728 lattice nodes"):
        cb.build_cycle(geom, spec, roi)


def test_single_iteration_cycle_matches_initial(roi):
    vg = ground_track_speed(H)
    one = cb.make_lattice_spec(H, 1.4, (12, 24), 1, vg)
    geom = satellite_array(13, (12, 24), 0.5)
    cyc = cb.build_cycle(geom, one, roi)
    assert cyc.cycle_len == 1
    assert np.array_equal(cyc.targets[0], _oracle_lattice(0, one, roi))


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
    assert cyc.n_beams == len(labeled)
    assert np.array_equal(cb.eventually_active_points(spec, roi), labeled)
    assert cyc.cycle_len == spec.cycle_len
    for k in range(spec.cycle_len):
        rows = zip(cyc.ids[k].tolist(), cyc.rf[k].tolist(),
                   map(tuple, cyc.targets[k].tolist()))
        assert list(rows) == want[k]
        assert np.array_equal(cyc.targets[k], _oracle_lattice(k, spec, roi))


def _id_sorted_oracle(book, g):
    """The beams of global iteration g as the evaluator used to rebuild them
    on every call: the codebook-order targets and IDs, sorted by ID."""
    m, k = divmod(g, book.cycle_len)
    targets = book.targets[k]
    ids = (book.ids[k] + book.advance * m) % book.n_beams
    order = np.argsort(ids, kind="stable")  # IDs wrap mod n_beams past a cycle
    return targets[order, 0], targets[order, 1], ids[order]


def _flipped(targets, sx, sy):
    """The set of targets (sx * x, sy * y); +0.0 and -0.0 compare equal."""
    return {(sx * x, sy * y) for x, y in targets.tolist()}


def _assert_snapshot_matches_oracle(book, g):
    want = _id_sorted_oracle(book, g)
    targets, ids = book.snapshot(g)
    got = (targets[:, 0], targets[:, 1], ids)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert np.ascontiguousarray(a).tobytes() == b.tobytes()
    # the targets are closed under (x, y) -> (x, -y): the evaluator's y-flip
    # then adds no kernel rows
    assert _flipped(targets, 1.0, -1.0) == _flipped(targets, 1.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_lattice_cases())
def test_every_iteration_is_closed_under_y_mirror(case):
    # each beam's target (x, y) has a partner at (x, -y) exactly, also for
    # global iterations before and past the first cycle, whose IDs wrap; the
    # snapshot and its ID order match the per-call oracle bit for bit
    spec, roi = case
    cyc = cb.build_cycle(SimpleNamespace(n_rf=10**6), spec, roi)
    for g in range(-5, 21):
        _assert_snapshot_matches_oracle(cyc, g)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n_beams=st.integers(1, 30), shrink=st.floats(0.5, 1.0),
       semi_x=st.floats(1e4, 1.5e6), semi_y=st.floats(1e4, 1.5e6),
       g=st.integers(-5, 20))
def test_dft_baseline_is_closed_under_y_mirror(n_beams, shrink, semi_x, semi_y,
                                               g):
    # a grid the ROI does not fit to n_beams is rejected, not built; a built
    # one is closed under y -> -y and its IDs never advance
    try:
        book = cb.dft_baseline(SimpleNamespace(n_rf=13), Roi(semi_x, semi_y),
                               n_beams, shrink)
    except ValueError:
        return
    assert book.cycle_len == 1 and book.advance == 0
    assert np.array_equal(book.snapshot(g)[1], np.arange(n_beams))
    _assert_snapshot_matches_oracle(book, g)


@st.composite
def _xmirror_cases(draw):
    h = draw(st.floats(0.5e6, 2e6))
    return cb.make_lattice_spec(h, draw(st.floats(1.2, 1.7)), (12, 24),
                                draw(st.sampled_from([2, 3, 4, 5, 8])),
                                ground_track_speed(h))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lattice=_xmirror_cases())
def test_x_mirror_closure_by_cycle_len(roi, lattice):
    # iteration k's lattice shift -k/K mirrors to k/K, so the x-mirror of
    # iteration k is iteration -k mod K exactly wherever the shifts round
    # alike: every k at K = 2, 4 and 8 (k/K is exact in binary), and k = 0
    # always, but not k = 1 or 2 at K = 3 (in float64, 1 - 2/3 != 1/3);
    # where the sets are equal the evaluator pairs g with -g at no extra row
    K = lattice.cycle_len
    cyc = cb.build_cycle(SimpleNamespace(n_rf=10**6), lattice, roi)
    closed = [_flipped(cyc.targets[-k % K], -1.0, 1.0)
              == _flipped(cyc.targets[k], 1.0, 1.0) for k in range(K)]
    assert closed[0]
    if K in (2, 4, 8):
        assert all(closed)
    if K == 3:
        assert not closed[1] and not closed[2]
    # snapshots of any global g carry their base iteration's targets, so the
    # closure holds between g and -g, in ascending-ID order
    for g in range(-K - 1, 2 * K + 2):
        targets = cyc.snapshot(g)[0]
        assert (_flipped(cyc.snapshot(-g)[0], -1.0, 1.0)
                == _flipped(targets, 1.0, 1.0)) == closed[g % K]
        _assert_snapshot_matches_oracle(cyc, g)


def test_dft_grid_pairs_with_itself_under_x_mirror(roi):
    book = cb.dft_baseline(SimpleNamespace(n_rf=13), roi, 15, 0.88)
    targets = book.snapshot(0)[0]
    assert _flipped(targets, -1.0, 1.0) == _flipped(targets, 1.0, 1.0)
    assert _flipped(targets, -1.0, -1.0) == _flipped(targets, 1.0, 1.0)
    _assert_snapshot_matches_oracle(book, 0)


@pytest.mark.parametrize("n_beams", [2**20 + 1, 10**8, 10**400])
def test_oversized_dft_grid_refused_before_allocating(roi, n_beams,
                                                      traced_peak):
    def refused():
        with pytest.raises(ValueError, match="^dft_n_beams = "):
            cb.dft_baseline(SimpleNamespace(n_rf=13), roi, n_beams, 0.88)
    assert traced_peak(refused).peak < 2**20


def test_dft_grid_of_too_many_nodes_refused_before_allocating(roi,
                                                              traced_peak):
    # a prime count is one row of n_beams columns, laid out over the ROI box
    # at shrink 0.88: about n / 0.88 x 5 nodes
    n_beams = 262147
    def refused():
        with pytest.raises(ValueError, match="^dft_n_beams = 262147 lays out"):
            cb.dft_baseline(SimpleNamespace(n_rf=13), roi, n_beams, 0.88)
    assert traced_peak(refused).peak < 2**20


def test_dft_grid_holds_every_in_roi_node_of_its_lattice(roi):
    # brute force over the ROI box: an accepted count is the number of all
    # the in-ROI nodes of its lattice, and its grid is closed under x -> -x
    # (a range of cols // 2 + 2 nodes each side once let 864 beams pass
    # with 8 of the lattice's 872 in-ROI nodes left out)
    accepted = []
    for n_beams in range(1, 2000):
        try:
            book = cb.dft_baseline(SimpleNamespace(n_rf=13), roi, n_beams, 0.88)
        except ValueError:
            continue
        accepted.append(n_beams)
        cols, rows = cb._grid_shape(n_beams, RX / RY)
        s_x, s_y = 0.88 * 2.0 * RX / cols, 0.88 * 2.0 * RY / rows
        # every node offset k + (1 - cols % 2) / 2 with |x| <= RX, |y| <= RY
        xs = [(k + (1 - cols % 2) / 2) * s_x for k in range(-cols, cols + 1)]
        ys = [(k + (1 - rows % 2) / 2) * s_y for k in range(-rows, rows + 1)]
        n_in = sum((x / RX) ** 2 + (y / RY) ** 2 <= 1 + 1e-9
                   for x in xs if abs(x) <= RX for y in ys if abs(y) <= RY)
        assert n_in == n_beams
        targets = book.snapshot(0)[0]
        assert _flipped(targets, -1.0, 1.0) == _flipped(targets, 1.0, 1.0)
    assert 15 in accepted and 864 not in accepted and 946 in accepted


def test_dft_baseline_grid(roi):
    geom = satellite_array(13, (12, 24), 0.5)
    book = cb.dft_baseline(geom, roi, 15, 0.88)
    assert book.n_beams == 15 and book.cycle_len == 1
    pts, ids, rf = book.targets[0], book.ids[0], book.rf[0]
    assert len(pts) == 15
    assert len(set(np.round(pts[:, 0], 3))) == 5
    assert len(set(np.round(pts[:, 1], 3))) == 3
    assert pts.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-6)
    # IDs follow the (y, x) order
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    assert ids[order].tolist() == list(range(15))
    assert np.array_equal(rf, ids % 13)
    for t, c in zip(pts, rf):
        v = direction_to(t[0], t[1], H)
        pre = cb.beam_precoder(t, geom, c, H)
        assert beam_gain(geom, pre, v) == pytest.approx(288.0, rel=1e-9)


def test_dft_baseline_rejects_bad_shrink(roi):
    geom = satellite_array(13, (12, 24), 0.5)
    with pytest.raises(ValueError, match="beams"):
        cb.dft_baseline(geom, roi, 15, 0.5)
    with pytest.raises(ValueError, match="beams"):
        cb.dft_baseline(geom, roi, 15, 1.2)


def test_tables(cycle):
    geom = satellite_array(13, (12, 24), 0.5)
    assert sum(len(t) for t in cycle.targets) == 43
    phases = cb.phase_table(cycle.targets[0][0], geom, cycle.rf[0][0], H)
    assert len(phases) == 288
    assert all(-math.pi <= p <= math.pi for _, p in phases)
