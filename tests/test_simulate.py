import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobeams import kernels
from leobeams import simulate as sim
from leobeams.codebook import Codebook
from leobeams.config import SceneConfig, build_scene
from leobeams.fields import FieldMap
from leobeams.geometry import slant_range
from leobeams.kernels import gain_matrix
from leobeams.link import noise_rel, sinr_db, snr_db


def _grid_points(scene, step):
    xs, ys = sim.roi_grid(scene.roi, step)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    m = scene.roi.contains(gx, gy)
    return gx[m], gy[m]


def test_roi_grid_centered(scene):
    xs, ys = sim.roi_grid(scene.roi, 2000.0)
    assert 0.0 in xs and 0.0 in ys
    assert xs.max() <= scene.roi.semi_x and ys.max() <= scene.roi.semi_y
    with pytest.raises(ValueError):
        sim.roi_grid(scene.roi, 0.0)


def test_serving_beam_at_targets(scene):
    # a beam's own target is served by that beam
    targets, ids = scene.hex.snapshot(0)
    for t, i in zip(targets, ids):
        sid, gain = sim.serving_beam(scene, t)
        assert sid == i
        assert gain == pytest.approx(288.0, rel=1e-9)


def test_serving_beam_tie_takes_lower_id(scene):
    # (0, 80 km) sits exactly between the two x-mirrored beams of the upper
    # lattice row; their gains agree bit for bit, so the tie rule decides
    targets, ids = scene.hex.snapshot(0)
    gains = gain_matrix(np.array([0.0]), np.array([80e3]),
                        targets[:, 0], targets[:, 1], scene.h_sat,
                        12, 24, scene.geometry.spacing)[0]
    tied = np.flatnonzero(gains == gains.max())
    assert tied.size == 2
    sid, _ = sim.serving_beam(scene, (0.0, 80e3))
    assert sid == min(ids[tied])


def _lowest_tied_id(scene, book, px, py, g):
    """The tie rule spelled out with no walk over the beams: among the beams
    at the row's max gain, the lowest ID, whatever their column order."""
    targets, ids = book.snapshot(g)
    targets, ids = targets[::-1], ids[::-1]
    geom = scene.geometry
    gains = gain_matrix(px, py, targets[:, 0], targets[:, 1], scene.h_sat,
                        geom.subarray_nx, geom.subarray_ny, geom.spacing)
    best = gains.max(axis=1)
    big = np.iinfo(np.int64).max
    return np.where(gains == best[:, None], ids, big).min(axis=1), best


@pytest.mark.parametrize("mode, g", [("hex", g) for g in (-3, 0, 3, 4, 5, 8, 9)]
                         + [("dft", 0)])
def test_serve_ids_follow_lowest_tied_id_rule(scene, mode, g, serve_whole):
    # IDs wrap mod n_beams from g = cycle_len on, so the codebook's columns
    # are not in ID order; at g = 8 the (0, 80 km) tie is between IDs 12
    # and 0, with 0 in the later column
    book = sim.codebook_for(scene, mode)
    ids = book.snapshot(g)[1]
    assert np.all(np.diff(ids) > 0)
    px, py = _grid_points(scene, 10e3)
    px, py = np.append(px, 0.0), np.append(py, 80e3)
    # the served slices answer at (px, |py|) in row 0 and at (px, -|py|) in
    # row 1
    side = (py < 0).astype(int), np.arange(px.size)
    sid, g_serve = (a[side] for a in serve_whole(scene, px, py, book, g)[:2])
    want, best = _lowest_tied_id(scene, book, px, py, g)
    assert np.array_equal(sid, want)
    assert np.array_equal(g_serve, best)
    if (mode, g) == ("hex", 8):
        assert sid[-1] == 0


def test_serving_matches_nearest_lattice_point(scene):
    # brute-force oracle on a coarse grid: the serving beam is the nearest
    # active lattice point in the beam-width metric (y weighted by the
    # footprint aspect c_x/c_y)
    px, py = _grid_points(scene, 25e3)
    targets, ids = scene.hex.snapshot(0)
    w = scene.lattice.c_x / scene.lattice.c_y
    d2 = ((px[:, None] - targets[None, :, 0]) ** 2
          + (w * (py[:, None] - targets[None, :, 1])) ** 2)
    nearest = ids[np.argmin(d2, axis=1)]
    got = np.array([sim.serving_beam(scene, (x, y))[0] for x, y in zip(px, py)])
    assert np.array_equal(got, nearest)


def test_cell_map_surjective(scene):
    fmap = sim.coverage_map(scene, metric="cell", step=5000.0)
    vals = fmap.values[np.isfinite(fmap.values)]
    assert set(vals.astype(int)) == set(range(13))


def test_snr_map_nadir_oracle(scene):
    fmap = sim.coverage_map(scene, metric="snr", step=10e3)
    ix = int(np.argmin(np.abs(fmap.xs)))
    iy = int(np.argmin(np.abs(fmap.ys)))
    assert fmap.values[iy, ix] == pytest.approx(11.80, abs=0.05)


def test_sinr_never_exceeds_snr(scene):
    for mode in ("hex", "dft"):
        s = sim.coverage_map(scene, metric="snr", mode=mode, step=10e3)
        si = sim.coverage_map(scene, metric="sinr", mode=mode, step=10e3)
        m = np.isfinite(s.values)
        assert np.all(si.values[m] <= s.values[m] + 1e-9)


@pytest.mark.parametrize("step", [math.inf, math.nan])
@pytest.mark.filterwarnings("error")  # no numpy warning before the refusal
def test_grids_refuse_non_finite_step(scene, step):
    # inf * 0 would make NaN axes: a 1 x 1 all-NaN map, or a failed
    # reduction in the handover map
    for run, key in ((sim.coverage_map, "grid_step_m"),
                     (sim.sinr_cdf, "grid_step_m"),
                     (sim.handover_map, "handover_grid_step_m")):
        with pytest.raises(ValueError,
                           match=f"^{key} must be finite, got {step}$"):
            run(scene, step=step)


@pytest.mark.parametrize("name, point", [
    ("x", (math.nan, 0.0)), ("x", (math.inf, 0.0)), ("x", (-math.inf, 1e3)),
    ("y", (0.0, math.nan)), ("y", (0.0, -math.inf))])
def test_serving_beam_refuses_non_finite_point(scene, name, point):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        sim.serving_beam(scene, point)


def test_map_rejects_unknown_inputs(scene):
    with pytest.raises(ValueError):
        sim.coverage_map(scene, metric="rssi")
    with pytest.raises(ValueError):
        sim.coverage_map(scene, mode="fancy")
    with pytest.raises(ValueError):
        sim.pass_timeseries(scene, (0, 0), mode="warp")


def test_cdf_monotone_and_bounded(scene):
    curves = sim.sinr_cdf(scene, step=8000.0)
    for c in curves:
        assert np.all(np.diff(c.probs) <= 1e-12)
        assert c.probs.min() >= 0.0 and c.probs.max() <= 1.0


def test_cdf_from_map_rejects_empty():
    empty = FieldMap(xs=np.array([0.0]), ys=np.array([0.0]),
                     values=np.array([[np.nan]]))
    with pytest.raises(ValueError):
        sim.cdf_from_map(empty, np.array([0.0]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(vals=st.lists(st.integers(-12, 12), min_size=1, max_size=80),
       thr=st.lists(st.integers(-14, 14), min_size=1, max_size=30))
def test_cdf_from_map_matches_boolean_mean(vals, thr):
    # quarter steps make values tie with each other and with the thresholds
    v = np.array(vals, dtype=float) / 4
    fmap = FieldMap(xs=np.arange(v.size + 2.0), ys=np.array([0.0]),
                    values=np.concatenate([v, [np.nan, np.inf]])[None, :])
    thresholds = np.array(thr, dtype=float) / 4
    curve = sim.cdf_from_map(fmap, thresholds)
    oracle = (v[:, None] > thresholds[None, :]).mean(axis=0)
    assert np.array_equal(curve.probs, oracle)


@st.composite
def _serve_case(draw):
    """A points x beams gain matrix of 1, 10, 13 or 15 beams, ascending IDs
    with gaps, and kernel calls of 1 to 9 points. The matrix and IDs come
    from a seeded generator, so an example costs a handful of draws whatever
    its size: a share of the entries (none, half, most or all) takes values
    from a pool of two or three, so exact ties are common, and the rest are
    uniform on [0, 288]."""
    n_beams = draw(st.sampled_from([1, 10, 13, 15]))
    shape = (draw(st.integers(1, 40)), n_beams)
    pool = draw(st.lists(st.floats(0.0, 288.0), min_size=2, max_size=3))
    tied = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = np.where(rng.random(shape) < tied, rng.choice(pool, size=shape),
                     rng.uniform(0.0, 288.0, shape))
    ids = np.sort(rng.choice(100, size=n_beams, replace=False))
    return gains, ids, draw(st.integers(1, 9))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_serve_case())
def test_serve_running_max_matches_argmax_oracle(scene, serve_whole, case):
    gains, ids, chunk = case
    n_points, n_beams = gains.shape
    # a one-iteration codebook with these IDs; beam j targets (j, 1 + j), and
    # the kernel below gives target (x, +-y) beam x's column of gains, so the
    # y-flip adds n_beams rows that the mirrored side must find by value
    targets = np.column_stack([np.arange(n_beams), 1.0 + np.arange(n_beams)])
    book = Codebook(targets=(targets,), ids=(ids,),
                    rf=(np.arange(n_beams),), n_beams=100, advance=0)

    def kernel(px, py, tx, *args):  # the kernel's layout: a transposed C array
        return np.ascontiguousarray(gains[px.astype(int)][:, tx.astype(int)]
                                    .T).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "KERNEL_EVALS", chunk * 2 * n_beams)
        mp.setattr(sim, "gain_matrix", kernel)
        px, py = np.arange(n_points, dtype=float), np.zeros(n_points)
        served = serve_whole(scene, px, py, book, 0)
    # the oracle: argmax and row sums over the points x beams matrix, on
    # both sides
    k = gains.argmax(axis=1)
    best = gains[np.arange(n_points), k]
    total = gains.sum(axis=1)
    # the two sums add the same n_beams non-negative terms in different
    # orders, each within (n_beams - 1) eps/2 total of the exact sum, and
    # subtracting the serving gain rounds each once more, by eps/2 total
    eps = np.finfo(float).eps
    for sid, g_serve, interf in zip(*served, strict=True):
        assert np.array_equal(sid, ids[k])
        assert np.array_equal(g_serve, best)
        assert np.all(np.abs(interf - (total - best)) <= n_beams * eps * total)


def _kernel(scene, px, py, tx, ty):
    """The kernel at (px, py) toward (tx, ty) in one call, shape (points,
    targets), looked up as `sim.gain_matrix` so a patched kernel reaches
    the oracles too."""
    g = scene.geometry
    return sim.gain_matrix(px, py, tx, ty, scene.h_sat, g.subarray_nx,
                           g.subarray_ny, g.spacing)


def _direct_serve(scene, px, py, book, g):
    """The evaluator before y-mirrored points shared a kernel call: the
    kernel at the points themselves, in one call, one ascending-ID running
    max."""
    targets, ids = book.snapshot(g)
    rows = _kernel(scene, px, py, targets[:, 0], targets[:, 1]).T
    k = np.zeros(rows.shape[1], dtype=np.intp)
    best, total = rows[0].copy(), rows[0].copy()
    for b in range(1, rows.shape[0]):
        k[rows[b] > best] = b
        np.maximum(best, rows[b], out=best)
        total += rows[b]
    return ids[k], best, total - best


@st.composite
def _mirror_case(draw, scene):
    """A codebook snapshot (hex at g = -5..20, so IDs wrap from g = 4 on, or
    dft), any iteration h = -8..8 for the x-mirrored sides, 1 to 30 points
    of any signs, a budget of 1 to 150 evaluations per kernel call, and a
    kernel that is exact or quantized to steps of 16 so exact ties are
    common. The points come from a seeded generator, so an example costs a
    handful of draws: on a 5 km grid, on beam targets and their mirrors, on
    y = +-0.0, on x = +-0.0 and at (0, +-80 km), where x-mirrored beams
    tie."""
    mode = draw(st.sampled_from(["hex", "hex", "dft"]))
    book = sim.codebook_for(scene, mode)
    g = draw(st.integers(-5, 20)) if mode == "hex" else 0
    h = draw(st.integers(-8, 8))
    targets = book.snapshot(g)[0]
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.integers(0, 5, n)
    kind = [kind == k for k in range(5)]
    sign = rng.choice([1.0, -1.0], (2, n))
    zero = rng.choice([0.0, -0.0], n)
    on = targets[rng.integers(0, len(targets), n)].T * sign
    px = np.select(kind, [5e3 * rng.integers(-110, 111, n), on[0],
                          rng.uniform(-5.5e5, 5.5e5, n), zero, 0.0])
    py = np.select(kind, [5e3 * rng.integers(-36, 37, n), on[1], zero,
                          rng.uniform(-1.8e5, 1.8e5, n), 80e3 * sign[1]])
    return (mode, g, h, px, py, draw(st.integers(1, 150)), draw(st.booleans()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_paired_serve_matches_direct_serve_on_both_sides(scene, data,
                                                         serve_whole):
    # rows 0 and 1 of the served slices are the direct evaluator at (px,
    # |py|) and (px, -|py|); with any iteration h, whether or not it mirrors
    # g, rows 2 and 3 are the direct evaluator under h at (-px, |py|) and
    # (-px, -|py|), bit for bit: IDs, serving gains and interferer sums. A
    # call that skips the sums gives the same IDs and gains, and no
    # interferer array; one that skips the IDs gives the same gains and
    # sums, no ID array, and makes no _max_walk call
    mode, g, h, px, py, evals, quantized = data.draw(_mirror_case(scene))
    kernel, walk = sim.gain_matrix, sim._max_walk
    book = sim.codebook_for(scene, mode)
    walks = []

    def walk_probe(*args):
        walks.append(args)
        return walk(*args)
    with pytest.MonkeyPatch.context() as mp:
        if quantized:
            mp.setattr(sim, "gain_matrix",
                       lambda *a: np.floor(kernel(*a) / 16) * 16)
        # the oracle in one slice; the evaluator in slices of KERNEL_EVALS
        # evaluations
        want = [_direct_serve(scene, x, y, book, it)
                for x, y, it in ((px, np.abs(py), g), (px, -np.abs(py), g),
                                 (-px, np.abs(py), h), (-px, -np.abs(py), h))]
        mp.setattr(sim, "KERNEL_EVALS", evals)
        paired = serve_whole(scene, px, py, book, g, h)
        halves = serve_whole(scene, px, py, book, g)
        ids_only = [serve_whole(scene, px, py, book, g, mirror,
                                interference=False) for mirror in (h, None)]
        mp.setattr(sim, "_max_walk", walk_probe)
        no_ids = [serve_whole(scene, px, py, book, g, mirror, ids=False,
                              interference=interference)
                  for mirror in (h, None) for interference in (True, False)]
    assert walks == []
    for got, half, *sides in zip(paired, halves, *want, strict=True):
        assert got.shape == (4, px.size)
        assert np.array_equal(half, got[:2])
        for row, direct in zip(got, sides, strict=True):
            assert np.array_equal(row, direct)
    for full, (sid, g_serve, interf) in zip((paired, halves), ids_only):
        assert interf is None
        assert sid.tobytes() == full[0].tobytes()
        assert g_serve.tobytes() == full[1].tobytes()
    for (sid, g_serve, interf), full, interference in zip(
            no_ids, (paired, paired, halves, halves), (True, False) * 2):
        assert sid is None
        assert g_serve.tobytes() == full[1].tobytes()
        if interference:
            assert interf.tobytes() == full[2].tobytes()
        else:
            assert interf is None


def _kernel_rows_per_serve(monkeypatch):
    """A list that fills, per evaluator plan (one per `_served_slices`
    pass), with [g, rows of each kernel call made after it]."""
    calls, plan, kernel = [], sim._serve_plan, sim.gain_matrix

    def plan_probe(book, g, *rest):
        calls.append([g])
        return plan(book, g, *rest)

    def kernel_probe(px, py, tx, *args):
        calls[-1].append(tx.size)
        return kernel(px, py, tx, *args)
    monkeypatch.setattr(sim, "_serve_plan", plan_probe)
    monkeypatch.setattr(sim, "gain_matrix", kernel_probe)
    return calls


def test_serve_of_a_codebook_open_under_both_mirrors_matches_direct_serve(
        scene, monkeypatch, serve_whole):
    # the evaluator relies on no closure: beams with no y- or x-mirror
    # partner are served on every side bit for bit like the direct
    # evaluator, from 2n kernel rows with the y-mirror and 4n with both
    targets = np.array([[1e4, 5e3], [1e5, -5e4], [-2e5, 3e4], [3e5, 1e5]])
    book = Codebook(targets=(targets,), ids=(np.arange(4),),
                    rf=(np.arange(4),), n_beams=4, advance=0)
    px, py = _grid_points(scene, 25e3)
    want = [_direct_serve(scene, x, y, book, 0)
            for x, y in ((px, np.abs(py)), (px, -np.abs(py)),
                         (-px, np.abs(py)), (-px, -np.abs(py)))]
    calls = _kernel_rows_per_serve(monkeypatch)
    halves = serve_whole(scene, px, py, book, 0)
    paired = serve_whole(scene, px, py, book, 0, 0)
    assert calls == [[0, 8], [0, 16]]
    for half, got, *sides in zip(halves, paired, *want, strict=True):
        assert np.array_equal(half, got[:2])
        for row, direct in zip(got, sides, strict=True):
            assert np.array_equal(row, direct)


def _walks_per_kernel_call(monkeypatch):
    """A list that fills, per kernel call, with the number of `_max_walk`
    calls over its rows."""
    counts, walk, kernel = [], sim._max_walk, sim.gain_matrix

    def walk_probe(*args):
        counts[-1] += 1
        return walk(*args)

    def kernel_probe(*args):
        counts.append(0)
        return kernel(*args)
    monkeypatch.setattr(sim, "_max_walk", walk_probe)
    monkeypatch.setattr(sim, "gain_matrix", kernel_probe)
    return counts


def test_sides_that_read_one_row_set_share_one_walk(scene, monkeypatch,
                                                    serve_whole):
    # sides are grouped by the exact set of kernel rows they read: all four
    # share one walk for the DFT grid and for hex (g, -g) at K = 4; hex k = 1
    # with h = 1 has as many rows per side but two sets, and the 4-beam
    # codebook open under both mirrors has one set per side. Each slice of
    # points repeats its walks
    px, py = _grid_points(scene, 25e3)
    open_book = Codebook(targets=(np.array([[1e4, 5e3], [1e5, -5e4],
                                            [-2e5, 3e4], [3e5, 1e5]]),),
                         ids=(np.arange(4),), rf=(np.arange(4),), n_beams=4,
                         advance=0)
    cases = ([(scene.dft, 0, 0, 1)]
             + [(scene.hex, g, -g, 1) for g in range(-4, 9)]
             + [(scene.hex, 1, 1, 2), (scene.hex, 3, 3, 2),
                (scene.hex, 1, None, 1), (open_book, 0, None, 2),
                (open_book, 0, 0, 4)])
    counts = _walks_per_kernel_call(monkeypatch)
    monkeypatch.setattr(sim, "KERNEL_EVALS", 20 * px.size // 3)
    for book, g, h, walks in cases:
        counts.clear()
        serve_whole(scene, px, py, book, g, h)
        assert len(counts) > 1 and counts == [walks] * len(counts), (g, h)


@pytest.fixture(scope="module")
def scenes_by_cycle_len(scene):
    # at K = 4 the x-mirror of every iteration is an iteration of the cycle
    # exactly; at K = 3 and 5 only some are, and the others cost kernel rows
    return {3: build_scene(SceneConfig(cycle_len=3)), 4: scene,
            5: build_scene(SceneConfig(cycle_len=5))}


@pytest.mark.parametrize("cycle_len", [3, 4, 5])
@pytest.mark.parametrize("quantized", [False, True])
def test_batched_serve_matches_direct_serve_per_column(
        scenes_by_cycle_len, cycle_len, quantized, monkeypatch, serve_whole):
    # one call serves columns of one residue class at many cycle counts,
    # negative ones too, with -g on the mirror's sides, whose IDs wrap the
    # other way (at K = 3 and 5, -g is not the x-mirror of g): every column
    # is, on all four sides, the direct evaluator at its own iteration, ties
    # included, over many kernel slices. The first column is at cycle 0 and
    # (0, 80 km) at cycle 2, where at K = 4 and residue 0 the x-mirrored
    # beams tie as IDs 12 and 0, which are 10 and 11 at the first column
    scene = scenes_by_cycle_len[cycle_len]
    kernel = sim.gain_matrix
    if quantized:  # exact ties everywhere
        monkeypatch.setattr(sim, "gain_matrix",
                            lambda *a: np.floor(kernel(*a) / 16) * 16)
    monkeypatch.setattr(sim, "KERNEL_EVALS", 500)
    px, py = _grid_points(scene, 40e3)
    px, py = np.append(px, 0.0), np.append(py, 80e3)
    rng = np.random.default_rng(cycle_len)
    for r in range(cycle_len):
        g = r + cycle_len * rng.integers(-4, 5, px.size)
        g[0], g[-1] = r, r + 2 * cycle_len
        sid, g_serve, _ = serve_whole(scene, px, py, scene.hex, g, -g,
                                      interference=False)
        for k in np.unique(g).tolist():
            at = g == k
            for side, (sx, sy, it) in enumerate([(1, 1, k), (1, -1, k),
                                                 (-1, 1, -k), (-1, -1, -k)]):
                want = _direct_serve(scene, sx * px[at], sy * np.abs(py[at]),
                                     scene.hex, it)
                assert np.array_equal(sid[side, at], want[0]), (r, k, side)
                assert np.array_equal(g_serve[side, at], want[1])
        if (cycle_len, r, quantized) == (4, 0, False):
            assert sid[0, -1] == 0


def test_dynamic_map_of_many_small_classes_matches_direct_loop(monkeypatch):
    # at K = 1000 a 60 km map's thousands of update indices fall into 1000
    # residue classes of a few small indices each: each class is one
    # evaluator call whose columns span several cycles, and the counts are
    # still each point's own direct loop
    scene = build_scene(SceneConfig(cycle_len=1000))
    xs, ys = sim.roi_grid(scene.roi, 60e3)
    gx, gy = np.meshgrid(xs, ys)
    m = scene.roi.contains(gx, gy)
    want = np.full(m.shape, np.nan)
    want[m] = _direct_dynamic_counts(scene, gx[m], gy[m])
    calls = _kernel_rows_per_serve(monkeypatch)
    got = sim.handover_map(scene, "dynamic", step=60e3).values
    assert got.tobytes() == want.tobytes()
    assert len(calls) <= 1000
    assert any(np.unique(c[0] // 1000).size > 1 for c in calls)


def test_dynamic_schedule_packs_whole_indices_below_a_quarter_block(
        scene, monkeypatch):
    # at BLOCK = 64 a 20 km map's classes take several calls each: a call
    # serves whole update indices of one residue class in ascending order
    # and holds fewer than BLOCK // 4 columns before its last index, every
    # index that has columns is served once, and the counts are still each
    # point's own direct loop
    monkeypatch.setattr(sim, "BLOCK", 64)
    blocks, events, plan, serve = ([], sim._dynamic_events, sim._serve_plan,
                                   sim._served_slices)

    def events_probe(scene, px, py, t_in, t_out):
        blocks.append(([], t_in, t_out))
        return events(scene, px, py, t_in, t_out)

    def plan_probe(book, g, h):
        blocks[-1][0].append(g)
        return plan(book, g, h)

    def serve_probe(scene, px, *args, **kw):  # each column's g
        calls = blocks[-1][0]
        calls[-1] = np.broadcast_to(calls[-1], px.shape)
        yield from serve(scene, px, *args, **kw)
    monkeypatch.setattr(sim, "_dynamic_events", events_probe)
    monkeypatch.setattr(sim, "_serve_plan", plan_probe)
    monkeypatch.setattr(sim, "_served_slices", serve_probe)
    got = sim.handover_map(scene, "dynamic", step=20e3).values
    xs, ys = sim.roi_grid(scene.roi, 20e3)
    gx, gy = np.meshgrid(xs, ys)
    m = scene.roi.contains(gx, gy)
    want = np.full(m.shape, np.nan)
    want[m] = _direct_dynamic_counts(scene, gx[m], gy[m])
    assert got.tobytes() == want.tobytes()

    K, quarter = scene.hex.cycle_len, sim.BLOCK // 4
    assert len(blocks) > 1
    assert sum(len(c) for c, *_ in blocks) > K * len(blocks)
    for calls, t_in, t_out in blocks:
        g_in, g_out = sim._iteration(scene, t_in), sim._iteration(scene, t_out)
        x_in = -sim._iteration(scene, -t_out)
        x_end = -sim._iteration(scene, -t_in)
        # each point's columns at g: one if either side updates there, and
        # one per side that enters there
        def n_cols(g):
            upd = ((g_in < g) & (g <= g_out)) | ((x_end <= g) & (g < x_in))
            return int(np.count_nonzero(upd) + np.count_nonzero(g_in == g)
                       + np.count_nonzero(x_in == g))
        indices = range(min(g_in.min(), x_end.min()),
                        max(g_out.max(), x_in.max()) + 1)
        served = []
        for g in calls:
            assert np.all(np.diff(g) >= 0)
            k, n = np.unique(g, return_counts=True)
            assert np.unique(k % K).size == 1
            assert n.tolist() == [n_cols(i) for i in k.tolist()]
            assert n[:-1].sum() < quarter
            served += k.tolist()
        assert sorted(served) == [i for i in indices if n_cols(i)]


def _direct_map(scene, metric, mode, g, step):
    """A map as computed before any mirror shared a kernel call: the direct
    evaluator and the link budget at every in-ROI node."""
    xs, ys = sim.roi_grid(scene.roi, step)
    gx, gy = np.meshgrid(xs, ys)
    m = scene.roi.contains(gx, gy)
    px, py = gx[m], gy[m]
    sid, g_serve, interf = _direct_serve(scene, px, py,
                                         sim.codebook_for(scene, mode), g)
    dist = slant_range(px, py, scene.h_sat)
    vals = np.full(m.shape, np.nan)
    vals[m] = {"cell": lambda: sid,
               "snr": lambda: snr_db(g_serve, dist, scene.link),
               "sinr": lambda: sinr_db(g_serve, interf,
                                       noise_rel(dist, scene.link))}[metric]()
    return FieldMap(xs=xs, ys=ys, values=vals)


def _direct_dynamic_ids(scene, px, py):
    """Each point's own event IDs in time order, entry then updates, from
    the direct evaluator: shape (events, points), n_beams past a point's
    last event."""
    t_in, t_out = sim.pass_window(scene, (px, py))
    g_in, g_out = sim._iteration(scene, t_in), sim._iteration(scene, t_out)
    ids = np.full((int((g_out - g_in).max()) + 1, px.size), scene.hex.n_beams)
    for g in range(int(g_in.min()), int(g_out.max()) + 1):
        pts = np.flatnonzero((g_in <= g) & (g <= g_out))
        t = np.where(g_in[pts] == g, t_in[pts], g * scene.lattice.t_c)
        ids[g - g_in[pts], pts] = _direct_serve(
            scene, px[pts] - scene.v_ground * t, py[pts], scene.hex, g)[0]
    return ids


def _direct_dynamic_counts(scene, px, py):
    """The dynamic handover loop as it was before mirrors shared a kernel
    call: the ID changes between each point's own consecutive events."""
    ids = _direct_dynamic_ids(scene, px, py)
    return np.count_nonzero((ids[1:] != ids[:-1])
                            & (ids[1:] != scene.hex.n_beams), axis=0)


@pytest.mark.parametrize("cycle_len", [3, 4, 5])
def test_dynamic_event_table_is_each_sides_direct_loop(scenes_by_cycle_len,
                                                       cycle_len):
    # the schedule's classes, laid out by loop index, cover every loop index
    # once and hold at each side's point (+-x, +-|y|) the direct loop's IDs of
    # that point's events: event e under iteration g_in + e at loop index
    # g_in + e, the x-mirror's at the negated index, so read in reverse it is
    # in time order, and the n_beams fill at every other index. The points are
    # a grid and points whose window opens or closes within TIME_TOL of an
    # update instant, where the sides' event sets differ
    scene = scenes_by_cycle_len[cycle_len]
    t_c, v = scene.lattice.t_c, scene.v_ground
    rng = np.random.default_rng(cycle_len)
    y = scene.roi.semi_y * rng.uniform(0.0, 0.99, 12)
    x_b = scene.roi.x_extent(y)
    j = rng.integers(0, np.floor(2 * x_b / (v * t_c)) + 1)
    off = rng.choice([-5e-10, 0.0, 5e-10, 2e-9], y.size)
    edge = rng.choice([-1.0, 1.0], y.size)  # entry or exit
    px, py = _grid_points(scene, 40e3)
    px = np.append(px, edge * (x_b - v * (j * t_c + off)))
    py = np.append(py, y)
    t_in, t_out = sim.pass_window(scene, (px, py))
    lo = min(sim._iteration(scene, t_in).min(),
             -sim._iteration(scene, -t_in).max())
    classes = list(sim._dynamic_events(scene, px, np.abs(py), t_in,
                                       t_out))
    assert classes[0][0] == lo
    table = np.full((4, sum(ids.shape[1] for _, ids in classes), px.size), -1)
    for g, ids in classes:  # a class's rows are loop indices g, g + K, ...
        rows = table[:, g - lo::cycle_len][:, :ids.shape[1]]
        assert np.all(rows == -1) and ids.shape[::2] == (4, px.size)
        rows[...] = ids
    fill = scene.hex.n_beams
    for row, (sx, sy) in zip(table, [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                             strict=True):
        want = _direct_dynamic_ids(scene, sx * px, sy * np.abs(py))
        g_in = sim._iteration(scene, sim.pass_window(scene, (sx * px, py))[0])
        e, p = np.nonzero(want != fill)
        expect = np.full(row.shape, fill)
        expect[sx * (g_in[p] + e) - lo, p] = want[e, p]
        assert np.array_equal(row, expect), (sx, sy)


@pytest.mark.parametrize("cycle_len", [3, 4, 5])
def test_maps_and_cdfs_match_direct_evaluation(scenes_by_cycle_len, cycle_len,
                                               monkeypatch):
    # every map fills one quadrant, whether or not its iteration is closed
    # under x -> -x, and is the direct evaluation, byte for byte; so is every
    # streamed CDF, also when the quadrant spans many blocks of two rows
    scene = scenes_by_cycle_len[cycle_len]
    for g in sorted({-1, 0, 1, 2, cycle_len, cycle_len + 2}):
        for mode in ("hex", "dft") if g == 0 else ("hex",):
            for metric in ("snr", "sinr", "cell"):
                got = sim.coverage_map(scene, metric, mode, g, step=10e3)
                want = _direct_map(scene, metric, mode, g, 10e3)
                assert got.values.tobytes() == want.values.tobytes(), (
                    mode, metric, g)
        curves = sim.sinr_cdf(scene, iteration=g, step=10e3)
        for curve, mode in zip(curves, sim.MAP_MODES, strict=True):
            want = sim.cdf_from_map(_direct_map(scene, "sinr", mode, g, 10e3),
                                    sim.CDF_THRESHOLDS_DB)
            assert curve.probs.tobytes() == want.probs.tobytes()
    xs, ys = sim.roi_grid(scene.roi, 10e3)
    monkeypatch.setattr(sim, "BLOCK", 2 * (xs.size - xs.size // 2) + 1)
    assert ys.size // 2 + 1 >= 9 * 2  # nine blocks of two rows
    for g in (0, 1):  # g = 1 is open under x -> -x at every K here
        curves = sim.sinr_cdf(scene, iteration=g, step=10e3)
        for curve, mode in zip(curves, sim.MAP_MODES, strict=True):
            want = sim.cdf_from_map(_direct_map(scene, "sinr", mode, g, 10e3),
                                    sim.CDF_THRESHOLDS_DB)
            assert curve.probs.tobytes() == want.probs.tobytes(), (mode, g)


@pytest.mark.parametrize("cycle_len", [3, 4, 5])
def test_dynamic_handover_map_matches_direct_loop(scenes_by_cycle_len,
                                                  cycle_len):
    # the quadrant loop, x at g paired with -x at -g at every K, counts what
    # each point's own direct loop counts
    scene = scenes_by_cycle_len[cycle_len]
    for step in (13e3, 20e3):
        got = sim.handover_map(scene, "dynamic", step=step).values
        xs, ys = sim.roi_grid(scene.roi, step)
        gx, gy = np.meshgrid(xs, ys)
        m = scene.roi.contains(gx, gy)
        want = np.full(m.shape, np.nan)
        want[m] = _direct_dynamic_counts(scene, gx[m], gy[m])
        assert got.tobytes() == want.tobytes()


@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_dynamic_counts_at_window_edges_match_direct_loop(scenes_by_cycle_len,
                                                          data):
    # windows that open or close within the 1e-9 s tolerance of an update
    # instant, where a point and its x-mirror need different event sets:
    # each of the four sides counts what the direct loop counts there
    scene = scenes_by_cycle_len[data.draw(st.sampled_from([3, 4, 5]))]
    t_c, v = scene.lattice.t_c, scene.v_ground
    pts = []
    for _ in range(data.draw(st.integers(1, 6))):
        y = scene.roi.semi_y * data.draw(st.floats(0.0, 0.99))
        x_b = float(scene.roi.x_extent(y))
        off = data.draw(st.sampled_from([-5e-10, 0.0, 5e-10, 2e-9]))
        j = data.draw(st.integers(0, math.floor(2 * x_b / (v * t_c))))
        edge = data.draw(st.sampled_from([-1.0, 1.0]))  # entry or exit
        pts.append((edge * (x_b - v * (j * t_c + off)), y))
    px, py = np.abs(np.array(pts)).T
    got = sim._dynamic_handover_counts(scene, px, py)
    for row, (sx, sy) in zip(got, [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                             strict=True):
        assert np.array_equal(row, _direct_dynamic_counts(scene, sx * px,
                                                          sy * py))


def test_mirrored_sides_share_kernel_rows(scenes_by_cycle_len, monkeypatch):
    # a flip the codebook is closed under adds no kernel row: y always, x for
    # the DFT grid, hex k with 2k = 0 mod K, and the dynamic pair g, -g at
    # K = 4; hex k = 1 and 3 at K = 4 need their x-flipped targets as rows
    # of their own. The dynamic map serves whole update indices of one
    # residue class mod K per evaluator call, g on the point's sides and -g
    # on the mirror's, with the rows of that class's own g and -g, also at
    # K = 3 where -g is not the mirror of g; a map this small makes at most
    # one call per class
    scene = scenes_by_cycle_len[4]
    calls = _kernel_rows_per_serve(monkeypatch)
    for mode, g in [("dft", 0)] + [("hex", k) for k in range(4)]:
        calls.clear()
        sim.coverage_map(scene, "cell", mode, g, step=20e3)
        n = sim.codebook_for(scene, mode).snapshot(g)[0].shape[0]
        assert calls and all(len(c) > 1 for c in calls)
        assert {r for c in calls for r in c[1:]} == {2 * n if g % 2 else n}
    for cycle_len in (4, 3):
        scene = scenes_by_cycle_len[cycle_len]
        calls.clear()
        sim.handover_map(scene, "dynamic", step=20e3)
        classes = [set((np.atleast_1d(c[0]) % cycle_len).tolist())
                   for c in calls]
        assert all(len(k) == 1 for k in classes)
        assert len({k.pop() for k in classes}) == len(calls)
        for g, *rows in calls:
            g = int(np.atleast_1d(g)[0])
            n = scene.hex.snapshot(g)[0].shape[0]
            closed = cycle_len == 4 or g % 3 == 0
            assert rows and set(rows) == {n if closed else 2 * n}


def test_dynamic_map_memory_bounded_by_grid_and_block(scene, monkeypatch,
                                                       traced_peak):
    # the dynamic map is filled one block of rows at a time like every other
    # map: its value grid (8 B per node) plus a block term (about 490 B per
    # block node measured, mostly kernel temporaries, and 595 B with a whole
    # event table per block); one association loop over the whole map held
    # about 160 B per node here
    monkeypatch.setattr(sim, "BLOCK", 512)
    xs, ys = sim.roi_grid(scene.roi, 5e3)
    assert ys.size // 2 + 1 >= 8 * (sim.BLOCK // (xs.size // 2 + 1))
    peak = traced_peak(lambda: sim.handover_map(scene, "dynamic",
                                                step=5e3)).peak
    assert peak < 9 * xs.size * ys.size + 2048 * sim.BLOCK


def _top_level_users(names):
    """Each of names that simulate.py's functions and classes name, mapped
    to the top-level ones that name it."""
    users = {}
    for top in ast.parse(Path(sim.__file__).read_text()).body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name in names:
                users.setdefault(name, set()).add(top.name)
    return users


def test_only_the_slice_loop_names_the_kernel():
    # _gain_slices is the one kernel slice loop of simulate.py: no other
    # function calls the kernel, computes the point terms or sizes a kernel
    # call, so both are decided in one place
    kernel_names = {"gain_matrix", "point_terms", "KERNEL_EVALS"}
    assert _top_level_users(kernel_names) == {
        name: {"_gain_slices"} for name in kernel_names}


def test_only_the_serving_loop_serves_slices():
    # _served_slices is the one serving loop: no other function serves a
    # slice, and the only other kernel slice loop is the dynamic series'
    # held-gain pass, which serves nothing
    assert _top_level_users({"_serve", "_serve_slice", "_gain_slices"}) == {
        "_serve_slice": {"_served_slices"},
        "_gain_slices": {"_served_slices", "pass_timeseries"}}


def _chunk_probe_outputs(scene):
    maps = [sim.coverage_map(scene, metric, mode, step=10e3)
            for metric in ("snr", "sinr", "cell") for mode in sim.MAP_MODES]
    maps += [sim.handover_map(scene, mode, step=20e3) for mode in sim.PASS_MODES]
    series = [sim.pass_timeseries(scene, (3e3, 41e3), mode)
              for mode in sim.PASS_MODES]
    curves = [c for g in (1, 2) for c in sim.sinr_cdf(scene, iteration=g,
                                                      step=10e3)]
    return ([m.values for m in maps]
            + [a for s in series for a in (s.serving_id, s.metric_db)]
            + [c.probs for c in curves])


def test_outputs_independent_of_chunk_size(scene, monkeypatch):
    # row sums and the argmax do not depend on how points are sliced, nor
    # handover sweeps on where the slices of their running sample index
    # split a row (each row spans 12 or more calls here), nor any map, the
    # dynamic handover map too, on its row blocks (one row each here), nor a
    # CDF on its blocks and their chunks, and no kernel call evaluates more
    # than KERNEL_EVALS point x beam pairs
    ref = _chunk_probe_outputs(scene)
    evals, kernel = [], sim.gain_matrix

    def probe(px, py, tx, *args):
        evals.append(px.size * tx.size)
        return kernel(px, py, tx, *args)
    monkeypatch.setattr(sim, "BLOCK", 11)
    monkeypatch.setattr(sim, "KERNEL_EVALS", 91)
    monkeypatch.setattr(sim, "gain_matrix", probe)
    got = _chunk_probe_outputs(scene)
    assert len(evals) > 1000 and max(evals) <= 91
    for a, b in zip(ref, got, strict=True):
        assert np.array_equal(a, b, equal_nan=True)
        assert a.tobytes() == b.tobytes()


def test_coverage_map_memory_bounded_by_chunk(scene, traced_peak):
    # the full (points x beams) gain matrix alone would take 8 * n_beams
    # bytes per point; the chunked evaluator stays well under twice that
    n_points = _grid_points(scene, 1000.0)[0].size
    n_beams = scene.hex.targets[0].shape[0]
    peak = traced_peak(lambda: sim.coverage_map(scene, step=1000.0)).peak
    assert peak < 2 * n_beams * 8 * n_points


def test_fine_map_memory_bounded_by_grid_and_block(scene, traced_peak):
    # fill runs on one block of whole rows (about BLOCK quadrant nodes, 4 x
    # BLOCK values) at a time, so a fine map peaks at its value grid (8 B
    # per node) plus a block term that does not grow with the grid; one fill
    # over every in-ROI node took about 72 B per node
    xs, ys = sim.roi_grid(scene.roi, 500.0)
    peak = traced_peak(lambda: sim.coverage_map(scene, step=500.0)).peak
    assert peak < 9 * xs.size * ys.size + 512 * sim.BLOCK


def test_map_block_holds_only_its_own_quadrant(scene, monkeypatch,
                                               traced_peak):
    # each block tests its own quadrant against the ROI as it fills it, so a
    # map holds its value grid (8 B per node) and no full-box mask; at
    # BLOCK = 512 a 500 m DFT cell map's block term measured about 1.7 kB
    # per block node, and 4.6 kB with a full-box mask and per-row counts
    monkeypatch.setattr(sim, "BLOCK", 512)
    xs, ys = sim.roi_grid(scene.roi, 500.0)
    peak = traced_peak(lambda: sim.coverage_map(scene, "cell", "dft",
                                                step=500.0)).peak
    assert peak < 8 * xs.size * ys.size + 3072 * sim.BLOCK


def test_cdf_memory_bounded_by_block(scene, monkeypatch, traced_peak):
    # the CDF counts each block's values as the block loop yields them and
    # keeps no value grid: at BLOCK = 512 a block is one grid row (535
    # quadrant nodes at 1 km, 1069 at 500 m) and the traced peak measured
    # about 1.0 and 1.7 kB per BLOCK, where building the map and sorting a
    # copy of its values took 5.6 and 22 MB
    monkeypatch.setattr(sim, "BLOCK", 512)
    for step in (1000.0, 500.0):
        peak = traced_peak(lambda: sim.sinr_cdf(scene, step=step)).peak
        assert peak < 3072 * sim.BLOCK, step


def test_fine_cdf_holds_one_kernel_slice_per_mode(scene, traced_peak):
    # a 500 m two-mode CDF serves each block in chunks of one kernel call
    # per mode, so it holds one block's coordinates (16 B per node) and one
    # chunk's kernel slice and arrays: about 26 B per KERNEL_EVALS measured
    # over the coordinates, where serving a whole block at a time took 7.6
    # MiB, 97 B per KERNEL_EVALS
    for g in (1, 2):
        peak = traced_peak(lambda: sim.sinr_cdf(scene, iteration=g,
                                                step=500.0)).peak
        assert peak < 16 * sim.BLOCK + 40 * sim.KERNEL_EVALS, g


def test_cdf_of_no_modes_is_refused_before_the_grid(scene, monkeypatch):
    # an empty modes served every block and then returned no curve
    def no_grid(*args):
        raise AssertionError("the grid was laid out")
    monkeypatch.setattr(sim, "roi_grid", no_grid)
    with pytest.raises(ValueError, match="modes"):
        sim.sinr_cdf(scene, modes=())


def test_cdf_of_several_modes_visits_each_block_once(scene, monkeypatch):
    # every mode is served from one visit of each chunk of each block: each
    # point's terms are computed once, never by a kernel call, each mode's
    # plan is made once, and each mode makes one kernel call per chunk of at
    # most KERNEL_EVALS // r points, r the most rows of any mode. Each
    # mode's curve is the one it gets alone and the direct map's, over nine
    # or more blocks of several chunks each
    step = 10e3
    xs, ys = sim.roi_grid(scene.roi, step)
    monkeypatch.setattr(sim, "BLOCK", 2 * (xs.size - xs.size // 2) + 1)
    monkeypatch.setattr(sim, "KERNEL_EVALS", 1000)
    blocks = len(range(ys.size // 2, ys.size, 2))
    assert blocks >= 9
    calls, plans, kernel_calls = [], [], []
    terms, plan, kernel = kernels.point_terms, sim._serve_plan, sim.gain_matrix

    def probe(*args):
        calls.append(np.size(args[0]))
        return terms(*args)

    def plan_probe(*args):
        plans.append(plan(*args))
        return plans[-1]

    def kernel_probe(px, py, tx, *args):
        kernel_calls.append(px.size)
        return kernel(px, py, tx, *args)
    monkeypatch.setattr(sim, "point_terms", probe)
    monkeypatch.setattr(kernels, "point_terms", probe)
    monkeypatch.setattr(sim, "_serve_plan", plan_probe)
    monkeypatch.setattr(sim, "gain_matrix", kernel_probe)
    for g, modes in ((0, ("hex", "dft")), (1, ("dft", "hex"))):
        calls.clear()
        plans.clear()
        kernel_calls.clear()
        curves = sim.sinr_cdf(scene, modes, iteration=g, step=step)
        chunk = 1000 // max(p[0].size for p in plans)
        assert len(plans) == len(modes) and max(calls) <= chunk
        assert len(calls) > blocks and sum(calls) == np.count_nonzero(
            scene.roi.contains(*np.meshgrid(xs[xs.size // 2:],
                                            ys[ys.size // 2:])))
        assert kernel_calls == [n for n in calls for _ in modes]
        for curve, mode in zip(curves, modes, strict=True):
            alone, = sim.sinr_cdf(scene, (mode,), iteration=g, step=step)
            want = sim.cdf_from_map(_direct_map(scene, "sinr", mode, g, step),
                                    sim.CDF_THRESHOLDS_DB)
            assert curve.label == alone.label == mode
            assert (curve.probs.tobytes() == alone.probs.tobytes()
                    == want.probs.tobytes()), (mode, g)


def test_cdf_serves_its_modes_one_block_at_a_time(scene, traced_peak):
    # the modes share one kernel slice's point terms at a time, and each
    # mode's gains and served arrays are freed before the next mode's gains
    # are computed, so two modes hold no more than one: at 1 km the
    # two-mode peak measured 2.35 MB against 2.48 MB for the larger
    # one-mode peak. The bound leaves room for a block's point terms (8
    # values, 64 B, per quadrant node), which no mode holds
    def peak(modes):
        return traced_peak(lambda: sim.sinr_cdf(scene, modes,
                                                step=1000.0)).peak
    one = max(peak(("hex",)), peak(("dft",)))
    assert peak(("hex", "dft")) <= one + 64 * sim.BLOCK + 65536


def test_cdf_sorts_its_one_copy_of_the_map_values(scene, traced_peak):
    # the in-ROI values are gathered once and sorted in place: about 9.3 B
    # per value (8 B and the isfinite mask), where a sorted second copy
    # took 16 B
    fmap = sim.coverage_map(scene, step=1000.0)
    n = np.count_nonzero(np.isfinite(fmap.values))
    peak = traced_peak(lambda: sim.cdf_from_map(fmap,
                                                sim.CDF_THRESHOLDS_DB)).peak
    assert peak < 12 * n


def test_kernel_call_memory_bounded_whatever_the_codebook_size(traced_peak):
    # each kernel call is bounded by KERNEL_EVALS point x beam pairs, not by
    # points, so a map of 946 DFT beams takes a fixed term over the 15-beam
    # map, not one that grows with the beams (2.7 MiB against 0.42 MiB; 864
    # beams took 40.7 MiB when calls were bounded by points)
    peaks = []
    for n_beams in (15, 946):
        scene = build_scene(SceneConfig(dft_n_beams=n_beams))
        peaks.append(traced_peak(lambda: sim.coverage_map(
            scene, "sinr", "dft", step=10e3)).peak)
    assert peaks[1] - peaks[0] < 64 * sim.KERNEL_EVALS


def test_pass_window(scene):
    t_in, t_out = sim.pass_window(scene, (0.0, 0.0))
    assert t_in == pytest.approx(-scene.roi.semi_x / scene.v_ground)
    assert t_out == pytest.approx(scene.roi.semi_x / scene.v_ground)


def test_pass_timeseries_static_sweep_is_monotone(scene):
    ts = sim.pass_timeseries(scene, (0.0, 0.0), mode="static")
    ids = ts.serving_id
    # a monotone sweep never revisits a beam: changes = distinct - 1
    assert ts.handover_count() == len(set(ids.tolist())) - 1
    # SNR values come from the link budget at the sampled slant ranges
    sx = -scene.v_ground * ts.t_s
    assert np.all(ts.metric_db <= snr_db(288.0, scene.h_sat, scene.link) + 1e-9)
    assert ts.t_s[0] == 0.0
    assert sx[-1] >= -scene.roi.semi_x - 1e-6


def test_pass_timeseries_dynamic_holds_within_iteration(scene):
    ts = sim.pass_timeseries(scene, (0.0, 0.0), mode="dynamic")
    g = np.floor(ts.t_s / scene.lattice.t_c + 1e-12).astype(int)
    changed = ts.serving_id[1:] != ts.serving_id[:-1]
    assert np.all(g[1:][changed] != g[:-1][changed])


def test_pass_timeseries_dynamic_constant_at_lattice_node(scene):
    # a ground node of the base lattice keeps one ID across a full cycle
    dur = 4 * scene.lattice.t_c - 1e-6
    ts = sim.pass_timeseries(scene, (0.0, 0.0), mode="dynamic", duration=dur)
    assert len(set(ts.serving_id.tolist())) == 1


def test_pass_timeseries_dft_mode(scene):
    ts = sim.pass_timeseries(scene, (100e3, 40e3), mode="dft")
    assert ts.serving_id.max() < 15
    assert ts.handover_count() >= 1


def test_pass_timeseries_outside_roi_errors(scene):
    with pytest.raises(ValueError, match="inside"):
        sim.pass_timeseries(scene, (0.0, 200e3))
    with pytest.raises(ValueError, match="inside"):
        sim.pass_timeseries(scene, (0.0, 0.0), t_start=1e4)


def test_pass_timeseries_respects_duration(scene):
    ts = sim.pass_timeseries(scene, (0.0, 0.0), duration=10.0, dt=1.0)
    assert ts.t_s.size == 11
    assert ts.t_s[-1] == pytest.approx(10.0)


def test_handover_map_matches_pass_counts(scene):
    dyn = sim.handover_map(scene, "dynamic")
    stat = sim.handover_map(scene, "static")
    pts = [(400e3, 0.0), (-123e3, 45e3), (12e3, -120e3), (250e3, 88e3),
           (0.0, 0.0), (-480e3, 10e3)]
    for pt in pts:
        t_in, _ = sim.pass_window(scene, pt)
        ix = int(np.argmin(np.abs(dyn.xs - pt[0])))
        iy = int(np.argmin(np.abs(dyn.ys - pt[1])))
        got_d = sim.pass_timeseries(scene, pt, "dynamic", t_start=t_in)
        got_s = sim.pass_timeseries(scene, pt, "static", t_start=t_in)
        assert dyn.values[iy, ix] == got_d.handover_count()
        assert stat.values[iy, ix] == got_s.handover_count()


@pytest.fixture(scope="module")
def coarse_handover_maps(scenes_by_cycle_len):
    return {(k, m): sim.handover_map(scene, m, step=20e3)
            for k, scene in scenes_by_cycle_len.items()
            for m in sim.PASS_MODES}


@pytest.mark.parametrize("mode", sim.PASS_MODES)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_handover_map_count_equals_series_count(scenes_by_cycle_len,
                                                coarse_handover_maps,
                                                mode, data):
    # one serving policy per mode: a series sampled over a cell's whole
    # window, at least twice per update period for the dynamic codebook,
    # counts exactly the map's handovers; the dynamic series and map run one
    # event schedule, the map over a block of points with their windows and
    # the series over its one point with its first and last samples as the
    # window, and at K = 3 and 5 its pairing of g with -g is not an x-mirror
    # of the codebook
    cycle_len = data.draw(st.sampled_from([3, 4, 5]))
    scene = scenes_by_cycle_len[cycle_len]
    hmap = coarse_handover_maps[cycle_len, mode]
    cells = np.argwhere(np.isfinite(hmap.values))
    iy, ix = cells[data.draw(st.integers(0, len(cells) - 1))]
    pt = (hmap.xs[ix], hmap.ys[iy])
    t_in, t_out = sim.pass_window(scene, pt)
    dt = None
    if mode == "dynamic":
        n_min = math.ceil(2 * (t_out - t_in) / scene.lattice.t_c)
        dt = (t_out - t_in) / data.draw(st.integers(n_min, 4 * n_min))
    series = sim.pass_timeseries(scene, pt, mode, dt=dt, t_start=t_in)
    assert hmap.values[iy, ix] == series.handover_count()


@pytest.mark.parametrize("cycle_len", [3, 4, 5])
def test_pass_timeseries_dynamic_associates_at_entry_and_updates(
        scenes_by_cycle_len, cycle_len):
    # oracle: after each association event the series holds the best beam at
    # that exact instant, under that instant's iteration, even when no sample
    # lands on the update instant; at K = 3 and 5 the series' events are
    # served in calls whose iterations g and -g are open under x -> -x
    scene = scenes_by_cycle_len[cycle_len]
    t_c, v = scene.lattice.t_c, scene.v_ground
    for x, y in zip(*_grid_points(scene, 40e3)):
        t_in, _ = sim.pass_window(scene, (x, y))
        ts = sim.pass_timeseries(scene, (x, y), "dynamic", t_start=t_in + 1.234)
        g = np.floor((ts.t_s + 1e-9) / t_c).astype(int)
        events = [(ts.t_s[0], g[0], ts.serving_id[0])] + [
            (k * t_c, k, ts.serving_id[np.argmax(g == k)])
            for k in range(g[0] + 1, g[-1] + 1)]
        for t, k, sid in events:
            assert sid == sim.serving_beam(scene, (x - v * t, y), "hex", k)[0]


SERIES_POINTS = [(0.0, 0.0), (1e3, 2e4), (-2.1e5, -8.8e4), (3e5, 1e5)]


def _paired_rows(book, g):
    """The kernel rows of a call serving iteration g at (px, +-|py|) and -g
    at (-px, +-|py|): its distinct signed targets."""
    rows = set()
    for sx, it in ((1.0, g), (-1.0, -g)):
        for tx, ty in book.snapshot(it)[0].tolist():
            rows |= {(sx * tx, ty), (sx * tx, -ty)}
    return len(rows)


@pytest.mark.parametrize("cycle_len", [3, 4, 5])
def test_dynamic_series_serves_one_call_per_residue_class(
        scenes_by_cycle_len, cycle_len, monkeypatch):
    # a series serves its update indices in at most one evaluator call per
    # residue class mod K, g on the point's sides and -g on the mirror's,
    # each kernel call with the rows of that class's own g and -g; the gains
    # of its held beams come from one more kernel call, over the distinct
    # held targets, and none per event
    scene = scenes_by_cycle_len[cycle_len]
    calls, plan, serve, kernel = ([], sim._serve_plan, sim._served_slices,
                                  sim.gain_matrix)

    def plan_probe(book, g, h):
        calls.append([np.atleast_1d(g), np.atleast_1d(h)])
        return plan(book, g, h)

    def serve_probe(*args, **kw):
        yield from serve(*args, **kw)
        calls.append(None)  # a kernel call past here is outside the call

    def kernel_probe(px, py, tx, *args):
        if calls and calls[-1] is None:
            calls.append(["held", tx.size])
        else:
            calls[-1].append(tx.size)
        return kernel(px, py, tx, *args)
    monkeypatch.setattr(sim, "_serve_plan", plan_probe)
    monkeypatch.setattr(sim, "_served_slices", serve_probe)
    monkeypatch.setattr(sim, "gain_matrix", kernel_probe)
    for pt in SERIES_POINTS:
        calls.clear()
        ts = sim.pass_timeseries(scene, pt, "dynamic").t_s
        g_s = sim._iteration(scene, ts)
        calls = [c for c in calls if c is not None]
        assert calls[-1][0] == "held" and len(calls[-1]) == 2
        served = calls[:-1]
        assert 1 <= len(served) <= cycle_len
        residues = [set((g % cycle_len).tolist()) for g, *_ in served]
        assert all(len(r) == 1 for r in residues)
        assert len({r.pop() for r in residues}) == len(served)
        indices = np.concatenate([g for g, *_ in served])
        assert set(range(g_s[0], g_s[-1] + 1)) <= set(indices.tolist())
        for g, h, *rows in served:
            assert np.array_equal(h, -g)
            assert rows and set(rows) == {_paired_rows(scene.hex, int(g[0]))}


@pytest.mark.parametrize("cycle_len", [3, 4, 5])
def test_dynamic_series_samples_match_their_own_events(scenes_by_cycle_len,
                                                       cycle_len):
    # oracle, event by event: the samples of update index k hold the beam
    # the direct evaluator serves at that index's event (the first sample's
    # time at the first index, k * t_c after it) under iteration k, and the
    # kernel's gain toward that beam's target in iteration k, bit for bit.
    # At some points the x-mirror still associates at the index past the
    # last sample's; the series must not read it
    scene = scenes_by_cycle_len[cycle_len]
    t_c, v = scene.lattice.t_c, scene.v_ground
    mirror_ends_later = False
    for x, y in SERIES_POINTS:
        for t_start in (0.0, 1.234):
            series = sim.pass_timeseries(scene, (x, y), "dynamic",
                                         t_start=t_start)
            ts = series.t_s
            g_s = sim._iteration(scene, ts)
            mirror_ends_later |= -sim._iteration(scene, -ts[-1]) > g_s[-1]
            for k in range(g_s[0], g_s[-1] + 1):
                at = g_s == k
                t = ts[0] if k == g_s[0] else k * t_c
                sid = _direct_serve(scene, np.array([x - v * t]),
                                    np.array([y]), scene.hex, k)[0][0]
                targets, ids = scene.hex.snapshot(k)
                tx, ty = targets[ids == sid].T
                sx = x - v * ts[at]
                gain = _kernel(scene, sx, np.full_like(sx, y), tx, ty)
                want = snr_db(gain[:, 0], slant_range(sx, y, scene.h_sat),
                              scene.link)
                assert np.all(series.serving_id[at] == sid), (x, y, k)
                assert series.metric_db[at].tobytes() == want.tobytes()
    assert mirror_ends_later


@pytest.mark.parametrize("mode", sim.PASS_MODES)
def test_pass_series_holds_only_its_own_arrays(scene, mode, traced_peak):
    # the result keeps 24 B per sample: t_s, serving_id and metric_db, each
    # owning its data (a static serving_id that viewed a row of the
    # evaluator's (2, n) IDs kept both rows, 32 B per sample)
    _, held, series = traced_peak(
        lambda: sim.pass_timeseries(scene, (0.0, 0.0), mode, dt=0.01))
    assert series.t_s.size > 8000
    assert held <= 24 * series.t_s.size + 16 * 1024


@pytest.mark.parametrize("mode", sim.PASS_MODES)
def test_pass_series_peak_is_its_result_plus_one_block(scene, mode,
                                                       traced_peak):
    # a series generates its sample indices BLOCK at a time and writes each
    # block's times, IDs and SNR into its preallocated result as the block is
    # served, so it peaks at its result (24 B per sample) plus one block:
    # 101-121 B per BLOCK measured at 2**19 samples, where serving every
    # sample at once peaked at 81 B per sample (static, DFT) and 89 B
    # (dynamic)
    t_in, t_out = sim.pass_window(scene, (0.0, 0.0))
    run = traced_peak(lambda: sim.pass_timeseries(
        scene, (0.0, 0.0), mode, dt=(t_out - t_in) / 2**19, t_start=t_in))
    n = run.result.t_s.size
    assert n > 2**19
    assert run.peak <= 24 * n + 160 * sim.BLOCK


def test_dynamic_handover_map_holds_no_whole_served_arrays(scene,
                                                           traced_peak):
    # the schedule scatters each kernel slice's IDs into its class's rows as
    # the slice is served, keeps no whole event table and builds no
    # whole-call arrays but a call's kernel coordinates, points and owners:
    # the 2 km map peaked at 4.82 MiB of traced allocation measured, at 6.78
    # MiB with one (4, events, points) table and whole-call column arrays,
    # and at 7.9-8.0 MiB with whole served arrays too
    peak = traced_peak(lambda: sim.handover_map(scene, "dynamic",
                                                step=2e3)).peak
    assert peak < 5.2 * 2**20


def test_dynamic_map_peak_does_not_grow_with_cycle_len(scene, traced_peak):
    # the schedule holds a window's classes, not its loop indices: the
    # counts keep only the previous class and the window's first, so a
    # larger K, with K times the update indices of a pass, costs no more
    # memory. The 2 km map peaked at 4.82 MiB at K = 4 and 5.00 MiB at K = 16
    # measured; with one (4, events, points) table, 6.78 and 10.89 MiB
    peaks = [traced_peak(lambda: sim.handover_map(
        book_scene, "dynamic", step=2e3)).peak
        for book_scene in (scene, build_scene(SceneConfig(cycle_len=16)))]
    assert peaks[1] <= 1.15 * peaks[0]


def test_dynamic_map_kernel_work_is_one_column_per_event(scene, monkeypatch):
    # windows change which calls serve an update index, not the work: the
    # 2 km map still hands the kernel one column per point per loop index
    # where either side associates (each side's entry a column of its own)
    # and one row per distinct signed target of its class
    work, kernel = [0, 0], sim.gain_matrix

    def kernel_probe(px, py, tx, *args):
        work[0] += px.size
        work[1] += px.size * tx.size
        return kernel(px, py, tx, *args)
    monkeypatch.setattr(sim, "gain_matrix", kernel_probe)
    sim.handover_map(scene, "dynamic", step=2e3)
    assert work == [306_040, 3_289_798]


@pytest.mark.parametrize("offset_s", [-5e-10, 0.0, 5e-10])
def test_dynamic_series_window_on_update_instants(scene, offset_s):
    # entry and exit both within the 1e-9 s tolerance of an update instant:
    # every sample still takes its beam and gain from an association event
    t_c, v = scene.lattice.t_c, scene.v_ground
    m = math.floor(2 * scene.roi.semi_x / (v * t_c))
    x_b = m * v * t_c / 2
    y = scene.roi.semi_y * math.sqrt(1 - (x_b / scene.roi.semi_x) ** 2)
    x = x_b + v * (3 * t_c + offset_s)
    t_in, t_out = sim.pass_window(scene, (x, y))
    series = sim.pass_timeseries(scene, (x, y), "dynamic", t_start=t_in,
                                 dt=(t_out - t_in) / (2 * m))
    assert series.t_s.size == 2 * m + 1
    assert set(series.serving_id.tolist()) <= set(range(scene.hex.n_beams))
    assert np.all(np.isfinite(series.metric_db))
    assert np.all(series.metric_db <= snr_db(288.0, scene.h_sat, scene.link))
    counts = sim._dynamic_handover_counts(scene, np.array([x]), np.array([y]))
    assert series.handover_count() == counts[0, 0]


def test_pass_timeseries_clips_far_range_to_window(scene):
    # a duration or start far outside the window samples only the window
    full = sim.pass_timeseries(scene, (0.0, 0.0))
    long = sim.pass_timeseries(scene, (0.0, 0.0), duration=1e12)
    assert np.array_equal(full.t_s, long.t_s)
    assert np.array_equal(full.serving_id, long.serving_id)
    t_in, t_out = sim.pass_window(scene, (0.0, 0.0))
    early = sim.pass_timeseries(scene, (0.0, 0.0), t_start=-1e12)
    assert t_in - 1e-3 <= early.t_s[0] and early.t_s[-1] <= t_out + 1e-3
    assert abs(early.t_s.size - (t_out - t_in) / scene.dt) <= 1


def test_pass_timeseries_rejects_non_finite_dt(scene):
    # the CLI takes dt from the validated config; library callers pass it
    with pytest.raises(ValueError, match="^dt must be finite"):
        sim.pass_timeseries(scene, (0.0, 0.0), dt=math.inf)


@pytest.mark.parametrize("mode", sim.PASS_MODES)
@pytest.mark.parametrize("dt, message", [
    (-1.0, "dt must be positive"),
    (0.0, "dt must be positive"),
    (math.nan, "dt must be finite, got nan"),
    (math.inf, "dt must be finite, got inf"),
])
@pytest.mark.filterwarnings("error")  # no numpy warning before the refusal
def test_handover_map_refuses_bad_dt(scene, mode, dt, message):
    # every mode refuses dt at entry, as pass_timeseries does, although only
    # the static and DFT sweeps read it
    with pytest.raises(ValueError, match=f"^{message}$"):
        sim.handover_map(scene, mode, step=60e3, dt=dt)


def test_dominance_violations_sparse_and_reported(scene):
    dyn = sim.handover_map(scene, "dynamic")
    stat = sim.handover_map(scene, "static")
    bad = sim.dominance_violations(dyn, stat)
    n = np.count_nonzero(np.isfinite(dyn.values))
    # the dynamic codebook dominates almost everywhere; the report carries
    # the exceptions instead of hiding them
    assert len(bad) < 0.01 * n
    for x, y, d, s in bad:
        assert d > s
        assert scene.roi.contains(x, y)


def test_dominance_requires_matching_grids(scene):
    a = FieldMap(xs=np.arange(3.0), ys=np.arange(2.0), values=np.zeros((2, 3)))
    b = FieldMap(xs=np.arange(4.0), ys=np.arange(2.0), values=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        sim.dominance_violations(a, b)
    # same shape on other axes: each cell would be compared with another
    # point's count and reported at the first map's coordinates
    c = FieldMap(xs=np.arange(3.0) * 10.0, ys=np.arange(2.0) + 7.0,
                 values=np.ones((2, 3)))
    with pytest.raises(ValueError):
        sim.dominance_violations(c, a)


def test_maps_are_deterministic(scene):
    a = sim.coverage_map(scene, metric="sinr", step=20e3)
    b = sim.coverage_map(scene, metric="sinr", step=20e3)
    assert np.array_equal(a.values, b.values, equal_nan=True)
