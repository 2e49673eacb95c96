"""Scene-level experiments: coverage maps, SINR CDFs, pass series, handovers.

Maps are snapshots in the satellite frame. Pass series and handover counts
follow a fixed ground point through the moving footprint pattern: the point
drifts backward along x in the satellite frame at the ground-track speed.

Serving disciplines differ by design. Static codebooks (frozen lattice or the
DFT baseline) re-select the best beam at every sample; the sweep over the
pattern is monotone, so this never flaps. The dynamic codebook associates at
window entry and at each update instant tau = g * t_c exactly, holding the
beam in between so the serving ID stays constant while footprints are frozen.

The scene holds two `Codebook`s: `Scene.hex`, the K-iteration hex cycle, and
`Scene.dft`, the DFT grid as one iteration whose IDs never advance.
`codebook_for` maps every mode name to one of them.

Every serving decision goes through one evaluator, `_serve`, which calls
the kernel on at most KERNEL_EVALS point x beam pairs at a time; every map
block and sweep call hands it at most BLOCK points, so memory is bounded
whatever the grid and codebook sizes.

The scene is symmetric about both axes, bit for bit: the grid axes are
closed under x -> -x and y -> -y, and the kernel is odd in x and in y
(np.sin is odd, np.cos even, and IEEE negation commutes with every
rounding). So a beam's gain at a mirrored point is the kernel's value at the
point itself toward the beam's mirrored target. `_serve` applies this one
rule: it answers the mirror images of (px, |py|) from one kernel call over
the distinct signed targets they need, which for a codebook closed under a
flip are its own targets. Maps fill the quadrant x >= 0, y >= 0 and write
all four images, sweeps run the rows y >= 0, a single point takes the side
matching the sign of its y, and the dynamic handover map pairs point x at
update index g with -x at -g, whose satellite-frame positions are negatives
of each other, in one `_serve` call per update index of a block; the
dynamic series runs a loop of its own, held to the same counts by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import ArrayGeometry
from .codebook import Codebook, LatticeSpec
from .fields import CdfCurve, FieldMap, TimeSeries
from .geometry import Roi, slant_range
from .kernels import gain_matrix
from .link import LinkParams, noise_rel, sinr_db, snr_db

DEFAULT_GRID_STEP = 2000.0      # coverage-map spacing [m]
DEFAULT_HANDOVER_STEP = 5000.0  # handover-map spacing [m]
UPDATE_SUBSTEPS = 20            # time samples per codebook update period
BLOCK = 2**15                   # points per _serve call of a map or sweep
KERNEL_EVALS = 81920            # point x beam evaluations per gain-kernel call
MAX_SAMPLES = 2**22             # time samples of one pass series or sweep row
MAX_CELLS = 2**23               # grid nodes of one map's ROI box
CDF_THRESHOLDS_DB = np.arange(-10.0, 20.0001, 0.25)  # SINR CDF abscissae [dB]
CDF_THRESHOLDS_DB.flags.writeable = False            # shared by every curve

MAP_MODES = ("hex", "dft")
PASS_MODES = ("static", "dynamic", "dft")


@dataclass(frozen=True)
class Scene:
    """Everything needed to run experiments: array, codebooks, ROI, budget."""

    geometry: ArrayGeometry
    lattice: LatticeSpec
    roi: Roi
    h_sat: float
    link: LinkParams
    hex: Codebook
    dft: Codebook
    v_ground: float

    @property
    def default_dt(self) -> float:
        return self.lattice.t_c / UPDATE_SUBSTEPS


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def roi_grid(roi: Roi, step: float,
             key: str = "grid step") -> tuple[np.ndarray, np.ndarray]:
    """Grid axes centered on the sub-satellite point covering the ROI box.

    Raises ValueError naming key, before allocating, when the box would hold
    more than MAX_CELLS nodes.
    """
    if step <= 0:
        raise ValueError(f"{key} must be positive")
    nx, ny = np.floor(roi.semi_x / step), np.floor(roi.semi_y / step)
    cells = (2 * nx + 1) * (2 * ny + 1)
    if not cells <= MAX_CELLS:
        raise ValueError(f"{key} = {step} m puts {cells:.4g} nodes in one map, "
                         f"more than the {MAX_CELLS} it may hold")
    nx, ny = int(nx), int(ny)
    return (step * np.arange(-nx, nx + 1, dtype=float),
            step * np.arange(-ny, ny + 1, dtype=float))


def codebook_for(scene: Scene, mode: str, modes=MAP_MODES) -> Codebook:
    """The codebook a mode serves from: the DFT grid for "dft" and the hex
    cycle for every other name in modes (MAP_MODES, or PASS_MODES for pass
    series and handover maps)."""
    if mode not in modes:
        raise ValueError(f"unknown codebook mode {mode!r}")
    return scene.dft if mode == "dft" else scene.hex


def _gains(scene: Scene, px, py, tx, ty) -> np.ndarray:
    g = scene.geometry
    return gain_matrix(px, py, tx, ty, scene.h_sat, g.subarray_nx,
                       g.subarray_ny, g.spacing)


def _serve(scene: Scene, px, py, book: Codebook, g: int,
           h: int = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Serving ID, serving gain and summed interferer gain of book's global
    iteration g at (px, |py|) and (px, -|py|), and with h, of iteration h at
    (-px, |py|) and (-px, -|py|): each of shape (2, n points), or (4, n
    points) with h, one row per side in that order.

    Max gain wins, exact ties go to the lowest ID. The kernel is odd in x and
    in y bit for bit, so beam j seen from (sx * px, sy * |py|) has the
    kernel's value at (px, |py|) toward the signed target (sx * tx_j,
    sy * ty_j). Every side's beams become such targets, and exact duplicates
    share one kernel row ((x, 0.0) and (x, -0.0) too, which the kernel gives
    the same bits). A flip the codebook is closed under adds no row: y -> -y
    always, and x -> -x for the DFT grid, hex k with 2k = 0 mod K, and h = -g
    at K = 2, 4 and 8. Otherwise a call carries up to twice the rows, as many
    evaluations as serving the mirrored points directly.

    The kernel is called on the distinct rows for slices of KERNEL_EVALS //
    rows points (at least one); its transpose has one contiguous row per
    target. Each side walks its own beams in ascending-ID order, reading
    each beam's row: a later beam takes the point only with a strictly
    larger gain, so ties stay on the lowest ID, and the summed gain adds the
    rows in that same order, one sequential sum per point; the interferer
    sum is that total less the serving gain. So each side replays, bit for
    bit, the walk a direct evaluation at its points would make, whatever the
    slicing. Walking the rows in their own order and mapping the winner back
    would break ties, and add the sum, in another order. An iteration with
    no beams raises ValueError.
    """
    walks, rows = [], {}  # rows: signed target (x, y) -> kernel row
    for sx, it in ((1.0, g),) if h is None else ((1.0, g), (-1.0, h)):
        targets, ids = book.snapshot(it)
        if ids.size == 0:
            raise ValueError(f"iteration {it} has no beams in the ROI")
        tx = (sx * targets[:, 0]).tolist()
        for ty in (targets[:, 1].tolist(), (-targets[:, 1]).tolist()):
            walks.append(([rows.setdefault(t, len(rows)) for t in zip(tx, ty)],
                          ids))
    tx, ty = np.array(list(rows)).T
    px = np.asarray(px, dtype=float)
    py = np.abs(np.asarray(py, dtype=float))
    sid = np.empty((len(walks), px.size), dtype=np.int64)
    g_serve, interf = np.empty(sid.shape), np.empty(sid.shape)
    step = max(1, KERNEL_EVALS // tx.size)
    for a in range(0, px.size, step):
        s = slice(a, a + step)
        gains = _gains(scene, px[s], py[s], tx, ty).T
        for side, (order, ids) in enumerate(walks):
            k = np.zeros(gains.shape[1], dtype=np.intp)
            best, total = gains[order[0]].copy(), gains[order[0]].copy()
            for b in range(1, len(order)):
                row = gains[order[b]]
                k[row > best] = b
                np.maximum(best, row, out=best)
                total += row
            sid[side, s] = ids[k]
            g_serve[side, s], interf[side, s] = best, total - best
    return sid, g_serve, interf


def serving_beam(scene: Scene, point_xy, mode: str = "hex",
                 iteration: int = 0) -> tuple[int, float]:
    """Serving beam ID and its linear gain at one satellite-frame point."""
    sid, g, _ = _serve(scene, [point_xy[0]], [point_xy[1]],
                       codebook_for(scene, mode), iteration)
    side = int(point_xy[1] < 0)
    return int(sid[side, 0]), float(g[side, 0])


def _roi_field(roi: Roi, step: float, key: str, fill) -> FieldMap:
    """Grid over the ROI box holding fill's values at in-ROI nodes, NaN elsewhere.

    The grid and the ellipse are symmetric about y = 0 and about x = 0 bit
    for bit (ys[-1 - i] == -ys[i], and the same for xs), so fill(px, py) is
    called only on the nodes with x >= 0 and y >= 0 and returns the four
    sides of `_serve`, shape (4, n): its values at (px, py), (px, -py),
    (-px, py) and (-px, -py). Row -y takes the second, column -x the last
    two; the row y = 0 and the column x = 0 take the first. The mask is built
    row by row, so no full-box coordinate grid is made, and fill is called
    once per block of whole rows holding about BLOCK quadrant nodes, so its
    per-point arrays do not grow with the grid. fill must treat each point,
    or each row, on its own.
    """
    xs, ys = roi_grid(roi, step, key)
    mask = np.empty((ys.size, xs.size), dtype=bool)
    for iy, y in enumerate(ys):
        mask[iy] = roi.contains(xs, y)
    vals = np.full(mask.shape, np.nan)
    # row i of vals[::-1] is row -y, column i of vals[:, ::-1] column -x
    sides = (vals, vals[::-1], vals[:, ::-1], vals[::-1, ::-1])
    c = xs.size // 2
    rows = max(1, BLOCK // (xs.size - c))
    for r in range(ys.size // 2, ys.size, rows):
        m = mask[r:r + rows, c:]
        counts = np.count_nonzero(m, axis=1)
        out = fill(np.broadcast_to(xs[c:], m.shape)[m],
                   np.repeat(ys[r:r + rows], counts))
        for side in (3, 2, 1, 0):  # side 0 last: the axes take it
            sides[side][r:r + rows, c:][m] = out[side]
    return FieldMap(xs=xs, ys=ys, values=vals)


def _check_samples(n: float, dt: float) -> None:
    if not n <= MAX_SAMPLES:
        raise ValueError(f"dt = {dt} s needs {n:.4g} samples in one pass, "
                         f"more than the {MAX_SAMPLES} it may hold")


# ---------------------------------------------------------------------------
# maps and CDFs
# ---------------------------------------------------------------------------

def coverage_map(scene: Scene, metric: str = "sinr", mode: str = "hex",
                 iteration: int = 0, step: float = DEFAULT_GRID_STEP) -> FieldMap:
    """Satellite-frame map of SNR, SINR, or serving-cell ID over the ROI."""
    if metric not in ("snr", "sinr", "cell"):
        raise ValueError(f"unknown metric {metric!r}")
    book = codebook_for(scene, mode)

    def at(px, py):
        sid, g_serve, interf = _serve(scene, px, py, book, iteration,
                                      iteration)
        if metric == "cell":
            return sid
        dist = slant_range(px, py, scene.h_sat)
        if metric == "snr":
            return snr_db(g_serve, dist, scene.link)
        return sinr_db(g_serve, interf, noise_rel(dist, scene.link))
    return _roi_field(scene.roi, step, "grid_step_m", at)


def cdf_from_map(fmap: FieldMap, thresholds_db: np.ndarray,
                 label: str = "") -> CdfCurve:
    """Complementary CDF prob(value > threshold) over a map's in-ROI cells."""
    vals = np.sort(fmap.values[np.isfinite(fmap.values)])
    if vals.size == 0:
        raise ValueError("map has no in-ROI cells")
    above = vals.size - np.searchsorted(vals, thresholds_db, side="right")
    probs = above / vals.size
    return CdfCurve(thresholds_db=thresholds_db, probs=probs, label=label)


def sinr_cdf(scene: Scene, modes=MAP_MODES, iteration: int = 0,
             step: float = DEFAULT_GRID_STEP) -> list[CdfCurve]:
    """Coverage curves prob(SINR > threshold), one per mode, over the in-ROI
    grid at the thresholds CDF_THRESHOLDS_DB."""
    return [cdf_from_map(coverage_map(scene, "sinr", mode, iteration, step),
                         CDF_THRESHOLDS_DB, label=mode) for mode in modes]


# ---------------------------------------------------------------------------
# pass time series
# ---------------------------------------------------------------------------

def pass_window(scene: Scene, ut_xy):
    """Times between which fixed ground point(s) sit inside the moving ROI."""
    x_g, x_b = np.asarray(ut_xy[0], dtype=float), scene.roi.x_extent(ut_xy[1])
    return (x_g - x_b) / scene.v_ground, (x_g + x_b) / scene.v_ground


def _iteration(scene: Scene, t) -> np.ndarray:
    """Dynamic iteration g at time(s) t; up to 1e-9 s before g * t_c counts as g."""
    return np.floor((np.asarray(t) + 1e-9) / scene.lattice.t_c).astype(np.int64)


def pass_timeseries(scene: Scene, ut_xy, mode: str = "dynamic",
                    duration: float = None, dt: float = None,
                    t_start: float = 0.0) -> TimeSeries:
    """Serving ID and SNR for a fixed ground point while it crosses the ROI.

    Samples run from t_start at spacing dt (default one twentieth of the
    update period) while the point is inside the ROI, up to its exit or the
    end of duration. Dynamic mode associates at the first sample and at each
    update instant tau = g * t_c up to the last, and a sample reports the beam
    held since then: the handover map's event rule, with the first and last
    samples as the window, so a series ending before the window's final tau
    can show one change fewer than `handover_map`.
    """
    book = codebook_for(scene, mode, PASS_MODES)
    if dt is None:
        dt = scene.default_dt
    x_g, y = float(ut_xy[0]), float(ut_xy[1])
    for name, value in dict(x=x_g, y=y, t_start=t_start, duration=duration,
                            dt=dt).items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_in, t_out = pass_window(scene, ut_xy)
    end = t_out if duration is None else min(t_start + duration, t_out)
    # float64 must resolve dt, and t_c for the iteration index, at these times
    t_max = max(abs(t_start), abs(t_in), abs(t_out))
    if not t_max * 2.0**-52 < min(dt, scene.lattice.t_c):
        raise ValueError(f"dt = {dt} is below the float resolution at t = {t_max:g}")
    # sample indices from one before entry to the end; the ROI mask cuts
    k0 = max(0, math.ceil((t_in - t_start) / dt) - 1)
    n = math.floor((end - t_start) / dt + 1e-9) + 1 - k0
    _check_samples(n, dt)
    ts = t_start + dt * np.arange(k0, k0 + max(n, 0))
    sx = x_g - scene.v_ground * ts
    keep = scene.roi.contains(sx, np.full_like(sx, y))
    ts, sx = ts[keep], sx[keep]
    if ts.size == 0:
        raise ValueError("no samples fall inside the region of interest")
    sy = np.full_like(sx, y)

    side = int(y < 0)
    if mode in ("static", "dft"):
        sid, g_serve, _ = (a[side] for a in _serve(scene, sx, sy, book, 0))
    else:
        # one event per iteration from the first sample's to the last one's,
        # so every sample is written by the event of its own iteration
        g_s = _iteration(scene, ts)
        sid, g_serve = np.empty(ts.size, dtype=np.int64), np.empty(ts.size)
        for g in range(int(g_s[0]), int(g_s[-1]) + 1):
            t = ts[0] if g == g_s[0] else g * scene.lattice.t_c
            held = _serve(scene, [x_g - scene.v_ground * t], [y], book,
                          g)[0][side, 0]
            at = np.flatnonzero(g_s == g)
            targets, ids = book.snapshot(g)
            tx, ty = targets[ids == held].T
            sid[at] = held
            for a in range(0, at.size, KERNEL_EVALS):  # the held beam alone
                i = at[a:a + KERNEL_EVALS]
                g_serve[i] = _gains(scene, sx[i], sy[i], tx, ty)[:, 0]

    metric = snr_db(g_serve, slant_range(sx, sy, scene.h_sat), scene.link)
    return TimeSeries(t_s=ts, serving_id=sid.astype(np.int64), metric_db=metric)


# ---------------------------------------------------------------------------
# handover maps
# ---------------------------------------------------------------------------

def _swept_handover_counts(scene: Scene, py: np.ndarray, book: Codebook,
                           dt: float) -> np.ndarray:
    """Static-codebook handovers at the four sides of (x, py), py >= 0, shape
    (4, n): at (x, py), (x, -py), (-x, py) and (-x, -py).

    Every point of a row sees the same sweep, and row -y sees it mirrored,
    so each row y >= 0 is swept once for both signs, and column -x repeats
    column x. The rows' samples go through _serve together, BLOCK samples
    per call, and a row counts the ID changes between its own consecutive
    samples. Rows are built a group at a time, the rows whose first sample
    falls in one BLOCK of the running sample count, so a group holds at most
    a block and a row.
    """
    ys = np.unique(py)
    x_b = scene.roi.x_extent(ys)
    if not math.isfinite(scene.v_ground * dt):
        raise ValueError(f"dt = {dt} s overflows the ground step")
    with np.errstate(over="ignore"):  # an overflowing count is refused
        n = 2.0 * x_b / (scene.v_ground * dt) + 1e-9
    _check_samples(n.max(), dt)
    n = np.floor(n).astype(np.int64) + 1
    counts = np.empty((2, ys.size), dtype=np.int64)
    group = (np.cumsum(n) - n) // BLOCK
    for c in np.unique(group):
        rows = np.flatnonzero(group == c)
        sweeps = []
        for r in rows:
            sx = x_b[r] - scene.v_ground * dt * np.arange(n[r])
            sweeps.append(sx[scene.roi.contains(sx, ys[r])])
        sizes = np.array([sx.size for sx in sweeps])
        sx, sy = np.concatenate(sweeps), np.repeat(ys[rows], sizes)
        sid = np.empty((2, sx.size), dtype=np.int64)
        for a in range(0, sx.size, BLOCK):
            s = slice(a, a + BLOCK)
            sid[:, s] = _serve(scene, sx[s], sy[s], book, 0)[0]
        for r, a, b in zip(rows, np.cumsum(sizes) - sizes, np.cumsum(sizes)):
            counts[:, r] = np.count_nonzero(sid[:, a + 1:b] != sid[:, a:b - 1],
                                            axis=1)
    return np.tile(counts[:, np.searchsorted(ys, py)], (2, 1))


def _dynamic_handover_counts(scene: Scene, px: np.ndarray,
                             py: np.ndarray) -> np.ndarray:
    """Dynamic-codebook handovers: ID changes across the association events,
    at (px, |py|), (px, -|py|), (-px, |py|) and (-px, -|py|), shape (4, n).

    Point i associates at its entry t_in[i], then at each update instant
    tau = g * t_c in (t_in[i], t_out[i]], for both signs of y. Its x-mirror
    (-px[i], py[i]) has the window (-t_out[i], -t_in[i]): at loop index g it
    associates under iteration -g, where its update position negates point
    i's at g, so it meets its events in reverse time order, entry last, which
    counts the same changes. One `_serve` call at g, with h = -g, answers
    both: it evaluates once each point that either side updates at that
    index (the half-open window and the 1e-9 s tolerance of `_iteration`
    make the two sets differ), and each side's entries (at its own entry
    time) as points of their own, a mirror's negated.
    """
    v, t_c = scene.v_ground, scene.lattice.t_c
    t_in, t_out = pass_window(scene, (px, py))
    m_in = -t_out  # the mirrors' entry times
    g_in, g_out = _iteration(scene, t_in), _iteration(scene, t_out)
    h_in, h_out = _iteration(scene, m_in), _iteration(scene, -t_in)
    prev = np.full((4, px.size), -1, dtype=np.int64)
    counts = np.full((4, px.size), -1, dtype=np.int64)  # entry: no handover
    for g in range(min(int(g_in.min()), -int(h_out.max())),
                   max(int(g_out.max()), -int(h_in.min())) + 1):
        on, entry = (g_in <= g) & (g <= g_out), g_in == g
        x_on, x_entry = (h_in <= -g) & (-g <= h_out), h_in == -g
        upd, x_upd = on & ~entry, x_on & ~x_entry
        both = np.flatnonzero(upd | x_upd)
        ea, eb = np.flatnonzero(on & entry), np.flatnonzero(x_on & x_entry)
        if both.size + ea.size + eb.size == 0:
            continue
        sx = np.concatenate([px[both] - v * (g * t_c), px[ea] - v * t_in[ea],
                             -(-px[eb] - v * m_in[eb])])
        pts = np.concatenate([both, ea, eb])
        sid = _serve(scene, sx, py[pts], scene.hex, g, -g)[0]
        # the columns each side associates at: its updates and its entries
        sec = np.repeat([0, 1, 2], [both.size, ea.size, eb.size])
        own = np.stack([sec == 1, sec == 2])
        own[:, :both.size] = upd[both], x_upd[both]
        for c, p, s, k in zip(counts, prev, sid, own[[0, 0, 1, 1]]):
            c[pts[k]] += s[k] != p[pts[k]]  # 1-D indexing, row by row
            p[pts[k]] = s[k]
    return counts


def handover_map(scene: Scene, mode: str = "dynamic",
                 step: float = DEFAULT_HANDOVER_STEP,
                 dt: float = None) -> FieldMap:
    """Serving-ID changes over each ground point's full in-ROI window."""
    book = codebook_for(scene, mode, PASS_MODES)
    if dt is None:
        dt = scene.default_dt
    if mode == "dynamic":
        return _roi_field(scene.roi, step, "handover_grid_step_m",
                          lambda px, py: _dynamic_handover_counts(scene, px, py))
    return _roi_field(scene.roi, step, "handover_grid_step_m",
                      lambda px, py: _swept_handover_counts(scene, py, book, dt))


def dominance_violations(dynamic_map: FieldMap,
                         static_map: FieldMap) -> np.ndarray:
    """Grid cells where the dynamic codebook hands over MORE than the static.

    The dynamic scheme dominates almost everywhere; exceptions cluster near
    serving-cell boundary curves, whose satellite-frame position shifts
    slightly while a point crosses. Rows are (x_m, y_m, dynamic, static) so
    callers can report rather than silently tolerate them.
    """
    if (dynamic_map.xs.size != static_map.xs.size
            or dynamic_map.ys.size != static_map.ys.size):
        raise ValueError("maps must share the same grid")
    d, s = dynamic_map.values, static_map.values
    iy, ix = np.nonzero(np.isfinite(d) & np.isfinite(s) & (d > s))
    return np.column_stack([dynamic_map.xs[ix], dynamic_map.ys[iy],
                            d[iy, ix], s[iy, ix]])
