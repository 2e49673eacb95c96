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
whatever the grid and codebook sizes. Maps and CDFs share one block loop,
`_roi_blocks`: a map holds its value grid plus one block, and a CDF counts
each block's values as they come, so it holds one block and no grid. A CDF
of several modes visits each block once: the kernel's per-point trig
(`point_terms`), the slant range, the noise and the side masks are computed
once per block, and each mode in turn is served from them, counted and
released before the next, so it holds one mode's block at a time.

The scene is symmetric about both axes, bit for bit: the grid axes are
closed under x -> -x and y -> -y, and the kernel is odd in x and in y
(np.sin is odd, np.cos even, and IEEE negation commutes with every
rounding). So a beam's gain at a mirrored point is the kernel's value at the
point itself toward the beam's mirrored target. `_serve` applies this one
rule: it answers the mirror images of (px, |py|) from one kernel call over
the distinct signed targets they need, which for a codebook closed under a
flip are its own targets, and the sides that read the same rows share one
max walk over them; only the SINR fill asks it for the interferer sums.
Maps fill the quadrant x >= 0, y >= 0 and write all four images, sweeps run
the rows y >= 0, and a single point takes the side matching the sign of its
y. The dynamic codebook's association events pair point x at update index g
with -x at -g, whose satellite-frame positions are negatives of each other.
Indices g and g + K share their targets and only the IDs advance, so one
`_serve` call takes per-point iterations and serves several whole indices of
one residue class mod K: `_dynamic_events` is the one schedule of that
policy, which the handover map runs over a block of points, counting the
changes in a table of each side's events, and the pass series over its one
point. The schedule starts at its first loop index, which always holds a
column, walks each class in ascending order, builds each index's columns
once, and makes a call once its indices hold BLOCK // 4 columns or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import ArrayGeometry
from .codebook import Codebook, LatticeSpec
from .fields import CdfCurve, FieldMap, TimeSeries
from .geometry import Roi, slant_range
from .kernels import gain_matrix, point_terms
from .link import LinkParams, noise_rel, sinr_db, snr_db

DEFAULT_GRID_STEP = 2000.0      # coverage-map spacing [m]
DEFAULT_HANDOVER_STEP = 5000.0  # handover-map spacing [m]
UPDATE_SUBSTEPS = 20            # time samples per codebook update period
TIME_TOL = 1e-9                 # [s] before g * t_c that still counts as g
BLOCK = 2**15                   # points per _serve call of a map or sweep
KERNEL_EVALS = 81920            # point x beam evaluations per gain-kernel call
MAX_SAMPLES = 2**22             # time samples of one pass series or sweep row
MAX_CELLS = 2**23               # grid nodes of one map's ROI box
CDF_THRESHOLDS_DB = np.arange(-10.0, 20.0001, 0.25)  # SINR CDF abscissae [dB]
CDF_THRESHOLDS_DB.flags.writeable = False            # shared by every curve

MAP_MODES = ("hex", "dft")
PASS_MODES = ("static", "dynamic", "dft")
METRICS = ("snr", "sinr", "cell")


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
    dt: float  # default time step of pass series and handover sweeps [s]


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
    # nodes per half axis: a Python float quotient past float range is inf,
    # not an error, and Python ints count any finite grid exactly
    nx, ny = (math.floor(h) if math.isfinite(h) else math.inf
              for h in (float(roi.semi_x) / float(step),
                        float(roi.semi_y) / float(step)))
    cells = (2 * nx + 1) * (2 * ny + 1)
    if cells > MAX_CELLS:
        from decimal import Decimal  # only this error needs it: not on import
        raise ValueError(f"{key} = {step} m puts {Decimal(cells):.4g} nodes "
                         f"in one map, more than the {MAX_CELLS} it may hold")
    return (step * np.arange(-nx, nx + 1, dtype=float),
            step * np.arange(-ny, ny + 1, dtype=float))


def codebook_for(scene: Scene, mode: str, modes=MAP_MODES) -> Codebook:
    """The codebook a mode serves from: the DFT grid for "dft" and the hex
    cycle for every other name in modes (MAP_MODES, or PASS_MODES for pass
    series and handover maps)."""
    if mode not in modes:
        raise ValueError(f"unknown codebook mode {mode!r}")
    return scene.dft if mode == "dft" else scene.hex


def _gains(scene: Scene, px, py, tx, ty, *terms) -> np.ndarray:
    """The kernel at (px, py), taking their `point_terms` when terms holds
    them."""
    g = scene.geometry
    return gain_matrix(px, py, tx, ty, scene.h_sat, g.subarray_nx,
                       g.subarray_ny, g.spacing, *terms)


def _max_walk(gains: np.ndarray,
              rows: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running max over gains' rows in the order listed: the max at each
    point, the position in rows of its first maximal row, and a mask of the
    points where a row equalled the running max at its turn, which holds
    every point where two rows tie at the max (and may hold a few more)."""
    k = np.zeros(gains.shape[1], dtype=np.intp)
    best = gains[rows[0]].copy()
    tie = np.zeros(best.shape, dtype=bool)
    for b in range(1, len(rows)):
        row = gains[rows[b]]
        tie |= row == best
        k[row > best] = b
        np.maximum(best, row, out=best)
    return best, k, tie


def _serve(scene: Scene, px, py, book: Codebook, g, h=None,
           interference: bool = True,
           terms: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray | None]:
    """Serving ID, serving gain and summed interferer gain of book's global
    iteration g at (px, |py|) and (px, -|py|), and with h, of iteration h at
    (-px, |py|) and (-px, -|py|): each of shape (2, n points), or (4, n
    points) with h, one row per side in that order. With interference False
    the interferer sums are not formed and None takes their place. terms,
    if given, are the `point_terms` of (px, |py|) for the scene's array,
    which each kernel call takes its slice of instead of computing its own.

    g and h are each one iteration, or one per point, all of one residue mod
    K, so every point of a side reads the same targets and only its IDs
    advance: by advance x its cycles past the first point's (mod n_beams).
    The interferer sums need one iteration per side, and the error for an
    iteration with no beams names the first point's.

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
    target. Sides whose beams read the same set of rows share one
    `_max_walk` over that set: both y sides always, and all four where the
    codebook is closed under the x-flip; sets are compared exactly, never
    by size. The max is exact in any order, so it is every sharing side's
    serving gain, and each side maps the first maximal row to its lowest ID
    on that row, advanced at each point. At the points the walk marks as
    possible ties, each side takes instead the lowest of its advanced IDs on
    the rows equal to the max, so ties go to the lowest ID on every side,
    wrapped IDs included. The interferer sum adds each side's rows in its
    own ascending-ID order, one sequential sum per point, less the serving
    gain. So each side gets, bit for bit, what a direct walk over its beams
    at its points would give, whatever the slicing. An iteration with no
    beams raises ValueError.
    """
    n_beams = book.n_beams
    sides, rows = [], {}  # rows: signed target (x, y) -> kernel row
    for sx, it in ((1.0, g),) if h is None else ((1.0, g), (-1.0, h)):
        # shift: each point's ID advance past the first point's, or None
        first, shift = it, None
        if np.ndim(it):
            first = int(it[0])
            shift = (book.advance * (it // book.cycle_len
                                     - first // book.cycle_len) % n_beams)
        targets, ids = book.snapshot(first)
        if ids.size == 0:
            raise ValueError(f"iteration {first} has no beams in the ROI")
        tx = (sx * targets[:, 0]).tolist()
        for ty in (targets[:, 1].tolist(), (-targets[:, 1]).tolist()):
            sides.append(([rows.setdefault(t, len(rows)) for t in zip(tx, ty)],
                          ids.tolist(), shift))
    walks = {}  # row set -> [its rows, [(side, lowest ID on each row, shift)]]
    for side, (order, ids, shift) in enumerate(sides):
        walk, members = walks.setdefault(frozenset(order),
                                         [list(dict.fromkeys(order)), []])
        lowest = dict(zip(reversed(order), reversed(ids)))
        members.append((side, np.array([lowest[r] for r in walk]), shift))
    tx, ty = np.array(list(rows)).T
    px = np.asarray(px, dtype=float)
    py = np.abs(np.asarray(py, dtype=float))
    sid = np.empty((len(sides), px.size), dtype=np.int64)
    g_serve = np.empty(sid.shape)
    interf = np.empty(sid.shape) if interference else None
    step = max(1, KERNEL_EVALS // tx.size)
    for a in range(0, px.size, step):
        s = slice(a, a + step)
        gains = _gains(scene, px[s], py[s], tx, ty,
                       *(() if terms is None else (terms[:, s],))).T
        for walk, members in walks.values():
            best, k, tie = _max_walk(gains, walk)
            for side, ids, shift in members:
                sid[side, s] = (ids[k] if shift is None
                                else (ids[k] + shift[s]) % n_beams)
                g_serve[side, s] = best
            c = np.flatnonzero(tie)
            if c.size:  # each side's lowest ID among the rows at the max
                hit = gains[np.ix_(walk, c)] == best[c]
                for side, ids, shift in members:
                    ids = (ids[:, None] if shift is None
                           else (ids[:, None] + shift[a + c]) % n_beams)
                    sid[side, a + c] = np.where(hit, ids, n_beams).min(axis=0)
        if interference:
            for side, (order, _, _) in enumerate(sides):
                total = gains[order[0]].copy()
                for r in order[1:]:
                    total += gains[r]
                interf[side, s] = total - g_serve[side, s]
        del gains  # freed before the next slice's kernel call allocates
    return sid, g_serve, interf


def serving_beam(scene: Scene, point_xy, mode: str = "hex",
                 iteration: int = 0) -> tuple[int, float]:
    """Serving beam ID and its linear gain at one satellite-frame point."""
    sid, g, _ = _serve(scene, [point_xy[0]], [point_xy[1]],
                       codebook_for(scene, mode), iteration,
                       interference=False)
    side = int(point_xy[1] < 0)
    return int(sid[side, 0]), float(g[side, 0])


def _roi_blocks(roi: Roi, xs: np.ndarray, ys: np.ndarray):
    """The one block loop over a grid's quadrant: yields (r, m, px, py) per
    block of whole rows r, r + 1, ... holding about BLOCK quadrant nodes,
    with m the block's quadrant ROI mask, shape (rows, xs.size - xs.size //
    2), and px, py the coordinates of m's nodes, all with x >= 0, y >= 0.

    The grid and the ellipse are symmetric about y = 0 and about x = 0 bit
    for bit (ys[-1 - i] == -ys[i], and the same for xs), so a consumer
    evaluates only these nodes and takes the four sides of `_serve`: its
    values at (px, py), (px, -py), (-px, py) and (-px, -py). Each block's
    quadrant is tested against the ROI as it is yielded, so a consumer that
    keeps no grid holds one block.
    """
    c = xs.size // 2
    rows = max(1, BLOCK // (xs.size - c))
    for r in range(ys.size // 2, ys.size, rows):
        m = roi.contains(xs[c:], ys[r:r + rows, None])
        yield (r, m, np.broadcast_to(xs[c:], m.shape)[m],
               np.broadcast_to(ys[r:r + rows, None], m.shape)[m])


def _roi_field(roi: Roi, step: float, key: str, fill) -> FieldMap:
    """Grid over the ROI box holding fill's values at in-ROI nodes, NaN
    elsewhere, assembled from `_roi_blocks`: fill(px, py) returns the four
    sides at a block's nodes, shape (4, n), treating each point, or each
    row, on its own. Row -y takes the second side, column -x the last two;
    the row y = 0 and the column x = 0 take the first, so nothing but the
    value grid grows with the grid.
    """
    xs, ys = roi_grid(roi, step, key)
    vals = np.full((ys.size, xs.size), np.nan)
    # row i of vals[::-1] is row -y, column i of vals[:, ::-1] column -x
    sides = (vals, vals[::-1], vals[:, ::-1], vals[::-1, ::-1])
    c = xs.size // 2
    for r, m, px, py in _roi_blocks(roi, xs, ys):
        out = fill(px, py)
        for side in (3, 2, 1, 0):  # side 0 last: the axes take it
            sides[side][r:r + m.shape[0], c:][m] = out[side]
    return FieldMap(xs=xs, ys=ys, values=vals)


def _check_dt(dt: float) -> None:
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")


def _check_samples(n: float, dt: float) -> None:
    if not n <= MAX_SAMPLES:
        raise ValueError(f"dt = {dt} s needs {n:.4g} samples in one pass, "
                         f"more than the {MAX_SAMPLES} it may hold")


# ---------------------------------------------------------------------------
# maps and CDFs
# ---------------------------------------------------------------------------

def _metric_fill(scene: Scene, metric: str, mode: str, iteration: int):
    """The `_roi_blocks` fill of a coverage map: metric at the four sides."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    book = codebook_for(scene, mode)

    def at(px, py):
        sid, g_serve, interf = _serve(scene, px, py, book, iteration,
                                      iteration,
                                      interference=metric == "sinr")
        if metric == "cell":
            return sid
        dist = slant_range(px, py, scene.h_sat)
        if metric == "snr":
            return snr_db(g_serve, dist, scene.link)
        return sinr_db(g_serve, interf, noise_rel(dist, scene.link))
    return at


def coverage_map(scene: Scene, metric: str = "sinr", mode: str = "hex",
                 iteration: int = 0, step: float = DEFAULT_GRID_STEP) -> FieldMap:
    """Satellite-frame map of SNR, SINR, or serving-cell ID over the ROI."""
    return _roi_field(scene.roi, step, "grid_step_m",
                      _metric_fill(scene, metric, mode, iteration))


def _count_above(vals: np.ndarray, thresholds_db: np.ndarray):
    """Number of values, and how many of them exceed each threshold: vals,
    the caller's one gathered copy of the finite values, is sorted in
    place."""
    vals.sort()
    return vals.size, vals.size - np.searchsorted(vals, thresholds_db,
                                                  side="right")


def _cdf(n: int, above: np.ndarray, thresholds_db: np.ndarray,
         label: str) -> CdfCurve:
    if n == 0:
        raise ValueError("map has no in-ROI cells")
    return CdfCurve(thresholds_db=thresholds_db, probs=above / n, label=label)


def cdf_from_map(fmap: FieldMap, thresholds_db: np.ndarray,
                 label: str = "") -> CdfCurve:
    """Complementary CDF prob(value > threshold) over a map's in-ROI cells."""
    vals = fmap.values
    return _cdf(*_count_above(vals[np.isfinite(vals)], thresholds_db),
                thresholds_db, label)


def sinr_cdf(scene: Scene, modes=MAP_MODES, iteration: int = 0,
             step: float = DEFAULT_GRID_STEP) -> list[CdfCurve]:
    """Coverage curves prob(SINR > threshold), one per mode, over the in-ROI
    grid at the thresholds CDF_THRESHOLDS_DB.

    The values are counted block by block as `_roi_blocks` yields them, so
    no map is built: each grid node is counted once, from the side the map
    would write there (the row y = 0 and the column x = 0 are not mirrored
    onto themselves), and the integer counts, so the curves, are those of
    `cdf_from_map` over `coverage_map`.

    Every mode's codebook is resolved before the first block, and each block
    is visited once for all modes: its slant ranges, noise and side masks
    are computed once, and so are its points' kernel terms when more than
    one mode shares them. Each mode is then served, its SINR formed and
    counted, and its arrays released before the next mode is served, so the
    loop holds one mode's block at a time.
    """
    books = [codebook_for(scene, mode) for mode in modes]
    geom = scene.geometry
    xs, ys = roi_grid(scene.roi, step, "grid_step_m")
    n = np.zeros(len(books), dtype=np.int64)
    above = np.zeros((len(books), CDF_THRESHOLDS_DB.size), dtype=np.int64)
    for r, m, px, py in _roi_blocks(scene.roi, xs, ys):
        # the sides that land on nodes of their own: y != 0, x != 0, both
        y_off = np.broadcast_to((np.arange(r, r + m.shape[0])
                                 != ys.size // 2)[:, None], m.shape)[m]
        x_off = np.broadcast_to(np.arange(m.shape[1]) != 0, m.shape)[m]
        own = np.stack([np.ones_like(y_off), y_off, x_off, y_off & x_off])
        # one mode shares no terms: its kernel calls take their own slices'
        terms = (point_terms(px, py, scene.h_sat, geom.subarray_nx,
                             geom.subarray_ny, geom.spacing)
                 if len(books) > 1 else None)
        rel = noise_rel(slant_range(px, py, scene.h_sat), scene.link)
        for i, book in enumerate(books):
            out = sinr_db(*_serve(scene, px, py, book, iteration, iteration,
                                  terms=terms)[1:], rel)
            n_b, above_b = _count_above(out[own & np.isfinite(out)],
                                        CDF_THRESHOLDS_DB)
            del out  # before the next mode is served
            n[i] += n_b
            above[i] += above_b
    return [_cdf(n_i, above_i, CDF_THRESHOLDS_DB, mode)
            for n_i, above_i, mode in zip(n, above, modes)]


# ---------------------------------------------------------------------------
# pass time series
# ---------------------------------------------------------------------------

def pass_window(scene: Scene, ut_xy):
    """Times between which fixed ground point(s) sit inside the moving ROI."""
    x_g, x_b = np.asarray(ut_xy[0], dtype=float), scene.roi.x_extent(ut_xy[1])
    return (x_g - x_b) / scene.v_ground, (x_g + x_b) / scene.v_ground


def _iteration(scene: Scene, t) -> np.ndarray:
    """Dynamic iteration g at time(s) t; up to TIME_TOL before g * t_c counts
    as g."""
    return np.floor((np.asarray(t) + TIME_TOL)
                    / scene.lattice.t_c).astype(np.int64)


def pass_timeseries(scene: Scene, ut_xy, mode: str = "dynamic",
                    duration: float = None, dt: float = None,
                    t_start: float = 0.0) -> TimeSeries:
    """Serving ID and SNR for a fixed ground point while it crosses the ROI.

    Samples run from t_start at spacing dt (default scene.dt) while the point
    is inside the ROI, up to its exit or the end of duration. Dynamic mode
    runs the handover map's `_dynamic_events` with the first and last
    samples as the window: it associates at the first sample and at each
    update instant tau = g * t_c up to the last, and a sample reports the
    beam held since then, so a series ending before the window's final tau
    can show one change fewer than `handover_map`. The held IDs come from
    the schedule's batches, and the held beams' gains from one kernel pass
    over the samples and the distinct held targets, KERNEL_EVALS at a time.
    """
    book = codebook_for(scene, mode, PASS_MODES)
    if dt is None:
        dt = scene.dt
    x_g, y = float(ut_xy[0]), float(ut_xy[1])
    for name, value in dict(x=x_g, y=y, t_start=t_start,
                            duration=duration).items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    _check_dt(dt)
    if duration is not None and duration < 0:
        raise ValueError("duration must be non-negative")
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
        sid, g_serve, _ = _serve(scene, sx, sy, book, 0, interference=False)
        sid, g_serve = sid[side].copy(), g_serve[side]  # a row, not a view
    else:
        # the handover map's events for this one point, with its first and
        # last samples as the window: its event e is at update index g0 + e,
        # and each sample holds the beam of its own index's event
        g0 = int(_iteration(scene, ts[0]))
        events, batches = _dynamic_events(scene, np.array([x_g]), sy[:1],
                                          ts[:1], ts[-1:])
        held = np.empty(events[0, 0], dtype=np.int64)
        for _, ev, sid, own in batches:
            held[ev[0, own[0]]] = sid[side, own[0]]
        # each event's held target: the one of its base ID in its residue
        cyc, k = np.divmod(np.arange(g0, g0 + held.size), book.cycle_len)
        base = (held - book.advance * cyc) % book.n_beams
        rows, col = {}, []  # distinct held target -> its column of the gains
        for r, b in zip(k.tolist(), base.tolist()):
            t = book.targets[r][np.searchsorted(book.ids[r], b)]
            col.append(rows.setdefault(tuple(t.tolist()), len(rows)))
        e = _iteration(scene, ts) - g0
        sid, col = held[e], np.array(col)[e]
        tx, ty = np.array(list(rows)).T
        g_serve = np.empty(ts.size)
        step = max(1, KERNEL_EVALS // tx.size)
        for a in range(0, ts.size, step):
            s = slice(a, a + step)
            g_serve[s] = _gains(scene, sx[s], sy[s], tx, ty)[
                np.arange(col[s].size), col[s]]

    metric = snr_db(g_serve, slant_range(sx, sy, scene.h_sat), scene.link)
    return TimeSeries(t_s=ts, serving_id=sid, metric_db=metric)


# ---------------------------------------------------------------------------
# handover maps
# ---------------------------------------------------------------------------

def _swept_handover_counts(scene: Scene, py: np.ndarray, book: Codebook,
                           dt: float) -> np.ndarray:
    """Static-codebook handovers at the four sides of (x, py), py >= 0, shape
    (4, n): at (x, py), (x, -py), (-x, py) and (-x, -py).

    Every point of a row sees the same sweep, and row -y sees it mirrored,
    so each row y >= 0 is swept once for both signs, and column -x repeats
    column x. The rows' samples run one after another under one running
    sample index, BLOCK indices per _serve call; a row counts the ID changes
    between its own consecutive in-ROI samples, and each call carries the
    previous call's last sample, so a row split between two calls counts the
    change at the split.
    """
    ys = np.unique(py)
    x_b = scene.roi.x_extent(ys)
    if not math.isfinite(scene.v_ground * dt):
        raise ValueError(f"dt = {dt} s overflows the ground step")
    with np.errstate(over="ignore"):  # an overflowing count is refused
        n = 2.0 * x_b / (scene.v_ground * dt) + 1e-9
    _check_samples(n.max(), dt)
    n = np.floor(n).astype(np.int64) + 1
    first = np.cumsum(n) - n  # each row's first running sample index
    counts = np.zeros((2, ys.size), dtype=np.int64)
    row, sid = np.array([-1]), np.zeros((2, 1), dtype=np.int64)
    for a in range(0, n.sum(), BLOCK):
        s = np.arange(a, min(a + BLOCK, n.sum()))
        r = np.searchsorted(first, s, side="right") - 1
        sx = x_b[r] - scene.v_ground * dt * (s - first[r])
        keep = scene.roi.contains(sx, ys[r])
        row = np.append(row[-1], r[keep])
        sid = np.hstack([sid[:, -1:],
                         _serve(scene, sx[keep], ys[row[1:]], book, 0,
                                interference=False)[0]])
        changed = (sid[:, 1:] != sid[:, :-1]) & (row[1:] == row[:-1])
        for c, k in zip(counts, changed):
            c += np.bincount(row[1:][k], minlength=ys.size)
    return np.tile(counts[:, np.searchsorted(ys, py)], (2, 1))


def _dynamic_events(scene: Scene, px: np.ndarray, py: np.ndarray,
                    t_in: np.ndarray, t_out: np.ndarray):
    """The dynamic codebook's association events at the points (px, py) over
    the windows (t_in, t_out), and at their x-mirrors (-px, py) over
    (-t_out, -t_in): returns (events, batches), with events, shape
    (2, points), the number of events of each point (row 0) and of its
    mirror (row 1).

    Point i associates at its entry t_in[i] under iteration g_in[i], then at
    each update instant tau = g * t_c, g in (g_in[i], g_out[i]]: its event
    g - g_in[i] is at loop index g. Its mirror associates under iteration
    -g at loop index g, where its update position negates point i's, so it
    meets its events in reverse time order, from its last at loop index
    x_end[i] up to its entry at x_in[i]: event x_in[i] - g. The schedule
    holds only these four indices per point. At each loop index one column
    evaluates once each point that either side updates there (the half-open
    window and the TIME_TOL tolerance of `_iteration` make the two sets
    differ), and each side's entries (at its own entry time) as columns of
    their own, a mirror's negated.

    batches yields (pts, ev, sid, own) per `_serve` call. A call serves
    whole loop indices of one residue class mod K, in ascending order, with
    iterations g on the point's sides and -g on the mirror's, since g and
    g + K share their targets. The schedule starts at its first loop index,
    which always holds a column (an entry of a point, or an update or entry
    of a mirror). Each class is walked from there: an index's columns are
    built once, an index with none is skipped, and the call is made once
    its indices hold BLOCK // 4 columns or more, so a call holds fewer than
    BLOCK // 4 columns before its last index. pts holds the point of each
    column, sid the (4, pts.size) IDs of `_serve`'s four sides there, own,
    shape (2, pts.size), the columns at which the point (row 0) and its
    mirror (row 1) associate, and ev the number of that event for each side.
    """
    v, t_c, cycle_len = scene.v_ground, scene.lattice.t_c, scene.hex.cycle_len
    g_in, g_out = _iteration(scene, t_in), _iteration(scene, t_out)
    x_in, x_end = -_iteration(scene, -t_out), -_iteration(scene, -t_in)
    lo = min(int(g_in.min()), int(x_end.min()))
    hi = max(int(g_out.max()), int(x_in.max())) + 1

    def columns(g):  # point, position and owners of loop index g's columns
        upd, x_upd = (g_in < g) & (g <= g_out), (x_end <= g) & (g < x_in)
        both = (upd | x_upd).nonzero()[0]
        ea, eb = (g_in == g).nonzero()[0], (x_in == g).nonzero()[0]
        own = np.zeros((2, both.size + ea.size + eb.size), dtype=bool)
        own[:, :both.size] = upd[both], x_upd[both]
        own[0, both.size:own.shape[1] - eb.size] = True  # the entries
        own[1, own.shape[1] - eb.size:] = True
        return (np.concatenate([both, ea, eb]),
                np.concatenate([px[both] - v * (g * t_c),
                                px[ea] - v * t_in[ea], px[eb] - v * t_out[eb]]),
                own)

    def serve(parts):  # one call over whole indices: (g, its columns) each
        gs, pts, sx, own = zip(*parts)
        g = gs[0] if len(gs) == 1 else np.repeat(gs, [p.size for p in pts])
        pts, sx, own = (np.concatenate(a, axis=-1) for a in (pts, sx, own))
        sid = _serve(scene, sx, py[pts], scene.hex, g, -g,
                     interference=False)[0]
        return pts, np.stack([g - g_in[pts], x_in[pts] - g]), sid, own

    def batches():
        for r in range(lo, min(lo + cycle_len, hi)):
            parts, held = [], 0
            for g in range(r, hi, cycle_len):
                pts, sx, own = columns(g)
                if pts.size:
                    parts.append((g, pts, sx, own))
                    held += pts.size
                    if held >= BLOCK // 4:
                        yield serve(parts)
                        parts, held = [], 0
            if parts:
                yield serve(parts)
    return np.stack([g_out - g_in, x_in - x_end]) + 1, batches()


def _dynamic_handover_counts(scene: Scene, px: np.ndarray,
                             py: np.ndarray) -> np.ndarray:
    """Dynamic-codebook handovers: ID changes across the `_dynamic_events`
    of each point's full in-ROI window, at (px, |py|), (px, -|py|),
    (-px, |py|) and (-px, -|py|), shape (4, n).

    Each batch's IDs land in one (4, events, points) table in each side's
    event order, of the smallest integer type that holds n_beams, which
    fills the slots past a point's last event; the count is the changes
    along the event axis, less the one into that fill.
    """
    t_in, t_out = pass_window(scene, (px, py))
    events, batches = _dynamic_events(scene, px, py, t_in, t_out)
    fill = scene.hex.n_beams
    table = np.full((4, int(events.max()), px.size), fill,
                    dtype=np.min_scalar_type(fill))
    flat = table.reshape(4, -1)
    for pts, ev, sid, own in batches:
        for side, e, k in zip((0, 2), ev, own):  # the point's, the mirror's
            at = (e * px.size + pts)[k]
            flat[side, at] = sid[side][k]
            flat[side + 1, at] = sid[side + 1][k]
    return (np.array([np.count_nonzero(t[1:] != t[:-1], axis=0)
                      for t in table]) - (table[:, -1] == fill))


def handover_map(scene: Scene, mode: str = "dynamic",
                 step: float = DEFAULT_HANDOVER_STEP,
                 dt: float = None) -> FieldMap:
    """Serving-ID changes over each ground point's full in-ROI window. dt,
    the sweep's sample spacing (default scene.dt), must be finite and
    positive in every mode."""
    book = codebook_for(scene, mode, PASS_MODES)
    if dt is None:
        dt = scene.dt
    _check_dt(dt)
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
    if not (np.array_equal(dynamic_map.xs, static_map.xs)
            and np.array_equal(dynamic_map.ys, static_map.ys)):
        raise ValueError("maps must share the same grid")
    d, s = dynamic_map.values, static_map.values
    iy, ix = np.nonzero(np.isfinite(d) & np.isfinite(s) & (d > s))
    return np.column_stack([dynamic_map.xs[ix], dynamic_map.ys[iy],
                            d[iy, ix], s[iy, ix]])
