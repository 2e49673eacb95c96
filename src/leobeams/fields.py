"""Output containers: gridded maps, pass time series, CDF curves.

Every CSV the package writes goes through one writer, `write_csv(path,
header, blocks)`. A block is a row format plus a flat tuple of Python
values, never lines; the writer formats it with one `%` call and writes it
at once, so identical inputs produce byte-identical files. A column that
repeats across a block's rows is baked into its format instead of passed as
values: a map's x and y labels, a phase table's iteration and beam.
`column_blocks` cuts arrays into blocks of `BLOCK_LINES` rows, so transient
memory is one block however large the map or series. Maps can also render
to binary PPM (P6), an uncompressed raster any image viewer opens.

Color ramp (fixed, linear between anchors on the normalized value t):
    t=0.00 -> ( 20,  20, 120)   deep blue
    t=0.25 -> ( 30, 110, 200)   blue
    t=0.50 -> ( 40, 200, 150)   teal
    t=0.75 -> (230, 200,  50)   amber
    t=1.00 -> (220,  50,  30)   red
NaN cells (points outside the region of interest) render mid-gray (80,80,80).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

BLOCK_LINES = 4096  # rows per block handed to write_csv

_RAMP_T = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_RAMP_RGB = np.array([
    [20, 20, 120],
    [30, 110, 200],
    [40, 200, 150],
    [230, 200, 50],
    [220, 50, 30],
], dtype=float)

NODATA_RGB = (80, 80, 80)


def write_csv(path, header: str, blocks) -> None:
    """Write `header` and then every block to path.

    A block is a pair (fmt, values): `fmt` holds the block's rows, each
    ending in a newline, and is written as `fmt % values` in one call.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for fmt, values in blocks:
            fh.write(fmt % values)


def column_blocks(row_fmt: str, *arrays):
    """The equal-length arrays as write_csv blocks of `BLOCK_LINES` rows:
    `row_fmt` repeated once per row over the rows' values in order, each
    column slice converted by `.tolist()`."""
    for i in range(0, len(arrays[0]), BLOCK_LINES):
        cols = [a[i:i + BLOCK_LINES].tolist() for a in arrays]
        yield row_fmt * len(cols[0]), tuple(chain.from_iterable(zip(*cols)))


def color_ramp(t) -> np.ndarray:
    """Map normalized values in [0, 1] to uint8 RGB via the fixed ramp."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    out = np.empty(t.shape + (3,), dtype=np.uint8)
    for ch in range(3):
        out[..., ch] = np.rint(np.interp(t, _RAMP_T, _RAMP_RGB[:, ch])).astype(np.uint8)
    return out


@dataclass(frozen=True)
class FieldMap:
    """A scalar field sampled on a regular grid; NaN marks no-data cells.

    values[iy, ix] corresponds to (xs[ix], ys[iy]).
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.ys.size, self.xs.size):
            raise ValueError("values must have shape (len(ys), len(xs))")

    def to_csv(self, path) -> None:
        """Write rows x_m,y_m,value (y outer, x inner); no-data cells as nan.

        A block is whole grid rows. One row template holds the x labels and
        a `Y` where each row's y label goes, so only the values are
        formatted per cell. `Y` never occurs in a "%.3f" label (digits,
        `.`, `-`, `inf`, `nan`) nor in `%.6f`.
        """
        row = "".join("%.3f,Y,%%.6f\n" % x for x in self.xs.tolist())
        ys = ["%.3f" % y for y in self.ys.tolist()]
        step = max(1, BLOCK_LINES // max(1, self.xs.size))
        write_csv(path, "x_m,y_m,value",
                  (("".join([row.replace("Y", y) for y in ys[i:i + step]]),
                    tuple(self.values[i:i + step].ravel().tolist()))
                   for i in range(0, len(ys), step)))

    def to_ppm(self, path) -> None:
        """Render to binary PPM; +y is the top image row, +x the right column.

        The color ramp spans the finite values' min to max.
        """
        vals = self.values
        finite = np.isfinite(vals)
        vmin = float(vals[finite].min()) if finite.any() else 0.0
        vmax = float(vals[finite].max()) if finite.any() else 1.0
        span = vmax - vmin
        t = (vals - vmin) / span if span > 0 else np.full_like(vals, 0.5)
        rgb = color_ramp(np.where(finite, t, 0.0))
        rgb[~finite] = NODATA_RGB
        rgb = rgb[::-1, :, :]  # top row = largest y
        with open(path, "wb") as fh:
            fh.write(f"P6\n{vals.shape[1]} {vals.shape[0]}\n255\n".encode("ascii"))
            fh.write(rgb.tobytes())


@dataclass(frozen=True)
class TimeSeries:
    """Serving-beam identity and link metric along one pass."""

    t_s: np.ndarray
    serving_id: np.ndarray
    metric_db: np.ndarray

    def __post_init__(self):
        if not (self.t_s.size == self.serving_id.size == self.metric_db.size):
            raise ValueError("time series columns must have equal length")

    def handover_count(self) -> int:
        """Number of serving-beam identity changes along the series."""
        ids = self.serving_id
        return int(np.count_nonzero(ids[1:] != ids[:-1]))

    def to_csv(self, path) -> None:
        write_csv(path, "t_s,serving_id,snr_db",
                  column_blocks("%.6f,%d,%.6f\n", self.t_s, self.serving_id,
                                self.metric_db))


@dataclass(frozen=True)
class CdfCurve:
    """Complementary coverage curve: prob(metric > threshold) per threshold."""

    thresholds_db: np.ndarray
    probs: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.thresholds_db.size != self.probs.size:
            raise ValueError("thresholds and probs must have equal length")

    def prob_at(self, threshold_db: float) -> float:
        """Coverage probability at an exact threshold (nearest grid entry)."""
        idx = int(np.argmin(np.abs(self.thresholds_db - threshold_db)))
        return float(self.probs[idx])


def write_cdf_set(path, curves: list[CdfCurve]) -> None:
    """Write several CDF curves side by side: threshold_db,prob_<label>,..."""
    if not curves:
        raise ValueError("need at least one curve")
    base = curves[0].thresholds_db
    if not all(np.array_equal(c.thresholds_db, base) for c in curves[1:]):
        raise ValueError("curves must share the same threshold grid")
    write_csv(path, "threshold_db," + ",".join(f"prob_{c.label}" for c in curves),
              column_blocks("%.6f" + ",%.6f" * len(curves) + "\n",
                            base, *(c.probs for c in curves)))
