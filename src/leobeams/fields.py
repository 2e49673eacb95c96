"""Output containers: gridded maps, pass time series, CDF curves.

Every CSV the package writes goes through one writer, `write_csv(path,
header, lines)`. Callers hand it an iterable of finished `"...\n"` lines,
formatted with fixed f-string specs from `.tolist()` columns, so identical
inputs produce byte-identical files. The writer joins `BLOCK_LINES` lines
at a time into one `write`, so its transient memory is one block however
large the map or series. Maps can also render to binary PPM (P6), an
uncompressed raster any image viewer opens.

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
from itertools import islice

import numpy as np

BLOCK_LINES = 4096  # lines joined into one write by write_csv

_RAMP_T = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_RAMP_RGB = np.array([
    [20, 20, 120],
    [30, 110, 200],
    [40, 200, 150],
    [230, 200, 50],
    [220, 50, 30],
], dtype=float)

NODATA_RGB = (80, 80, 80)


def write_csv(path, header: str, lines) -> None:
    """Write `header` and then `lines` (each ending in a newline) to path.

    Lines are consumed in blocks of `BLOCK_LINES`, each written as one join.
    """
    lines = iter(lines)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        while block := list(islice(lines, BLOCK_LINES)):
            fh.write("".join(block))


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
        """Write rows x_m,y_m,value (y outer, x inner); no-data cells as nan."""
        write_csv(path, "x_m,y_m,value", self._csv_lines())

    def _csv_lines(self):
        x_strs = [f"{x:.3f}," for x in self.xs.tolist()]
        for y, row in zip(self.ys.tolist(), self.values):
            y_str = f"{y:.3f},"
            for x, v in zip(x_strs, row.tolist()):
                yield f"{x}{y_str}{v:.6f}\n"

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
        write_csv(path, "t_s,serving_id,snr_db", self._csv_lines())

    def _csv_lines(self):
        # columns go to Python lists one block at a time, so memory stays
        # O(BLOCK_LINES) for a series of up to MAX_SAMPLES rows
        for i in range(0, self.t_s.size, BLOCK_LINES):
            block = slice(i, i + BLOCK_LINES)
            for t, sid, m in zip(self.t_s[block].tolist(),
                                 self.serving_id[block].astype(np.int64).tolist(),
                                 self.metric_db[block].tolist()):
                yield f"{t:.6f},{sid},{m:.6f}\n"


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
    for c in curves[1:]:
        if c.thresholds_db.size != base.size or not np.allclose(c.thresholds_db, base):
            raise ValueError("curves must share the same threshold grid")
    rows = zip(base.tolist(), *(c.probs.tolist() for c in curves))
    write_csv(path, "threshold_db," + ",".join(f"prob_{c.label}" for c in curves),
              (f"{th:.6f}," + ",".join(f"{p:.6f}" for p in ps) + "\n"
               for th, *ps in rows))
