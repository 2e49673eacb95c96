"""Output containers: gridded maps, pass time series, CDF curves.

Every CSV the package writes goes through one writer, `write_csv(path,
header, blocks)`, and each block is whole lines of rendered ASCII bytes, so
identical inputs produce byte-identical files. `column_blocks` renders the
series, CDF and codebook CSVs with one `%` call per block of `BLOCK_LINES`
rows: at a few hundred rows each, numpy's per-call cost would not pay. A
map's values are rendered in numpy instead, by `fixed6_lines`, which gives
exactly the bytes of `"%.6f" % v`: the integer part and the fraction of |v|
are both exact, the fraction times 10**6 is rounded half to even with the
exact error of that product deciding the rare rounded halves, a rounded
fraction of 10**6 carries into the integer part, and the sign is the sign
bit, so -0.0 prints as -0.000000. Only finite |v| >= 2**53 go through `%`,
one value at a time. Transient memory is one block however large the map
or series. Maps can also render to binary PPM (P6), an uncompressed raster
any image viewer opens.

Color ramp (fixed, linear between anchors on the normalized value t):
    t=0.00 -> ( 20,  20, 120)   deep blue
    t=0.25 -> ( 30, 110, 200)   blue
    t=0.50 -> ( 40, 200, 150)   teal
    t=0.75 -> (230, 200,  50)   amber
    t=1.00 -> (220,  50,  30)   red
NaN cells (points outside the region of interest) render mid-gray (80,80,80).
"""

from __future__ import annotations

import math
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
    """Write `header` and then every block to path; a block is ASCII bytes
    of whole lines, each ending in a newline."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for block in blocks:
            fh.write(block)


def column_blocks(row_fmt: str, *arrays):
    """The equal-length arrays as write_csv blocks of `BLOCK_LINES` rows:
    `row_fmt` repeated once per row, formatted by one `%` over the rows'
    values in order, each column slice converted by `.tolist()`."""
    for i in range(0, len(arrays[0]), BLOCK_LINES):
        cols = [a[i:i + BLOCK_LINES].tolist() for a in arrays]
        yield (row_fmt * len(cols[0])
               % tuple(chain.from_iterable(zip(*cols)))).encode("ascii")


def _ascii_words(text: str) -> np.ndarray:
    """ASCII text, a multiple of 4 bytes long, as uint32 words."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


# Digit tables as 4-byte ASCII words, indexed by value. A NUL byte pads a
# field and is dropped when a block is written.
_DIGIT_BYTES = np.uint8(ord("0")) + np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
_DIGITS = _DIGIT_BYTES.view(np.uint32).ravel()            # "0042"
# the same without leading zeros ("\0\042"), 0 as four NULs ...
_LEADING = (_DIGIT_BYTES * (np.arange(10**4)[:, None] >= [1000, 100, 10, 1])
            ).view(np.uint32).ravel()
# ... and for the units group, where 0 prints as "0"
_UNITS = _LEADING.copy()
_UNITS[0] = _ascii_words("\0\0\0" "0")[0]
# the six fraction digits as two words, ".ddd" and "ddd\n"
_FRAC_HI = _DIGIT_BYTES[:1000].copy()
_FRAC_HI[:, 0] = ord(".")
_FRAC_LO = np.roll(_DIGIT_BYTES[:1000], -1, axis=1)
_FRAC_LO[:, 3] = ord("\n")
_FRAC_HI, _FRAC_LO = (t.view(np.uint32).ravel() for t in (_FRAC_HI, _FRAC_LO))
_MINUS = _ascii_words("\0\0\0-")
_NAN, _INF, _NEWLINE = _ascii_words("\0nan" "\0inf" "\0\0\0\n")
_TWO53 = 2.0**53
_SPLIT = 2.0**27 + 1.0  # Veltkamp: x * _SPLIT splits x into two 26-bit halves


def _label_words(values) -> np.ndarray:
    """Each value as `"%.3f,"`, NUL-padded to whole uint32 words, one row
    per value."""
    labels = np.array(["%.3f," % v for v in values.tolist()], dtype=bytes)
    width = -(-labels.itemsize // 4) * 4
    return labels.astype(f"S{width}").view(np.uint32).reshape(
        len(labels), width // 4)


def fixed6_lines(values, *labels) -> bytes:
    """The line `<labels> + "%.6f" % v + "\n"` of each value, in C order, as
    ASCII bytes.

    Each label array is uint32 words of NUL-padded ASCII that broadcast,
    with their own last axis, over `values`' shape. A line is assembled as
    words: the labels, a sign, the integer part in groups of four digits
    and the fraction in two words; the NUL padding is dropped at the end.
    Never computes on NaN or inf, so it runs under
    `np.errstate(invalid="raise")`.
    """
    values = np.asarray(values, dtype=float)
    shape, values = values.shape, values.ravel()
    finite = np.isfinite(values)
    mag = np.where(finite, np.abs(values), 0.0)
    big = np.flatnonzero(mag >= _TWO53)  # may hold more than 2**53 digits
    mag[big] = 0.0
    whole = np.floor(mag)
    frac = mag - whole                   # exact, as is whole
    prod = frac * 1e6
    micros = np.rint(prod)               # half to even on the rounded product
    # The product's error is under half an ulp, and a rounded product that
    # is not a half is at least an ulp from one, so it rounds as the exact
    # product does. Where it is a half, the exact product may not be:
    # Dekker's two-product gives its error exactly (numpy has no fma;
    # 10**6 = 999424 + 576 is already split), and the error's sign decides.
    half = np.flatnonzero(np.abs(prod - micros) == 0.5)
    if half.size:
        f, p = frac[half], prod[half]
        t = f * _SPLIT
        hi = t - (t - f)
        lo = f - hi
        err = ((hi * 999424.0 - p) + hi * 576.0 + lo * 999424.0) + lo * 576.0
        up = np.sign(p - micros[half]) == np.sign(err)
        micros[half] += np.where(up, np.sign(err), 0.0)
    carry = micros == 1e6
    whole += carry
    micros[carry] = 0.0

    whole = whole.astype(np.int64)
    groups = 1 + int(np.count_nonzero(
        whole.max(initial=0) >= np.array([10**4, 10**8, 10**12])))
    w = sum(lab.shape[-1] for lab in labels)
    lines = np.empty(shape + (w + groups + 3,), dtype=np.uint32)
    col = 0
    for lab in labels:
        lines[..., col:col + lab.shape[-1]] = lab
        col += lab.shape[-1]
    lines = lines.reshape(values.size, lines.shape[-1])
    lines[:, w] = np.signbit(values) * _MINUS
    lead = True  # no nonzero digit group yet
    for g in range(groups - 1, 0, -1):
        digits, whole = np.divmod(whole, 10**(4 * g))
        lines[:, -3 - g] = np.where(lead, _LEADING[digits], _DIGITS[digits])
        lead = lead & (digits == 0)
    lines[:, -3] = (_UNITS[whole] if groups == 1
                    else np.where(lead, _UNITS[whole], _DIGITS[whole]))
    fhi, flo = np.divmod(micros.astype(np.intp), 1000)
    lines[:, -2] = _FRAC_HI[fhi]
    lines[:, -1] = _FRAC_LO[flo]
    # a NaN or inf was rendered as 0.000000, signed by its sign bit
    odd = np.flatnonzero(~finite)
    inf = np.isinf(values[odd])
    lines[odd, w] *= inf                 # nan prints unsigned
    lines[odd, -3] = np.where(inf, _INF, _NAN)
    lines[odd, -2] = 0
    lines[odd, -1] = _NEWLINE
    out, start = [], 0
    for i in big.tolist():
        out += [lines[start:i].tobytes(), lines[i, :w].tobytes(),
                b"%.6f\n" % values[i]]
        start = i + 1
    out.append(lines[start:].tobytes())
    return b"".join(out).translate(None, b"\0")


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

        A block is whole grid rows. The x and y labels are rendered once
        per map, the values per block by `fixed6_lines`.
        """
        xw, yw = _label_words(self.xs), _label_words(self.ys)[:, None]
        step = max(1, BLOCK_LINES // max(1, self.xs.size))
        write_csv(path, "x_m,y_m,value",
                  (fixed6_lines(self.values[i:i + step], xw, yw[i:i + step])
                   for i in range(0, self.ys.size, step)))

    def to_ppm(self, path) -> None:
        """Render to binary PPM; +y is the top image row, +x the right column.

        The color ramp spans the finite values' min to max. A block is as
        many whole grid rows as fit in `simulate.BLOCK` cells, or one row:
        one pass over the blocks finds the min and max, and a second renders
        and writes them, top row first, so the writer holds one block however
        large the map. Each block costs about a dozen numpy calls, so blocks
        of `BLOCK_LINES` cells would spend more time in calls than in cells.
        """
        from .simulate import BLOCK  # the package's block; simulate imports us

        vals = self.values
        step = max(1, BLOCK // max(1, vals.shape[1]))
        vmin, vmax = math.inf, -math.inf
        for i in range(0, vals.shape[0], step):
            block = vals[i:i + step]
            block = block[np.isfinite(block)]
            if block.size:
                vmin = min(vmin, float(block.min()))
                vmax = max(vmax, float(block.max()))
        if vmin > vmax:  # no finite value
            vmin, vmax = 0.0, 1.0
        span = vmax - vmin
        with open(path, "wb") as fh:
            fh.write(f"P6\n{vals.shape[1]} {vals.shape[0]}\n255\n".encode("ascii"))
            for i in range(vals.shape[0], 0, -step):  # top row = largest y
                block = vals[max(0, i - step):i][::-1]
                finite = np.isfinite(block)
                t = ((block - vmin) / span if span > 0
                     else np.full_like(block, 0.5))
                rgb = color_ramp(np.where(finite, t, 0.0))
                rgb[~finite] = NODATA_RGB
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
