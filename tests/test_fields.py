import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobeams import fields, simulate


def test_ramp_anchor_colors():
    rgb = fields.color_ramp(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert rgb.tolist() == [[20, 20, 120], [30, 110, 200], [40, 200, 150],
                            [230, 200, 50], [220, 50, 30]]
    # clipped outside [0, 1]
    assert fields.color_ramp(np.array([-1.0])).tolist() == [[20, 20, 120]]
    assert fields.color_ramp(np.array([2.0])).tolist() == [[220, 50, 30]]


def _small_map():
    xs = np.array([0.0, 1000.0, 2000.0])
    ys = np.array([0.0, 1000.0])
    vals = np.array([[1.0, 2.0, np.nan], [3.0, 4.0, 5.0]])
    return fields.FieldMap(xs=xs, ys=ys, values=vals)


def test_fieldmap_shape_validation():
    with pytest.raises(ValueError):
        fields.FieldMap(xs=np.arange(3.0), ys=np.arange(2.0),
                        values=np.zeros((3, 2)))


def test_fieldmap_csv_deterministic(tmp_path):
    m = _small_map()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    m.to_csv(p1)
    m.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "x_m,y_m,value"
    assert lines[1] == "0.000,0.000,1.000000"
    assert lines[3].endswith(",nan")
    assert len(lines) == 1 + 6


def test_fieldmap_ppm(tmp_path):
    m = _small_map()
    p = tmp_path / "m.ppm"
    m.to_ppm(p)
    raw = p.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    pix = raw.split(b"255\n", 1)[1]
    assert len(pix) == 3 * 2 * 3
    # top image row is the largest y; the nan cell sits at the end of the
    # bottom row and renders the documented no-data gray
    bottom = pix[9:18]
    assert tuple(bottom[6:9]) == fields.NODATA_RGB
    # value 5.0 is the maximum -> last ramp anchor, top-right pixel
    top = pix[0:9]
    assert tuple(top[6:9]) == (220, 50, 30)


def test_fieldmap_ppm_flat_values(tmp_path):
    m = fields.FieldMap(xs=np.array([0.0]), ys=np.array([0.0]),
                        values=np.array([[7.0]]))
    p = tmp_path / "f.ppm"
    m.to_ppm(p)
    pix = p.read_bytes().split(b"255\n", 1)[1]
    assert tuple(pix) == tuple(fields.color_ramp(np.array([0.5]))[0])


def test_timeseries_roundtrip(tmp_path):
    ts = fields.TimeSeries(t_s=np.array([0.0, 0.5, 1.0, 1.5]),
                           serving_id=np.array([3, 3, 4, 3]),
                           metric_db=np.array([1.0, 1.1, 0.9, 1.0]))
    assert ts.handover_count() == 2
    p = tmp_path / "ts.csv"
    ts.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t_s,serving_id,snr_db"
    assert lines[2] == "0.500000,3,1.100000"
    with pytest.raises(ValueError):
        fields.TimeSeries(t_s=np.arange(3.0), serving_id=np.arange(2),
                          metric_db=np.arange(3.0))


def test_cdf_curve():
    c = fields.CdfCurve(thresholds_db=np.array([0.0, 1.0, 2.0]),
                        probs=np.array([1.0, 0.5, 0.25]), label="hex")
    assert c.prob_at(1.0) == 0.5
    assert c.prob_at(0.9) == 0.5  # nearest grid entry
    with pytest.raises(ValueError):
        fields.CdfCurve(thresholds_db=np.arange(3.0), probs=np.arange(2.0))


def test_cdf_set_requires_common_grid(tmp_path):
    a = fields.CdfCurve(np.array([0.0, 1.0]), np.array([1.0, 0.5]), "hex")
    b = fields.CdfCurve(np.array([0.0, 2.0]), np.array([1.0, 0.5]), "dft")
    with pytest.raises(ValueError):
        fields.write_cdf_set(tmp_path / "x.csv", [a, b])
    # a grid that only nearly matches would print under the first grid's
    # thresholds
    near = fields.CdfCurve(np.array([0.0, 1.0 + 1e-6]), np.array([1.0, 0.5]),
                           "dft")
    with pytest.raises(ValueError):
        fields.write_cdf_set(tmp_path / "x.csv", [a, near])
    with pytest.raises(ValueError):
        fields.write_cdf_set(tmp_path / "x.csv", [])
    ok = fields.CdfCurve(np.array([0.0, 1.0]), np.array([1.0, 0.25]), "dft")
    fields.write_cdf_set(tmp_path / "x.csv", [a, ok])
    lines = (tmp_path / "x.csv").read_text().splitlines()
    assert lines[0] == "threshold_db,prob_hex,prob_dft"
    assert lines[1] == "0.000000,1.000000,1.000000"


# The per-cell loops the blocked writer replaced, kept as the byte oracle.
def _map_oracle(m):
    out = ["x_m,y_m,value\n"]
    for iy, y in enumerate(m.ys):
        for ix, x in enumerate(m.xs):
            out.append(f"{x:.3f},{y:.3f},{m.values[iy, ix]:.6f}\n")
    return "".join(out)


def _series_oracle(ts):
    out = ["t_s,serving_id,snr_db\n"]
    for t, sid, m in zip(ts.t_s, ts.serving_id, ts.metric_db):
        out.append(f"{t:.6f},{int(sid)},{m:.6f}\n")
    return "".join(out)


def _cdf_set_oracle(curves):
    out = ["threshold_db," + ",".join(f"prob_{c.label}" for c in curves) + "\n"]
    for i, th in enumerate(curves[0].thresholds_db):
        row = ",".join(f"{c.probs[i]:.6f}" for c in curves)
        out.append(f"{th:.6f},{row}\n")
    return "".join(out)


# -4e-7 prints as -0.000000; 5e-324 and 1e-310 are subnormal; 0.0078125
# and -0.0234375 are exact binary ties at the sixth decimal; 2.5e-6 and
# 1.0000005 are decimal halves that are not binary ties; 0.9999995 carries
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -4e-7, 4e-7, 1e300,
            -1e300, 5e-324, -1e-310, 3.0, -17.0, 2.0**53, 0.0005, -0.0005,
            0.0078125, -0.0234375, 2.5e-6, 0.9999995, 1.0000005,
            2.0**53 - 1]
_values = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.integers(-10**6, 10**6).map(float))
_BLOCK = 4


def _column(draw, n):
    return np.array(draw(st.lists(_values, min_size=n, max_size=n)), dtype=float)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_writers_match_per_cell_oracle(tmp_path_factory, data):
    # sizes straddle the (shrunk) block length: empty maps, 1x1 maps, and
    # rows wider than a block up to several blocks
    tmp_path = tmp_path_factory.mktemp("csv")
    draw = data.draw
    ny, nx = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    vals = _column(draw, 2 * ny * nx).reshape(ny, 2 * nx)
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided":
        vals = vals[:, ::2]
    elif layout == "contiguous":
        vals = np.ascontiguousarray(vals[:, :nx])
    else:
        vals = np.ascontiguousarray(vals[:, :nx].T).T
    fmap = fields.FieldMap(xs=_column(draw, nx), ys=_column(draw, ny),
                           values=vals)

    n = draw(st.integers(0, 3 * _BLOCK + 1))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    ids = np.array(draw(st.lists(st.integers(-2**31, 2**31 - 1),
                                 min_size=n, max_size=n)), dtype=dtype)
    series = fields.TimeSeries(t_s=_column(draw, n), serving_id=ids,
                               metric_db=_column(draw, n))

    m = draw(st.integers(1, 2 * _BLOCK + 1))
    base = np.linspace(-10.0, 20.0, m)
    curves = [fields.CdfCurve(base, _column(draw, m), label)
              for label in draw(st.sampled_from([["hex"], ["hex", "dft"]]))]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "BLOCK_LINES", _BLOCK)
        fmap.to_csv(tmp_path / "m.csv")
        series.to_csv(tmp_path / "s.csv")
        fields.write_cdf_set(tmp_path / "c.csv", curves)
    assert (tmp_path / "m.csv").read_bytes() == _map_oracle(fmap).encode()
    assert (tmp_path / "s.csv").read_bytes() == _series_oracle(series).encode()
    assert (tmp_path / "c.csv").read_bytes() == _cdf_set_oracle(curves).encode()


def test_timeseries_writer_memory_bounded_by_block(tmp_path, monkeypatch,
                                                    traced_peak):
    # a whole-file join, or whole-column lists, would hold every row at once;
    # the writer holds one block of rows (a series its values, their tuple,
    # the formatted text and its bytes; a map its values' numpy temporaries,
    # the block's line words and their bytes), and a map also its x and y
    # labels: well under 512 B per line of a block
    monkeypatch.setattr(fields, "BLOCK_LINES", 256)
    n = 2**16
    ts = fields.TimeSeries(t_s=np.arange(n) * 0.05,
                           serving_id=np.arange(n) % 13,
                           metric_db=np.sin(np.arange(n)) * 20.0)

    def grid(nx):
        ny = n // nx
        return fields.FieldMap(xs=np.arange(nx) * 2000.0,
                               ys=np.arange(ny) * -2000.0,
                               values=np.sin(np.arange(ny * nx)).reshape(
                                   ny, nx) * 20.0)

    # 100 cells a grid row: a block is two whole rows, 200 lines; 300 cells
    # a row is wider than a block, so a block is one row of 300 lines
    for name, out, lines in (("ts.csv", ts, 256), ("map.csv", grid(100), 200),
                             ("wide.csv", grid(300), 300)):
        peak = traced_peak(lambda: out.to_csv(tmp_path / name)).peak
        size = (tmp_path / name).stat().st_size
        assert peak < 512 * lines < size / 8, name


def _ppm_oracle(m):
    """The whole-map PPM rendering the blocked writer replaced, kept as the
    byte oracle."""
    vals = m.values
    finite = np.isfinite(vals)
    vmin = float(vals[finite].min()) if finite.any() else 0.0
    vmax = float(vals[finite].max()) if finite.any() else 1.0
    span = vmax - vmin
    t = (vals - vmin) / span if span > 0 else np.full_like(vals, 0.5)
    rgb = fields.color_ramp(np.where(finite, t, 0.0))
    rgb[~finite] = fields.NODATA_RGB
    return (f"P6\n{vals.shape[1]} {vals.shape[0]}\n255\n".encode("ascii")
            + rgb[::-1].tobytes())


@pytest.mark.parametrize("block", [4, simulate.BLOCK])
def test_ppm_matches_whole_map_rendering(tmp_path, monkeypatch, block):
    # maps with NaN, infinite and signed-zero cells, all-NaN maps and
    # constant maps, rendered in blocks of two whole rows and in blocks of
    # one row wider than a block, or in one block, are the bytes of the
    # whole-map rendering
    monkeypatch.setattr(simulate, "BLOCK", block)
    rng = np.random.default_rng(7)
    for ny, nx in ((9, 2), (3, 7), (40, 60)):
        mixed = rng.normal(0.0, 10.0, (ny, nx))
        mixed[rng.random((ny, nx)) < 0.3] = np.nan
        mixed[0, 0], mixed[-1, -1], mixed[ny // 2, 0] = np.inf, -np.inf, -0.0
        for name, vals in (("nan", mixed),
                           ("all-nan", np.full((ny, nx), np.nan)),
                           ("constant", np.full((ny, nx), -3.25))):
            fmap = fields.FieldMap(xs=np.arange(nx) * 500.0,
                                   ys=np.arange(ny) * 500.0, values=vals)
            fmap.to_ppm(tmp_path / "m.ppm")
            assert (tmp_path / "m.ppm").read_bytes() == _ppm_oracle(fmap), (
                ny, nx, name)


def test_ppm_writer_memory_bounded_by_block(tmp_path, traced_peak):
    # the writer finds the ramp's span and renders one block of whole rows at
    # a time: a map the size of the 500 m grid (683 x 2137 cells, 11.1 MiB
    # of values, 15 rows a block) peaked at about 1.4 MiB measured, 44 B
    # per cell of a block, where rendering the whole map at once took 50.1
    # MiB, about 4.5 times the map
    ny, nx = 683, 2137
    vals = np.sin(np.arange(ny * nx, dtype=float)).reshape(ny, nx) * 20.0
    vals[:, :300] = np.nan
    fmap = fields.FieldMap(xs=np.arange(nx) * 500.0, ys=np.arange(ny) * 500.0,
                           values=vals)
    peak = traced_peak(lambda: fmap.to_ppm(tmp_path / "m.ppm")).peak
    assert (tmp_path / "m.ppm").stat().st_size > 3 * vals.size
    assert peak < 64 * max(simulate.BLOCK, nx)


def test_fixed6_lines_match_percent_format():
    # a million values in one pass, against "%.6f" one value at a time
    rng = np.random.default_rng(20261019)
    n = 200_000
    sign = rng.choice([-1.0, 1.0], n)
    values = np.concatenate([
        rng.uniform(-40.0, 40.0, n),
        sign * 10.0 ** rng.uniform(-12.0, 15.0, n),
        # decimal halves at the seventh decimal, such as 1.2345675, with
        # 1 to 12 digits: the correctly rounded quotient is float() of the
        # decimal string
        sign * (np.floor(10.0 ** rng.uniform(0.0, 12.0, n)) + 0.5) / 1e6,
        # binary ties and near-ties j / 2**k (k = 7 ties at 10**-6)
        sign * (rng.integers(1, 2**20, n) * 2 + 1)
        / 2.0 ** rng.integers(1, 41, n),
        # just below n + 1, where the rounded fraction carries (or not)
        rng.integers(0, 10**9, n) + 1.0 - rng.choice(
            [5e-7, 4.99999e-7, 5.00001e-7, 1e-7, 2.0**-30, 1e-16], n),
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 2.0**53 - 1,
         -(2.0**53 - 1), 2.0**53, -(2.0**53), 1e300, -1e300, math.nan,
         math.inf, -math.inf, 0.9999995, 1.0000005, float("1.2345675")],
    ])
    want = ("%.6f\n" * values.size % tuple(values.tolist())).encode()
    t0 = time.perf_counter()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = fields.fixed6_lines(values)
    elapsed = time.perf_counter() - t0
    if got != want:
        wrong = [(v, g, w) for v, g, w in zip(
            values.tolist(), got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(wrong)} values render wrong, e.g. {wrong[:5]}")
    assert elapsed < 2.0

