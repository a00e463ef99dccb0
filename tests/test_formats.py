import io
import os
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seisreg.formats import (
    TraceLayout,
    ibm_to_ieee_array,
    ieee_to_ibm,
    parse_las,
    parse_segy,
    write_las,
)
from seisreg.errors import DataError
from seisreg.formats import las, segy
from seisreg.formats.svol import (
    SvolReader,
    SvolWriter,
    create_svol,
    open_svol,
    read_svol,
    write_svol,
)
from seisreg.formats.volume import SeismicVolume


def make_segy(traces, fmt=5, sample_interval_us=2000, samples_per_trace=None,
              payload_override=None):
    """traces: list of (inline, xline, samples)."""
    if samples_per_trace is None:
        samples_per_trace = len(traces[0][2])
    textual = b"\x40" * 3200
    binary = bytearray(400)
    struct.pack_into(">H", binary, 3217 - 3201, sample_interval_us)
    struct.pack_into(">H", binary, 3221 - 3201, samples_per_trace)
    struct.pack_into(">H", binary, 3225 - 3201, fmt)
    body = b""
    for inline, xline, samples in traces:
        th = bytearray(240)
        struct.pack_into(">i", th, 188, inline)
        struct.pack_into(">i", th, 192, xline)
        if payload_override is not None:
            payload = payload_override
        elif fmt == 5:
            payload = np.asarray(samples, dtype=">f4").tobytes()
        else:
            payload = b"".join(struct.pack(">I", ieee_to_ibm(s)) for s in samples)
        body += bytes(th) + payload
    return textual + bytes(binary) + body


def ibm_to_ieee(word):
    """One decoded word, through the array decoder."""
    return float(ibm_to_ieee_array([word])[0])


class TestIbmFloat:
    def test_zero_pattern(self):
        assert ibm_to_ieee(0x00000000) == 0.0

    def test_one(self):
        # sign 0, exponent 0x41 = 65, fraction 2^20: 16^1 * 2^20/2^24 = 1
        assert ibm_to_ieee(0x41100000) == 1.0

    def test_minus_118(self):
        # sign 1, exponent 66, fraction 0x760000: 16^2 * 0x760000/2^24 = 118
        assert ibm_to_ieee(0xC2760000) == -118.0

    def test_zero_fraction_any_exponent(self):
        assert ibm_to_ieee(0x7F000000) == 0.0

    def test_exact_against_formula(self):
        # decoding is exact for every 24-bit fraction within double range
        rng = np.random.default_rng(42)
        sign = rng.integers(0, 2, 500)
        exponent = rng.integers(40, 90, 500)
        fraction = rng.integers(1, 1 << 24, 500)
        words = (sign << 31) | (exponent << 24) | fraction
        expected = [(-1.0) ** s * 16.0 ** (e - 64) * f / 2.0 ** 24
                    for s, e, f in zip(sign.tolist(), exponent.tolist(),
                                       fraction.tolist())]
        assert ibm_to_ieee_array(words).tolist() == expected

    def test_roundtrip_dyadics_exact(self):
        for v in (1.0, -1.0, 0.5, 0.0625, 118.0, -0.25):
            assert ibm_to_ieee(ieee_to_ibm(v)) == v

    def test_roundtrip_relative_error(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-5000.0, 5000.0, 1000)
        decoded = ibm_to_ieee_array([ieee_to_ibm(v) for v in values])
        assert np.max(np.abs((decoded - values) / values)) < 1e-6


class TestSegy:
    def test_fixture_roundtrip(self):
        vol = parse_segy(make_segy([(1, 1, [0.0, 1.0, -1.0, 0.5])]))
        assert vol.dt_ms == 2.0
        np.testing.assert_array_equal(vol.data, [[[0.0, 1.0, -1.0, 0.5]]])

    def test_ibm_encoding_matches_ieee(self):
        samples = [0.0, 1.0, -1.0, 0.5]
        ieee = parse_segy(make_segy([(1, 1, samples)], fmt=5))
        ibm = parse_segy(make_segy([(1, 1, samples)], fmt=1))
        np.testing.assert_allclose(ibm.data, ieee.data, rtol=1e-6, atol=0)

    def test_dual_encoding_volumes_agree(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(-100.0, 100.0, 16).tolist()
        vol_ieee = parse_segy(make_segy([(1, 1, samples)], fmt=5))
        vol_ibm = parse_segy(make_segy([(1, 1, samples)], fmt=1))
        np.testing.assert_allclose(vol_ibm.data, vol_ieee.data, rtol=2e-6, atol=1e-12)

    def test_ieee_parse_peak_memory(self):
        # the 4-byte samples are widened straight into the grid, with no
        # float64 copy of the traces on the way: 8 + 1 B/voxel for the
        # grid and mask, plus the scatter's buffers
        rng = np.random.default_rng(3)
        shape = (32, 32, 64)
        data = make_segy([(il, xl, rng.uniform(-1.0, 1.0, shape[2]))
                          for il in range(shape[0]) for xl in range(shape[1])])
        tracemalloc.start()
        try:
            parse_segy(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / np.prod(shape) < 15

    def test_ibm_parse_peak_memory(self):
        # IBM words decode a block of traces at a time straight into the
        # grid, so the decoder's five full-size temporaries span one block
        shape = (32, 32, 512)
        rng = np.random.default_rng(4)
        traces = np.zeros(shape[0] * shape[1], dtype=[
            ("head", "V188"), ("inline", ">i4"), ("xline", ">i4"),
            ("tail", "V44"), ("words", ">u4", shape[2])])
        traces["inline"], traces["xline"] = np.divmod(np.arange(len(traces)),
                                                      shape[1])
        traces["words"] = (rng.integers(0x3C, 0x44, (len(traces), shape[2]),
                                        dtype=np.uint32) << 24
                           | rng.integers(0, 1 << 24, (len(traces), shape[2]),
                                          dtype=np.uint32))
        data = make_segy([(0, 0, [0.0] * shape[2])], fmt=1)[:3600] + traces.tobytes()
        assert traced_peak(lambda: parse_segy(data)) / np.prod(shape) < 20

    def test_truncated_file(self):
        with pytest.raises(DataError, match="shorter than the 3600-byte header region"):
            parse_segy(b"\x00" * 100)

    def test_unsupported_format_code(self):
        with pytest.raises(DataError, match="format code 3; supported"):
            parse_segy(make_segy([(1, 1, [0.0] * 4)], fmt=3))

    def test_inconsistent_trace_length(self):
        # header claims 4 samples, payload carries 3
        short = np.asarray([0.0, 1.0, 2.0], dtype=">f4").tobytes()
        data = make_segy([(1, 1, [0.0] * 4)], samples_per_trace=4,
                         payload_override=short)
        with pytest.raises(DataError, match="is not a multiple of"):
            parse_segy(data)

    def test_configurable_header_offsets(self):
        data = make_segy([(7, 9, [1.0, 2.0])])
        vol = parse_segy(data, TraceLayout(inline_byte_offset=189,
                                           xline_byte_offset=193))
        assert (vol.inlines.tolist(), vol.xlines.tolist()) == ([7], [9])


class TestVolumeFromTraces:
    """parse_segy's assembly of the masked volume from the file's traces."""

    def test_simple_grid(self):
        vol = parse_segy(make_segy([(1, 1, [1.0, 2.0]), (1, 2, [3.0, 4.0])]))
        assert vol.data.shape == (1, 2, 2)
        assert vol.mask.all()
        assert vol.dt_ms == 2.0

    def test_cartesian_closure_marks_missing(self):
        vol = parse_segy(make_segy([(1, 1, [1.0, 2.0]), (2, 2, [3.0, 4.0])]))
        assert vol.data.shape == (2, 2, 2)
        assert vol.mask[0, 0].all() and vol.mask[1, 1].all()
        assert not vol.mask[0, 1].any() and not vol.mask[1, 0].any()

    def test_duplicate_trace(self):
        data = make_segy([(1, 1, [1.0, 2.0]), (1, 1, [3.0, 4.0])])
        with pytest.raises(DataError, match="duplicate trace at inline"):
            parse_segy(data)

    def test_no_traces(self):
        data = make_segy([(1, 1, [1.0, 2.0])])[:3600]
        with pytest.raises(DataError, match="no traces"):
            parse_segy(data)

    @pytest.mark.parametrize("fmt", [5, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_gappy_matches_reference(self, fmt, seed):
        traces = shuffled_grid(seed)
        vol = parse_segy(make_segy(traces, fmt=fmt))
        inlines, xlines, data, mask = reference_volume(traces)
        assert vol.inlines.tolist() == inlines
        assert vol.xlines.tolist() == xlines
        np.testing.assert_array_equal(vol.data, data)
        np.testing.assert_array_equal(vol.mask, mask)
        assert (vol.t0_ms, vol.dt_ms) == (0.0, 2.0)

    @pytest.mark.parametrize("block", [1, 7, 12])
    @pytest.mark.parametrize("seed", range(4))
    def test_ibm_blocks_match_reference(self, monkeypatch, block, seed):
        # blocks of one trace (1 and 7 samples) and of two (12 samples)
        monkeypatch.setattr(segy, "_IBM_BLOCK_SAMPLES", block)
        traces = shuffled_grid(seed)
        vol = parse_segy(make_segy(traces, fmt=1))
        _, _, data, mask = reference_volume(traces)
        np.testing.assert_array_equal(vol.data, data)
        np.testing.assert_array_equal(vol.mask, mask)

    @pytest.mark.parametrize("fmt", [5, 1])
    def test_duplicate_named_at_earliest_second_occurrence(self, fmt):
        # traces A, B, B, A: B repeats first in file order
        a, b = (3, 8, [1.0, 2.0]), (1, 9, [3.0, 4.0])
        with pytest.raises(DataError, match="inline 1, xline 9$"):
            parse_segy(make_segy([a, b, b, a], fmt=fmt))

    @pytest.mark.parametrize("fmt", [5, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_match_reference(self, fmt, seed):
        rng = np.random.default_rng(100 + seed)
        traces = shuffled_grid(seed)
        for k in rng.choice(len(traces), 3, replace=False):
            il, xl, _ = traces[k]
            at = int(rng.integers(0, len(traces) + 1))
            traces.insert(at, (il, xl, (rng.integers(-64, 64, 5) / 64).tolist()))
        il, xl = reference_volume(traces)
        with pytest.raises(DataError, match=f"inline {il}, xline {xl}$"):
            parse_segy(make_segy(traces, fmt=fmt))


def shuffled_grid(seed):
    """A 4 x 5 grid of 5-sample traces in shuffled order with three traces
    dropped.  The samples are multiples of 1/64, exact in IEEE and IBM."""
    rng = np.random.default_rng(seed)
    cells = [(il, xl) for il in (12, 3, 7, 5) for xl in (40, 41, 43, 44, 47)]
    order = rng.permutation(len(cells))[:-3]
    return [(*cells[k], (rng.integers(-6400, 6400, 5) / 64).tolist())
            for k in order]


def reference_volume(traces):
    """One trace at a time: the (inline, xline) of the first repeat in file
    order, or the sorted axes, the grid and its mask."""
    inlines = sorted({il for il, _, _ in traces})
    xlines = sorted({xl for _, xl, _ in traces})
    data = np.zeros((len(inlines), len(xlines), len(traces[0][2])))
    mask = np.zeros(data.shape, dtype=bool)
    for il, xl, samples in traces:
        i, j = inlines.index(il), xlines.index(xl)
        if mask[i, j, 0]:
            return il, xl
        data[i, j] = samples
        mask[i, j] = True
    return inlines, xlines, data, mask


MINIMAL_LAS = """~Version
 VERS.   2.0 : CWLS 2.0
 WRAP.   NO  :
~Well
 NULL.   -999.25 :
 WELL.   FIXTURE :
~Curve
 DEPT.M  : depth
 SF.V/V  : sand fraction
~ASCII
 1000.0 0.25
 1000.5 0.5
 1001.0 0.75
"""
# everything up to and including the ~A line
MINIMAL_LAS_HEADER = MINIMAL_LAS.split("~ASCII")[0] + "~ASCII\n"


# ~A cells: numbers, the NULL sentinel and numbers that float() reads but
# np.loadtxt does not (1_0, Arabic-Indic digits), three times as often as
# text that neither reads
LAS_NUMBERS = st.one_of(
    st.floats().map(repr), st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["-999.25", "-0", "inf", "-nan", "1e999", "+.5", "1_0",
                     "\u0661\u0662"]))
LAS_CELLS = st.one_of(LAS_NUMBERS, LAS_NUMBERS, LAS_NUMBERS, st.sampled_from(
    ["#", "#5", "5#", "1,5", "0x10", "1d5", "\x00"]))
LAS_SEPS = st.sampled_from([" ", "  ", "\t", "\xa0", "\x1f", " \x00"])


class TestLas:
    def test_minimal_fixture(self):
        log = parse_las(MINIMAL_LAS)
        assert log.curve_names == ["DEPT", "SF"]
        assert log.rows.shape == (3, 2)
        np.testing.assert_array_equal(log.depths, [1000.0, 1000.5, 1001.0])

    def test_null_substitution(self):
        text = MINIMAL_LAS.replace("1000.5 0.5", "1000.5 -999.25")
        log = parse_las(text)
        assert np.isnan(log.rows[1, 1])
        assert not np.isnan(log.depths).any()

    def test_ragged_row(self):
        text = MINIMAL_LAS.replace("1000.5 0.5", "1000.5")
        with pytest.raises(DataError, match="row has 1 values, expected 2"):
            parse_las(text)

    def test_missing_section(self):
        text = MINIMAL_LAS.replace("~ASCII", "~Other")
        with pytest.raises(DataError, match="no ~A section"):
            parse_las(text)

    def test_version_unsupported(self):
        text = MINIMAL_LAS.replace("VERS.   2.0", "VERS.   3.0")
        with pytest.raises(DataError, match="need LAS 2.0, got VERS='3.0'"):
            parse_las(text)

    def test_null_in_depth_rejected(self):
        text = MINIMAL_LAS.replace("1000.5 0.5", "-999.25 0.5")
        with pytest.raises(DataError, match="NULL sentinel in the depth column"):
            parse_las(text)

    def test_non_monotone_depth_rejected(self):
        text = MINIMAL_LAS.replace("1000.5 0.5", "1001.0 0.5")
        with pytest.raises(DataError, match="not strictly monotone"):
            parse_las(text)

    def test_write_parse_roundtrip(self):
        log = parse_las(MINIMAL_LAS)
        again = parse_las(write_las(log))
        np.testing.assert_array_equal(log.rows, again.rows)
        assert log.curve_names == again.curve_names
        assert again.null_value == log.null_value

    def test_roundtrip_full_precision(self):
        log = parse_las(MINIMAL_LAS)
        rng = np.random.default_rng(3)
        log.rows[:, 1] = rng.uniform(0.0, 1.0, 3)
        again = parse_las(write_las(log))
        np.testing.assert_array_equal(log.rows, again.rows)

    def test_write_matches_per_row_rendering(self):
        log = parse_las(MINIMAL_LAS)
        log.rows = np.array([[-0.0, np.nan], [0.1, np.inf], [1e300, -np.inf],
                             [5e-324, -0.0], [2.0 / 3.0, -999.25]])
        body = "".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                       for row in np.where(np.isnan(log.rows), -999.25, log.rows))
        header = write_las(parse_las(MINIMAL_LAS_HEADER))
        assert write_las(log) == header + body

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.one_of(st.lists(LAS_CELLS, min_size=1,
                                                      max_size=1),
                                             st.lists(LAS_CELLS, max_size=3)),
                                   LAS_SEPS),
                         max_size=6))
    @example(rows=[])
    @example(rows=[(["1_0"], " "), (["\u0661\u0662"], "\t")])
    @example(rows=[(["-999.25"], "\xa0"), (["2", "#"], " "), (["#5"], " ")])
    @example(rows=[(["2"], "\x1f"), (["3"], "\x00")])
    def test_bulk_parse_matches_per_row(self, rows):
        # the depths climb, so most tables get past the depth checks
        lines = [" " + sep.join([f"{1000 + k}", *cells])
                 for k, (cells, sep) in enumerate(rows)]
        text = MINIMAL_LAS_HEADER + "\n".join(lines) + "\n"

        def outcome():
            try:
                log = parse_las(text)
            except DataError as exc:
                return str(exc)
            return log.rows.shape, log.rows.tobytes()

        bulk = outcome()
        with mock.patch.object(las, "_parse_data", per_row_las_data):
            assert bulk == outcome()


def per_row_las_data(lines, n_curves):
    """The ~A rows one line at a time, as `float()` reads each cell."""
    rows = []
    for line in lines:
        cells = line.split()
        if len(cells) != n_curves:
            raise DataError(
                f"row has {len(cells)} values, expected {n_curves}: {line.strip()!r}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise DataError(f"non-numeric cell in ~A row: {line.strip()!r}")
    return np.array(rows, dtype=np.float64).reshape(len(rows), n_curves)


def traced_peak(call):
    """Peak bytes allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSvol:
    def _volume(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((2, 3, 5))
        mask = np.ones(data.shape, dtype=bool)
        mask[1, 2, :] = False
        data[~mask] = 0.0
        return SeismicVolume(inlines=[10, 20], xlines=[1, 2, 3], t0_ms=100.0,
                             dt_ms=2.0, data=data, attribute_name="imp", mask=mask)

    def test_write_read_write_byte_identical(self, tmp_path):
        write_svol(tmp_path / "v.svol", self._volume())
        write_svol(tmp_path / "again.svol", read_svol(tmp_path / "v.svol"))
        assert (tmp_path / "again.svol").read_bytes() == \
            (tmp_path / "v.svol").read_bytes()

    def test_volume_fields_roundtrip(self, tmp_path):
        vol = self._volume()
        write_svol(tmp_path / "v.svol", vol)
        again = read_svol(tmp_path / "v.svol")
        np.testing.assert_array_equal(vol.data, again.data)
        np.testing.assert_array_equal(vol.mask, again.mask)
        np.testing.assert_array_equal(vol.inlines, again.inlines)
        assert (vol.t0_ms, vol.dt_ms, vol.attribute_name) == \
            (again.t0_ms, again.dt_ms, again.attribute_name)

    def test_blocks_read_and_write_their_byte_ranges(self, tmp_path):
        vol = self._volume()
        path = tmp_path / "v.svol"
        write_svol(path, vol)
        flat_data, flat_mask = vol.data.reshape(-1), vol.mask.reshape(-1)
        edges = [0, 1, 7, 16, 30]
        buffer = io.BytesIO()
        writer = SvolWriter(buffer, vol, vol.attribute_name)
        # blocks written out of order land at their own offsets
        for start, stop in reversed(list(zip(edges, edges[1:]))):
            writer.write(start, flat_data[start:stop], flat_mask[start:stop])
        assert buffer.getvalue() == path.read_bytes()
        with open_svol(path) as reader:
            assert reader.shape == vol.data.shape
            assert reader.same_geometry(vol)
            for start, stop in zip(edges, edges[1:]):
                data, mask = reader.read(start, stop)
                np.testing.assert_array_equal(data, flat_data[start:stop])
                np.testing.assert_array_equal(mask, flat_mask[start:stop])
            data, mask = reader.trace(20, 3)
            np.testing.assert_array_equal(data, vol.data[1, 2])
            assert not mask.any()

    def test_failed_write_leaves_the_target_alone(self, tmp_path):
        vol = self._volume()
        path = tmp_path / "v.svol"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with create_svol(path, vol, "imp") as writer:
                writer.write(0, vol.data[:1], vol.mask[:1])
                raise RuntimeError("part way")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["v.svol"]

    # a cut inside each section of the 2x3x5 volume named "imp": header
    # 0-64, name 64-67, inlines 67-75, xlines 75-87, mask 87-117, samples
    # 117-357 (docs/format.md)
    @pytest.mark.parametrize("cut", [0, 40, 65, 70, 80, 100, 200, 356])
    def test_truncated_file_is_bad_volume(self, tmp_path, cut):
        path = tmp_path / "cut.svol"
        write_svol(path, self._volume())
        blob = path.read_bytes()
        assert len(blob) == 357
        message = ("shorter than the 64-byte header" if cut < 64
                   else f"file is {cut} bytes, expected 357")
        with pytest.raises(DataError, match=message):
            SvolReader(io.BytesIO(blob[:cut]), cut)
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match=message):
            read_svol(path)

    def test_non_regular_file_is_bad_volume(self):
        # its size cannot be checked before the arrays are allocated
        with pytest.raises(DataError, match="not a regular file"):
            read_svol(os.devnull)

    @pytest.mark.parametrize("dims", [(4096, 4096, 64), (2 ** 32 - 1,) * 3])
    def test_oversized_header_fails_before_allocating(self, tmp_path, dims):
        header = struct.pack("<8sIIII dd", b"SVOL0001", *dims, 0, 0.0, 2.0)
        path = tmp_path / "huge.svol"
        path.write_bytes(header.ljust(64, b"\x00") + b"\x00" * 1000)

        def attempt():
            with pytest.raises(DataError, match="expected"):
                read_svol(path)

        assert traced_peak(attempt) < 1 << 20

    def test_any_nonzero_mask_byte_is_valid(self, tmp_path):
        vol = self._volume()
        path = tmp_path / "v.svol"
        write_svol(path, vol)
        blob = bytearray(path.read_bytes())
        mask_at = 64 + 3 + 4 * (2 + 3)
        # [1, 2, 0] is masked out; [0, 0, 0] is valid
        blob[mask_at + (1 * 3 + 2) * 5] = 2
        blob[mask_at] = 255
        path.write_bytes(blob)
        again = read_svol(path)
        expected = vol.mask.copy()
        expected[1, 2, 0] = True
        np.testing.assert_array_equal(again.mask, expected)
        assert again.mask.view(np.uint8).max() == 1


class TestSvolMemory:
    """The reader holds the volume once and the writer not at all."""

    def _file(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((32, 32, 128))
        vol = SeismicVolume(inlines=np.arange(32), xlines=np.arange(32),
                            t0_ms=0.0, dt_ms=2.0, data=data,
                            attribute_name="imp", mask=data > -2.0)
        path = tmp_path / "v.svol"
        write_svol(path, vol)
        return vol, path

    def test_read_peak(self, tmp_path):
        _, path = self._file(tmp_path)
        assert traced_peak(lambda: read_svol(path)) <= 1.3 * path.stat().st_size

    def test_write_peak(self, tmp_path):
        vol, path = self._file(tmp_path)
        assert traced_peak(lambda: write_svol(path, vol)) <= \
            0.05 * path.stat().st_size
