"""Every reader of outside input either parses a damaged input or refuses it
with the SeisregError of its family, never with a bare exception: SEG-Y,
LAS and .svol damage is a DataError (exit 3), a bad run configuration a
ConfigError (exit 2).

Each test damages one valid input in a few places, so that most examples
get past the first check and reach the later ones."""

import io
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seisreg.errors import ConfigError, DataError
from seisreg.formats import parse_las, parse_segy, write_svol
from seisreg.formats.svol import SvolReader
from seisreg.formats.volume import SeismicVolume
from seisreg.pipeline import parse_config

from test_formats import MINIMAL_LAS, make_segy

SEGY = {fmt: make_segy([(1, 1, [0.5, -1.0, 2.0]), (1, 2, [0.0, 3.0, -4.5]),
                        (2, 1, [1e3, 0.0, 1e-3])], fmt=fmt)
        for fmt in (1, 5)}
# the header bytes the reader looks at: sample interval, samples per trace
# and format code in the binary header, inline and xline of each trace
SEGY_READ_BYTES = [3216, 3217, 3220, 3221, 3224, 3225,
                   *(3600 + k * (240 + 12) + i for k in range(3) for i in range(188, 196))]



def _svol_bytes(vol):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "v.svol")
        write_svol(path, vol)
        with open(path, "rb") as fh:
            return fh.read()


SVOL = _svol_bytes(SeismicVolume(
    inlines=[10, 20], xlines=[1, 2, 3], t0_ms=100.0, dt_ms=2.0,
    data=np.arange(30.0).reshape(2, 3, 5), attribute_name="imp",
    mask=np.arange(30).reshape(2, 3, 5) % 7 != 0))
# the 64-byte header, the name "imp" and the 2 + 3 index list entries; t0_ms
# is header bytes 24-31 and dt_ms bytes 32-39
SVOL_HEADER_BYTES = range(64 + 3 + 4 * 5)

# characters that carry LAS structure, plus a few that break numbers
LAS_CHARS = "~.: \n#-eE0123456789VWCAN"

CONFIG_LINES = ["wells = A", "well.A.las = a.las", "well.A.velocity = a.csv",
                "well.A.inline = 3", "well.A.xline = 4", "well.A.sf_curve = SF",
                "method = wd", "dt_ms = 0.15", "wavelet = db4", "wd_levels = 6",
                "truncate = 1,2,3,4,5", "zeta_max_hz = 30", "p1 = 1",
                "sd_threshold = 0.2", "avg_span = 9", "mi_bins = 16",
                "split_seed = 7", "hidden = 10", "max_iters = 2000",
                "train_seed = 7", "sigma = 0.0001", "lambda1 = 0.0001",
                "target_loss = 0.0", "validation_cc_threshold = 0.8",
                "max_attempts = 3", "predict = true", "filter_window = 3",
                "outdir = out", "vol.imp = imp.svol"]
CONFIG_VALUES = st.one_of(
    st.integers(-3, 10 ** 6).map(str),
    st.floats().map(str),
    st.sampled_from(["", "yes", "1,,2", "0", "ft", "A,A", "nan", "1e999"]),
    st.text(max_size=6),
)

# (index, new byte or character); the index is taken modulo the positions
EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                 min_size=1, max_size=3)
# where to cut the input, if at all
CUTS = st.one_of(st.none(), st.integers(0, 1 << 16))


def _damage(blob, positions, edits, cut):
    out = list(blob)
    for i, value in edits:
        out[positions[i % len(positions)]] = value
    return out if cut is None else out[:cut % (len(out) + 1)]


@settings(max_examples=60, deadline=None)
@given(fmt=st.sampled_from(sorted(SEGY)), edits=EDITS, cut=CUTS)
def test_segy_parses_or_is_a_data_error(fmt, edits, cut):
    data = bytes(_damage(SEGY[fmt], SEGY_READ_BYTES, edits, cut))
    try:
        parse_segy(data)
    except DataError:
        pass


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from(LAS_CHARS)),
                      min_size=1, max_size=3),
       cut=CUTS)
def test_las_parses_or_is_a_data_error(edits, cut):
    text = "".join(_damage(MINIMAL_LAS, range(len(MINIMAL_LAS)), edits, cut))
    try:
        parse_las(text)
    except DataError:
        pass


@settings(max_examples=150, deadline=None)
@given(edits=EDITS, cut=CUTS)
@example(edits=[(64, 0xff)], cut=None)
@example(edits=[(31, 0x7f), (30, 0xf8)], cut=None)     # t0_ms = NaN
@example(edits=[(39, 0xc0)], cut=None)                 # dt_ms = -2
def test_svol_parses_or_is_a_data_error(edits, cut):
    data = bytes(_damage(SVOL, SVOL_HEADER_BYTES, edits, cut))
    try:
        vol = SvolReader(io.BytesIO(data), len(data)).volume()
    except DataError:
        return
    assert math.isfinite(vol.t0_ms)
    assert math.isfinite(vol.dt_ms) and vol.dt_ms > 0


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 1 << 16), CONFIG_VALUES),
                      min_size=1, max_size=2),
       junk=st.lists(st.text(max_size=12), max_size=1))
def test_config_parses_or_is_a_config_error(edits, junk):
    lines = list(CONFIG_LINES)
    for i, value in edits:
        key = lines[i % len(lines)].split(" = ")[0]
        lines[i % len(lines)] = f"{key} = {value}"
    try:
        parse_config("\n".join(lines + junk))
    except ConfigError:
        pass


def test_wd_levels_is_checked_without_building_its_range():
    # truncate is checked against 1..wd_levels; a set of that range holds
    # 67 MiB here, and gigabytes at wd_levels = 10**9
    tracemalloc.start()
    try:
        config = parse_config(f"wd_levels = {10 ** 6}\ntruncate = 1,3\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.truncate_details == [1, 3]
    assert peak < 1 << 20
    with pytest.raises(ConfigError, match=r"truncate \[5\] outside 1\.\.4"):
        parse_config("wd_levels = 4\ntruncate = 5\n")
