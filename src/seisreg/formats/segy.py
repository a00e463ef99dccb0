"""SEG-Y rev 1 reader: big-endian binary headers, IBM (code 1) and IEEE
(code 5) trace samples, read straight into a masked SeismicVolume.

Trace-header byte positions for inline/xline default to 189 and 193
(1-based), the rev-1 convention, but vendors disagree so they are
configuration.  The 3200-byte EBCDIC textual header and every other
trace-header field are skipped.
"""

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from .ibmfloat import ibm_to_ieee_array
from .volume import SeismicVolume

TEXTUAL_HEADER_LEN = 3200
BINARY_HEADER_LEN = 400
TRACE_HEADER_LEN = 240

# 1-based byte positions within the 400-byte binary header (SEG-Y standard)
_SAMPLE_INTERVAL_POS = 3217 - 3200
_SAMPLES_PER_TRACE_POS = 3221 - 3200
_FORMAT_CODE_POS = 3225 - 3200

DEFAULT_INLINE_BYTE = 189
DEFAULT_XLINE_BYTE = 193

SUPPORTED_FORMAT_CODES = (1, 5)

# IBM samples decoded per block: the decoder's temporaries take ~40 B each
_IBM_BLOCK_SAMPLES = 2 ** 16


@dataclass
class TraceLayout:
    """1-based byte offsets of the inline/xline int32 fields in the trace header."""

    inline_byte_offset: int = DEFAULT_INLINE_BYTE
    xline_byte_offset: int = DEFAULT_XLINE_BYTE

    def __post_init__(self):
        last = TRACE_HEADER_LEN - 3     # an int32 field must fit in the header
        for name in ("inline_byte_offset", "xline_byte_offset"):
            if not 1 <= getattr(self, name) <= last:
                raise ConfigError(f"{name} must be in 1..{last}, "
                                  f"got {getattr(self, name)}")


def parse_segy(data: bytes, layout: TraceLayout | None = None) -> SeismicVolume:
    """Parse SEG-Y bytes into a dense SeismicVolume over the Cartesian
    closure of the observed inlines x xlines.  Traces absent from the file
    are masked out, not zero-filled as data.  A cell read twice is an
    error, named at its earliest second occurrence in file order.
    """
    layout = layout or TraceLayout()
    if len(data) < TEXTUAL_HEADER_LEN + BINARY_HEADER_LEN:
        raise DataError(
            f"file is {len(data)} bytes, shorter than the 3600-byte header region"
        )

    def u16(pos_1based):    # within the binary header
        return struct.unpack_from(">H", data, TEXTUAL_HEADER_LEN + pos_1based - 1)[0]

    format_code = u16(_FORMAT_CODE_POS)
    if format_code not in SUPPORTED_FORMAT_CODES:
        raise DataError(
            f"format code {format_code}; supported: {SUPPORTED_FORMAT_CODES}"
        )
    ns = u16(_SAMPLES_PER_TRACE_POS)
    if ns <= 0:
        raise DataError("samples per trace must be positive")
    stride = TRACE_HEADER_LEN + 4 * ns
    region_len = len(data) - TEXTUAL_HEADER_LEN - BINARY_HEADER_LEN
    if region_len % stride != 0:
        raise DataError(
            f"trace region of {region_len} bytes is not a multiple of "
            f"{stride} (240 + 4*{ns})"
        )
    # one row per trace: its 240 header bytes, then its 4*ns sample bytes
    traces = np.frombuffer(data, dtype=np.uint8,
                           offset=TEXTUAL_HEADER_LEN + BINARY_HEADER_LEN)
    traces = traces.reshape(-1, stride)

    def header_int32(pos_1based):
        field = traces[:, pos_1based - 1:pos_1based + 3]
        return np.ascontiguousarray(field).view(">i4")[:, 0].astype(np.int32)

    trace_inlines = header_int32(layout.inline_byte_offset)
    trace_xlines = header_int32(layout.xline_byte_offset)
    if not len(trace_inlines):
        raise DataError("no traces")
    inlines, i = np.unique(trace_inlines, return_inverse=True)
    xlines, j = np.unique(trace_xlines, return_inverse=True)
    cells = i * len(xlines) + j
    _, first = np.unique(cells, return_index=True)
    if len(first) < len(cells):
        k = np.setdiff1d(np.arange(len(cells)), first)[0]
        raise DataError(f"duplicate trace at inline {trace_inlines[k]}, "
                        f"xline {trace_xlines[k]}")
    grid = np.zeros((len(inlines), len(xlines), ns))
    mask = np.zeros(grid.shape, dtype=bool)
    rows = grid.reshape(-1, ns)
    # IEEE samples stay a view of the file bytes, widened exactly by the
    # scatter; IBM ones are decoded a block of traces at a time, so the
    # decoder's temporaries span one block, not the file
    payload = traces[:, TRACE_HEADER_LEN:]
    if format_code == 5:
        rows[cells] = payload.view(">f4")
    else:
        step = max(1, _IBM_BLOCK_SAMPLES // ns)
        for a in range(0, len(cells), step):
            rows[cells[a:a + step]] = ibm_to_ieee_array(
                payload[a:a + step].view(">u4"))
    mask.reshape(-1, ns)[cells] = True
    return SeismicVolume(inlines=inlines, xlines=xlines, t0_ms=0.0,
                         dt_ms=u16(_SAMPLE_INTERVAL_POS) / 1000.0,
                         data=grid, mask=mask)
