"""SEG-Y rev 1 reader: big-endian binary headers, IBM (code 1) and IEEE
(code 5) trace samples.

Trace-header byte positions for inline/xline default to 189 and 193
(1-based), the rev-1 convention, but vendors disagree so they are
configuration.  The 3200-byte EBCDIC textual header is kept verbatim.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError
from .ibmfloat import ibm_to_ieee_array

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


class TruncatedFile(DataError):
    pass


class UnsupportedFormatCode(DataError):
    pass


class InconsistentTraceLength(DataError):
    pass


@dataclass
class SegyBinaryHeader:
    sample_interval_us: int
    samples_per_trace: int
    format_code: int


@dataclass
class SegyTrace:
    header_bytes: bytes
    inline: int
    xline: int
    samples: np.ndarray


@dataclass
class SegyVolumeRaw:
    textual_header: bytes
    binary_header: SegyBinaryHeader
    traces: list = field(default_factory=list)


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


def parse_segy(data: bytes, layout: TraceLayout | None = None) -> SegyVolumeRaw:
    """Parse SEG-Y bytes into headers plus decoded traces."""
    layout = layout or TraceLayout()
    if len(data) < TEXTUAL_HEADER_LEN + BINARY_HEADER_LEN:
        raise TruncatedFile(
            f"file is {len(data)} bytes, shorter than the 3600-byte header region"
        )
    textual = data[:TEXTUAL_HEADER_LEN]
    binary = data[TEXTUAL_HEADER_LEN:TEXTUAL_HEADER_LEN + BINARY_HEADER_LEN]

    def u16(pos_1based):
        off = pos_1based - 1
        return struct.unpack(">H", binary[off:off + 2])[0]

    header = SegyBinaryHeader(
        sample_interval_us=u16(_SAMPLE_INTERVAL_POS),
        samples_per_trace=u16(_SAMPLES_PER_TRACE_POS),
        format_code=u16(_FORMAT_CODE_POS),
    )
    if header.format_code not in SUPPORTED_FORMAT_CODES:
        raise UnsupportedFormatCode(
            f"format code {header.format_code}; supported: {SUPPORTED_FORMAT_CODES}"
        )
    ns = header.samples_per_trace
    if ns <= 0:
        raise InconsistentTraceLength("samples per trace must be positive")
    stride = TRACE_HEADER_LEN + 4 * ns
    region = data[TEXTUAL_HEADER_LEN + BINARY_HEADER_LEN:]
    if len(region) % stride != 0:
        raise InconsistentTraceLength(
            f"trace region of {len(region)} bytes is not a multiple of "
            f"{stride} (240 + 4*{ns})"
        )

    traces = []
    for start in range(0, len(region), stride):
        th = region[start:start + TRACE_HEADER_LEN]
        payload = region[start + TRACE_HEADER_LEN:start + stride]
        inline = struct.unpack_from(">i", th, layout.inline_byte_offset - 1)[0]
        xline = struct.unpack_from(">i", th, layout.xline_byte_offset - 1)[0]
        if header.format_code == 5:
            samples = np.frombuffer(payload, dtype=">f4").astype(np.float64)
        else:
            words = np.frombuffer(payload, dtype=">u4").astype(np.uint32)
            samples = ibm_to_ieee_array(words)
        traces.append(SegyTrace(header_bytes=th, inline=inline, xline=xline,
                                samples=samples))
    return SegyVolumeRaw(textual_header=textual, binary_header=header, traces=traces)
