"""Readers and writers for geophysical file formats: SEG-Y, LAS 2.0 and the
internal .svol volume store."""

from .ibmfloat import ibm_to_ieee_array, ieee_to_ibm
from .las import (
    LasCurve,
    LasLog,
    MissingSection,
    RaggedRow,
    VersionUnsupported,
    parse_las,
    write_las,
)
from .segy import (
    InconsistentTraceLength,
    SegyVolumeRaw,
    TraceLayout,
    TruncatedFile,
    UnsupportedFormatCode,
    parse_segy,
)
from .svol import decode_svol, encode_svol, read_svol, write_svol
from .volume import DuplicateTrace, SeismicVolume, volume_from_traces

__all__ = [
    "ibm_to_ieee_array", "ieee_to_ibm",
    "LasCurve", "LasLog", "MissingSection", "RaggedRow", "VersionUnsupported",
    "parse_las", "write_las",
    "InconsistentTraceLength", "SegyVolumeRaw", "TraceLayout", "TruncatedFile",
    "UnsupportedFormatCode", "parse_segy",
    "decode_svol", "encode_svol", "read_svol", "write_svol",
    "DuplicateTrace", "SeismicVolume", "volume_from_traces",
]
