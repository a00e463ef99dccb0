"""Readers and writers for geophysical file formats: SEG-Y, LAS 2.0 and the
internal .svol volume store."""

from .ibmfloat import ibm_to_ieee_array, ieee_to_ibm
from .las import LasCurve, LasLog, parse_las, write_las
from .segy import TraceLayout, parse_segy
from .svol import read_svol, write_svol
from .volume import SeismicVolume

__all__ = [
    "ibm_to_ieee_array", "ieee_to_ibm",
    "LasCurve", "LasLog", "parse_las", "write_las",
    "TraceLayout", "parse_segy",
    "read_svol", "write_svol",
    "SeismicVolume",
]
