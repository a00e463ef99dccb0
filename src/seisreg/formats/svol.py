"""Internal `.svol` binary volume store.

Little-endian throughout: a 64-byte magic+dims header, then the attribute
name, index lists, validity mask and float64 samples.  Layout is documented
in docs/format.md; the magic carries the version so the format can evolve.
"""

import struct

import numpy as np

from ..errors import DataError
from .volume import SeismicVolume

MAGIC = b"SVOL0001"
HEADER_LEN = 64


class BadVolumeFile(DataError):
    pass


def encode_svol(vol: SeismicVolume) -> bytes:
    name = vol.attribute_name.encode("utf-8")
    n_il, n_xl, ns = vol.data.shape
    header = struct.pack(
        "<8sIIII dd",
        MAGIC, n_il, n_xl, ns, len(name), vol.t0_ms, vol.dt_ms,
    )
    header += b"\x00" * (HEADER_LEN - len(header))
    parts = [
        header,
        name,
        vol.inlines.astype("<i4").tobytes(),
        vol.xlines.astype("<i4").tobytes(),
        vol.mask.astype("<u1").tobytes(),
        vol.data.astype("<f8").tobytes(),
    ]
    return b"".join(parts)


def decode_svol(data: bytes) -> SeismicVolume:
    if len(data) < HEADER_LEN:
        raise BadVolumeFile("shorter than the 64-byte header")
    magic, n_il, n_xl, ns, name_len, t0_ms, dt_ms = struct.unpack(
        "<8sIIII dd", data[:struct.calcsize("<8sIIII dd")]
    )
    if magic != MAGIC:
        raise BadVolumeFile(f"bad magic {magic!r}")
    off = HEADER_LEN
    expected = off + name_len + 4 * (n_il + n_xl) + n_il * n_xl * ns * (1 + 8)
    if len(data) != expected:
        raise BadVolumeFile(f"file is {len(data)} bytes, expected {expected}")
    try:
        name = data[off:off + name_len].decode("utf-8")
    except UnicodeDecodeError:
        raise BadVolumeFile("attribute name is not valid UTF-8") from None
    off += name_len
    inlines = np.frombuffer(data, dtype="<i4", count=n_il, offset=off)
    off += 4 * n_il
    xlines = np.frombuffer(data, dtype="<i4", count=n_xl, offset=off)
    off += 4 * n_xl
    mask = np.frombuffer(data, dtype="<u1", count=n_il * n_xl * ns, offset=off)
    off += n_il * n_xl * ns
    grid = np.frombuffer(data, dtype="<f8", count=n_il * n_xl * ns, offset=off)
    return SeismicVolume(
        inlines=inlines.copy(),
        xlines=xlines.copy(),
        t0_ms=t0_ms,
        dt_ms=dt_ms,
        data=grid.reshape(n_il, n_xl, ns).copy(),
        attribute_name=name,
        mask=mask.reshape(n_il, n_xl, ns).astype(bool),
    )


def write_svol(path, vol: SeismicVolume) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_svol(vol))


def read_svol(path) -> SeismicVolume:
    with open(path, "rb") as fh:
        return decode_svol(fh.read())
