"""Internal `.svol` binary volume store.

Little-endian throughout: a 64-byte magic+dims header, then the attribute
name, index lists, validity mask and float64 samples.  Layout is documented
in docs/format.md; the magic carries the version so the format can evolve.

The reader checks the length the header implies against the file's before
it allocates anything, then reads each section straight into its final
array; the writer writes each array's own buffer.  Neither holds a second
copy of the volume.
"""

import io
import os
import stat
import struct

import numpy as np

from ..errors import DataError
from .volume import SeismicVolume

MAGIC = b"SVOL0001"
HEADER_LEN = 64
HEADER = struct.Struct("<8sIIII dd")


class BadVolumeFile(DataError):
    pass


def _write(fh, vol: SeismicVolume) -> None:
    name = vol.attribute_name.encode("utf-8")
    n_il, n_xl, ns = vol.data.shape
    header = HEADER.pack(MAGIC, n_il, n_xl, ns, len(name), vol.t0_ms, vol.dt_ms)
    fh.write(header.ljust(HEADER_LEN, b"\x00"))
    fh.write(name)
    # a bool array holds 0/1 bytes, so its uint8 view is the mask section
    for array, dtype in ((vol.inlines, "<i4"), (vol.xlines, "<i4"),
                         (vol.mask.view(np.uint8), "<u1"), (vol.data, "<f8")):
        fh.write(np.ascontiguousarray(array, dtype=dtype).reshape(-1))


def _read(fh, size: int) -> SeismicVolume:
    head = fh.read(HEADER_LEN)
    if len(head) < HEADER_LEN:
        raise BadVolumeFile("shorter than the 64-byte header")
    magic, n_il, n_xl, ns, name_len, t0_ms, dt_ms = HEADER.unpack_from(head)
    if magic != MAGIC:
        raise BadVolumeFile(f"bad magic {magic!r}")
    shape = (n_il, n_xl, ns)
    expected = (HEADER_LEN + name_len + 4 * (n_il + n_xl)
                + n_il * n_xl * ns * (1 + 8))
    if size != expected:
        raise BadVolumeFile(f"file is {size} bytes, expected {expected}")
    try:
        name = fh.read(name_len).decode("utf-8")
    except UnicodeDecodeError:
        raise BadVolumeFile("attribute name is not valid UTF-8") from None
    inlines = np.empty(n_il, dtype="<i4")
    xlines = np.empty(n_xl, dtype="<i4")
    mask = np.empty(shape, dtype=bool)
    data = np.empty(shape, dtype="<f8")
    for array in (inlines, xlines, mask, data):
        view = memoryview(array.view(np.uint8)).cast("B")
        if fh.readinto(view) != len(view):
            raise BadVolumeFile("file ended inside its data")
    # any nonzero mask byte marks a valid sample
    np.not_equal(mask.view(np.uint8), 0, out=mask)
    return SeismicVolume(inlines=inlines, xlines=xlines, t0_ms=t0_ms,
                         dt_ms=dt_ms, data=data, attribute_name=name, mask=mask)


def encode_svol(vol: SeismicVolume) -> bytes:
    buffer = io.BytesIO()
    _write(buffer, vol)
    return buffer.getvalue()


def decode_svol(data: bytes) -> SeismicVolume:
    return _read(io.BytesIO(data), len(data))


def write_svol(path, vol: SeismicVolume) -> None:
    with open(path, "wb") as fh:
        _write(fh, vol)


def read_svol(path) -> SeismicVolume:
    with open(path, "rb") as fh:
        status = os.fstat(fh.fileno())
        # the length check needs the size up front, which a pipe lacks
        if not stat.S_ISREG(status.st_mode):
            raise BadVolumeFile(f"{path} is not a regular file")
        return _read(fh, status.st_size)
