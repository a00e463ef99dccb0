"""Internal `.svol` binary volume store, read and written by block.

Little-endian throughout: a 64-byte magic+dims header, then the attribute
name, index lists, validity mask and float64 samples.  Layout is documented
in docs/format.md; the magic carries the version so the format can evolve.

Mask and samples are stored in C order, so a flat voxel range is one byte
range in each of the two sections.  The reader checks the length the header
implies against the file's before it allocates anything, then reads any
voxel range straight into its final arrays; the writer writes the header
and index lists once and then each block at its offsets, from the block's
own buffers.  Whole-volume reads and writes are the one-block case.
"""

import contextlib
import io
import os
import stat
import struct

import numpy as np

from ..errors import DataError
from .volume import Grid, SeismicVolume

MAGIC = b"SVOL0001"
HEADER_LEN = 64
HEADER = struct.Struct("<8sIIII dd")


class BadVolumeFile(DataError):
    pass


class SvolReader(Grid):
    """An open `.svol`: its geometry at once, any flat voxel range on demand.

    Closes its file on `close()` or at the end of a `with` block.
    """

    def __init__(self, fh, size: int):
        self._fh = fh
        head = fh.read(HEADER_LEN)
        if len(head) < HEADER_LEN:
            raise BadVolumeFile("shorter than the 64-byte header")
        magic, n_il, n_xl, ns, name_len, t0_ms, dt_ms = HEADER.unpack_from(head)
        if magic != MAGIC:
            raise BadVolumeFile(f"bad magic {magic!r}")
        self.shape = (n_il, n_xl, ns)
        self._mask_at = HEADER_LEN + name_len + 4 * (n_il + n_xl)
        self._data_at = self._mask_at + self.n_voxels
        expected = self._data_at + 8 * self.n_voxels
        if size != expected:
            raise BadVolumeFile(f"file is {size} bytes, expected {expected}")
        try:
            self.attribute_name = fh.read(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise BadVolumeFile("attribute name is not valid UTF-8") from None
        self.t0_ms, self.dt_ms = t0_ms, dt_ms
        self.inlines = np.empty(n_il, dtype="<i4")
        self.xlines = np.empty(n_xl, dtype="<i4")
        self._fill(self.inlines, HEADER_LEN + name_len)
        self._fill(self.xlines, HEADER_LEN + name_len + 4 * n_il)

    def _fill(self, array, offset: int) -> None:
        self._fh.seek(offset)
        view = memoryview(array.view(np.uint8)).cast("B")
        if self._fh.readinto(view) != len(view):
            raise BadVolumeFile("file ended inside its data")

    def read(self, start: int, stop: int):
        """The samples and mask of flat voxels [start, stop), newly read."""
        data = np.empty(stop - start, dtype="<f8")
        mask = np.empty(stop - start, dtype=bool)
        self._fill(mask, self._mask_at + start)
        self._fill(data, self._data_at + 8 * start)
        # any nonzero mask byte marks a valid sample
        np.not_equal(mask.view(np.uint8), 0, out=mask)
        return data, mask

    def volume(self) -> SeismicVolume:
        """The whole volume in memory."""
        data, mask = self.read(0, self.n_voxels)
        return SeismicVolume(inlines=self.inlines, xlines=self.xlines,
                             t0_ms=self.t0_ms, dt_ms=self.dt_ms,
                             data=data.reshape(self.shape),
                             attribute_name=self.attribute_name,
                             mask=mask.reshape(self.shape))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SvolWriter:
    """Writes one `.svol` into an open binary file: the header and index
    lists at once, then each block's mask and samples at their offsets."""

    def __init__(self, fh, grid: Grid, attribute_name: str):
        name = attribute_name.encode("utf-8")
        n_il, n_xl, ns = grid.shape
        header = HEADER.pack(MAGIC, n_il, n_xl, ns, len(name), grid.t0_ms,
                             grid.dt_ms)
        fh.write(header.ljust(HEADER_LEN, b"\x00"))
        fh.write(name)
        for index in (grid.inlines, grid.xlines):
            fh.write(np.ascontiguousarray(index, dtype="<i4"))
        self._fh = fh
        self._mask_at = HEADER_LEN + len(name) + 4 * (n_il + n_xl)
        self._data_at = self._mask_at + grid.n_voxels

    def write(self, start: int, data, mask) -> None:
        """Store samples and mask (any shape, in C order) at flat voxels
        from `start` on."""
        # a bool array holds 0/1 bytes, so its uint8 view is the mask section
        mask = np.ascontiguousarray(mask, dtype=bool).reshape(-1).view(np.uint8)
        data = np.ascontiguousarray(data, dtype="<f8").reshape(-1)
        for array, offset in ((mask, self._mask_at + start),
                              (data, self._data_at + 8 * start)):
            self._fh.seek(offset)
            self._fh.write(array)


@contextlib.contextmanager
def create_svol(path, grid: Grid, attribute_name: str):
    """Yield an SvolWriter for `path` on `grid`'s geometry.

    The blocks go to a temporary file in the same directory, which replaces
    `path` only when the `with` block ends without error and is removed
    otherwise: no partial volume is ever left at `path`, and a volume can
    be written over a file that is still being read.  A symbolic link at
    `path` is followed, as an in-place write would, not replaced.
    """
    path = os.path.realpath(path)
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temp, "xb") as fh:
            yield SvolWriter(fh, grid, attribute_name)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _open(path) -> SvolReader:
    fh = open(path, "rb")
    try:
        status = os.fstat(fh.fileno())
        # the length check needs the size up front, which a pipe lacks
        if not stat.S_ISREG(status.st_mode):
            raise BadVolumeFile(f"{path} is not a regular file")
        return SvolReader(fh, status.st_size)
    except BaseException:
        fh.close()
        raise


def open_svol(path) -> SvolReader:
    """Open a `.svol` for block reads, after one blocked pass over it that
    rejects a NaN at a valid voxel as `read_svol` does."""
    reader = _open(path)
    try:
        reader.check_samples()
    except BaseException:
        reader.close()
        raise
    return reader


def read_svol(path) -> SeismicVolume:
    with _open(path) as reader:
        return reader.volume()


def write_svol(path, vol: SeismicVolume) -> None:
    with create_svol(path, vol, vol.attribute_name) as writer:
        writer.write(0, vol.data, vol.mask)


def decode_svol(data: bytes) -> SeismicVolume:
    return SvolReader(io.BytesIO(data), len(data)).volume()


def encode_svol(vol: SeismicVolume) -> bytes:
    buffer = io.BytesIO()
    SvolWriter(buffer, vol, vol.attribute_name).write(0, vol.data, vol.mask)
    return buffer.getvalue()
