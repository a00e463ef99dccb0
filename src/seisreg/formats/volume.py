"""Dense seismic volume container, the geometry it shares with open `.svol`
files, and assembly from parsed traces."""

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError


# Long spellings of the model's input keys: `seisreg synth` writes these
# into .svol headers, and either spelling names the same attribute.
ATTRIBUTE_LONG_NAMES = {"imp": "impedance", "amp": "amplitude",
                        "freq": "inst_frequency"}

# Voxels per block of the NaN check; any size gives the same verdict.
CHECK_ROWS = 1 << 16


class DuplicateTrace(DataError):
    pass


class Grid:
    """Geometry and voxel addressing shared by an in-memory SeismicVolume
    and an open `.svol` file.

    Voxels are numbered in C order over [inline][xline][sample], and
    `read(start, stop)` returns the samples and the mask of the flat range
    [start, stop).  Subclasses provide `inlines`, `xlines`, `t0_ms`,
    `dt_ms`, `attribute_name`, `shape` and `read`.
    """

    @property
    def n_samples(self) -> int:
        return self.shape[2]

    @property
    def n_voxels(self) -> int:
        return math.prod(self.shape)

    @property
    def times_ms(self) -> np.ndarray:
        return self.t0_ms + self.dt_ms * np.arange(self.n_samples)

    def inline_index(self, inline: int) -> int:
        i = int(np.searchsorted(self.inlines, inline))
        if i >= len(self.inlines) or self.inlines[i] != inline:
            raise DataError(f"inline {inline} not in volume")
        return i

    def xline_index(self, xline: int) -> int:
        i = int(np.searchsorted(self.xlines, xline))
        if i >= len(self.xlines) or self.xlines[i] != xline:
            raise DataError(f"xline {xline} not in volume")
        return i

    def trace(self, inline: int, xline: int):
        """The samples and mask of the trace at (inline, xline)."""
        cell = self.inline_index(inline) * len(self.xlines) + self.xline_index(xline)
        return self.read(cell * self.n_samples, (cell + 1) * self.n_samples)

    def same_geometry(self, other: "Grid") -> bool:
        return (
            np.array_equal(self.inlines, other.inlines)
            and np.array_equal(self.xlines, other.xlines)
            and self.t0_ms == other.t0_ms
            and self.dt_ms == other.dt_ms
            and self.shape == other.shape
        )

    def check_samples(self) -> None:
        """Reject a NaN at a valid voxel, reading CHECK_ROWS voxels at a time."""
        n = self.n_voxels
        for start in range(0, n, CHECK_ROWS):
            data, mask = self.read(start, min(start + CHECK_ROWS, n))
            if (np.isnan(data) & mask).any():
                raise DataError("NaN in valid samples; missing data must be masked")


@dataclass
class SeismicVolume(Grid):
    """Dense 3-D attribute grid indexed [inline][xline][sample].

    Missing traces are represented by the boolean ``mask`` (True = valid),
    never by NaN, so boundary handling downstream is mask-driven.
    """

    inlines: np.ndarray          # sorted int32
    xlines: np.ndarray           # sorted int32
    t0_ms: float
    dt_ms: float
    data: np.ndarray             # float64 [n_il, n_xl, n_samples]
    attribute_name: str = ""
    mask: np.ndarray = field(default=None)  # bool, same shape as data

    def __post_init__(self):
        self.inlines = np.asarray(self.inlines, dtype=np.int32)
        self.xlines = np.asarray(self.xlines, dtype=np.int32)
        # C order, so that a flat voxel range is a view
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.mask is None:
            self.mask = np.ones(self.data.shape, dtype=bool)
        else:
            self.mask = np.ascontiguousarray(self.mask, dtype=bool)
        if not (np.isfinite(self.dt_ms) and self.dt_ms > 0):
            raise DataError(f"dt_ms must be finite and positive, got {self.dt_ms}")
        expected = (len(self.inlines), len(self.xlines))
        if self.data.shape[:2] != expected or self.mask.shape != self.data.shape:
            raise DataError("grid dimensions do not match index lists")
        self.check_samples()

    @classmethod
    def blank(cls, grid: Grid, attribute_name: str) -> "SeismicVolume":
        """A volume on `grid`'s geometry with every voxel masked, for a stage
        to `write` into."""
        return cls(inlines=grid.inlines.copy(), xlines=grid.xlines.copy(),
                   t0_ms=grid.t0_ms, dt_ms=grid.dt_ms, data=np.zeros(grid.shape),
                   attribute_name=attribute_name,
                   mask=np.zeros(grid.shape, dtype=bool))

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def read(self, start: int, stop: int):
        """Views of the samples and mask of flat voxels [start, stop)."""
        return (self.data.reshape(-1)[start:stop],
                self.mask.reshape(-1)[start:stop])

    def write(self, start: int, data, mask) -> None:
        """Store samples and mask (any shape, in C order) at flat voxels
        from `start` on."""
        data, mask = np.ravel(data), np.ravel(mask)
        stop = start + data.size
        self.data.reshape(-1)[start:stop] = data
        self.mask.reshape(-1)[start:stop] = mask


def volume_from_traces(raw) -> SeismicVolume:
    """Assemble a dense SeismicVolume over the Cartesian closure of the
    observed inlines x xlines.  Traces absent from the file are masked out,
    not zero-filled as data.  A cell read twice is an error, named at its
    earliest second occurrence in file order.
    """
    if not len(raw.inlines):
        raise DataError("no traces")
    inlines, i = np.unique(raw.inlines, return_inverse=True)
    xlines, j = np.unique(raw.xlines, return_inverse=True)
    cells = i * len(xlines) + j
    _, first = np.unique(cells, return_index=True)
    if len(first) < len(cells):
        k = np.setdiff1d(np.arange(len(cells)), first)[0]
        raise DuplicateTrace(f"duplicate trace at inline {raw.inlines[k]}, "
                             f"xline {raw.xlines[k]}")
    ns = raw.binary_header.samples_per_trace
    data = np.zeros((len(inlines), len(xlines), ns))
    mask = np.zeros(data.shape, dtype=bool)
    data.reshape(-1, ns)[cells] = raw.samples
    mask.reshape(-1, ns)[cells] = True
    return SeismicVolume(
        inlines=inlines,
        xlines=xlines,
        t0_ms=0.0,
        dt_ms=raw.binary_header.sample_interval_us / 1000.0,
        data=data,
        mask=mask,
    )
