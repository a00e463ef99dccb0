"""Dense seismic volume container and assembly from parsed traces."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError


# Long spellings of the model's input keys: `seisreg synth` writes these
# into .svol headers, and either spelling names the same attribute.
ATTRIBUTE_LONG_NAMES = {"imp": "impedance", "amp": "amplitude",
                        "freq": "inst_frequency"}


class DuplicateTrace(DataError):
    pass


@dataclass
class SeismicVolume:
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
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.mask is None:
            self.mask = np.ones(self.data.shape, dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
        if not (np.isfinite(self.dt_ms) and self.dt_ms > 0):
            raise DataError(f"dt_ms must be finite and positive, got {self.dt_ms}")
        expected = (len(self.inlines), len(self.xlines))
        if self.data.shape[:2] != expected or self.mask.shape != self.data.shape:
            raise DataError("grid dimensions do not match index lists")
        if (np.isnan(self.data) & self.mask).any():
            raise DataError("NaN in valid samples; missing data must be masked")

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]

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

    def same_geometry(self, other: "SeismicVolume") -> bool:
        return (
            np.array_equal(self.inlines, other.inlines)
            and np.array_equal(self.xlines, other.xlines)
            and self.t0_ms == other.t0_ms
            and self.dt_ms == other.dt_ms
            and self.data.shape == other.data.shape
        )


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
