"""Empirical mode decomposition by sifting, and regularization by
suppressing the leading (highest-frequency) intrinsic mode functions.

Sifting subtracts the mean of the cubic-spline envelopes through the local
maxima and minima until the candidate is an IMF: the Cauchy-type SD
criterion is below threshold and the extrema/zero-crossing counts differ by
at most one.  Envelope ends are handled by mirroring the two nearest
extrema across each boundary, which is the dominant failure mode when left
unhandled.  Each candidate's extrema are found once and serve both its
envelopes and its IMF test.

The envelopes are natural cubic splines built in numpy around one LAPACK
tridiagonal solve (`dgtsv`): the same arithmetic as
`scipy.interpolate.CubicSpline(..., bc_type="natural")`, bit for bit.  The
solve calls the `dgtsv` of the OpenBLAS that numpy has already loaded, so EMD
loads no scipy; only a numpy built without that symbol (MKL, Accelerate)
falls back to `scipy.linalg.lapack.dgtsv`.
"""

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .metrics import psd, spectral_entropy  # noqa: F401  only for perfbench/spans.py
from .resample import TimeSeries


# sifting caps: envelope subtractions per IMF, and IMFs per decomposition
MAX_SIFT_ITERS = 50
MAX_IMFS = 16


@dataclass
class SiftParams:
    sd_threshold: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.sd_threshold < 1.0:
            raise ConfigError("sd_threshold must be in (0, 1)")


@dataclass
class ImfSet:
    imfs: list         # of TimeSeries, highest-frequency first
    residue: TimeSeries

    def __len__(self):
        return len(self.imfs)

    def reconstruct(self) -> np.ndarray:
        total = self.residue.values.copy()
        for imf in self.imfs:
            total += imf.values
        return total


def find_extrema(values):
    """Strict local maxima/minima indices by 3-point comparison.

    Flat plateaus contribute a single index at their (rounded-down)
    midpoint.  Endpoints are never extrema.
    """
    x = np.asarray(values, dtype=np.float64)
    if len(x) < 3:
        return np.array([], dtype=int), np.array([], dtype=int)
    # run-length compress equal neighbours so plateaus compare as one node
    change = np.nonzero(np.diff(x) != 0)[0]
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change, [len(x) - 1]])
    vals = x[starts]
    mid = ((starts + ends) // 2)[1:-1]
    left, centre, right = vals[:-2], vals[1:-1], vals[2:]
    maxima = mid[(left < centre) & (centre > right)]
    minima = mid[(left > centre) & (centre < right)]
    return maxima, minima


def zero_crossings(values) -> int:
    x = np.asarray(values, dtype=np.float64)
    nz = x[x != 0]
    if len(nz) < 2:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(nz))))


def _numpy_dgtsv():
    """LAPACK `dgtsv` from the OpenBLAS numpy's linalg is linked against, or
    None when that build exports no `scipy_dgtsv_64_`.

    A handle's symbol lookup also searches the library's dependencies, so
    this finds the OpenBLAS already mapped and maps no new library.  The
    `_64_` routine takes 64-bit integers.
    """
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dgtsv_64_
    except (OSError, AttributeError):
        return None
    # raw pointers: ndpointer argtypes cost about 20 us more per call
    fn.argtypes = [ctypes.c_void_p] * 8
    fn.restype = None
    return fn


_DGTSV = _numpy_dgtsv()


def _sample_intervals(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Each sample's spline interval, as PPoly picks it:
    `clip(searchsorted(x, grid, "right") - 1, 0, len(x) - 2)` for the grid
    0..n-1, found with one search per knot instead of one per sample."""
    below = np.searchsorted(grid, x)      # samples left of each knot
    i = np.repeat(np.arange(-1, len(x)),
                  np.diff(below, prepend=0, append=len(grid)))
    return np.clip(i, 0, len(x) - 2)


def _natural_spline(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """`scipy.interpolate.CubicSpline(x, y, bc_type="natural")` on 0..n-1,
    operation for operation, so every bit of it is kept.

    The knot slopes solve CubicSpline's tridiagonal system with the LAPACK
    routine it reaches through `solve_banded`, `dgtsv`, taken from numpy's
    OpenBLAS (`_DGTSV`) or, when numpy has none, from `scipy.linalg.lapack`;
    each sample then evaluates its interval's Hermite cubic as `PPoly` does.
    `x` is strictly increasing, with x[0] <= 0 and x[-1] >= n - 1.
    """
    # as CubicSpline does; dgtsv reads the buffers below as float64
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # one row per knot: the slope equations inside, zero curvature at the
    # ends.  scipy adds the end curvature to b as -0.0 and +0.0 terms; the
    # first never changes a value, the second turns a -0.0 into 0.0
    d = 2 * np.concatenate([dx[:1], dx[:-1] + dx[1:], dx[-1:]])
    du = np.concatenate([dx[:1], dx[:-1]])
    dl = np.concatenate([dx[1:], dx[-1:]])
    b = np.concatenate([3 * (y[1:2] - y[:1]),
                        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                        0.0 + 3 * (y[-1:] - y[-2:-1])])
    # strictly increasing knots make the system strictly diagonally
    # dominant, so dgtsv never reports a singular one.  It overwrites the
    # four fresh float64 arrays; b becomes the solution
    if _DGTSV is None:
        # imported here so that only EMD runs on such a numpy load scipy
        from scipy.linalg.lapack import dgtsv
        s = dgtsv(dl, d, du, b, overwrite_dl=True, overwrite_d=True,
                  overwrite_du=True, overwrite_b=True)[3]
    else:
        ints = np.array([len(d), 1, 0], dtype=np.int64)  # n = ldb, nrhs, info
        p = ints.ctypes.data
        _DGTSV(p, p + 8, dl.ctypes.data, d.ctypes.data, du.ctypes.data,
               b.ctypes.data, p, p + 16)
        s = b
    # CubicHermiteSpline's coefficients, highest power first
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    grid = np.arange(n, dtype=np.float64)
    i = _sample_intervals(x, grid)
    z = grid - x[i]
    # PPoly sums from 0.0, lowest power first
    out = 0.0 + c3[i]
    out += c2[i] * z
    out += c1[i] * (z * z)
    out += c0[i] * ((z * z) * z)
    return out


def _mirrored_spline(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic spline through extrema, with the two nearest extrema
    mirrored across each boundary, evaluated on 0..n-1.

    `idx` holds at least two increasing indices inside 1..n-2, so the
    mirrored knots stay strictly increasing.
    """
    xs = np.concatenate([-idx[:2][::-1], idx, 2 * (n - 1) - idx[-2:][::-1]])
    ys = np.concatenate([vals[:2][::-1], vals, vals[-2:][::-1]])
    return _natural_spline(xs, ys, n)


def envelope_mean(x: np.ndarray, maxima: np.ndarray,
                  minima: np.ndarray) -> np.ndarray:
    """Mean of the upper and lower cubic-spline envelopes of a sample array,
    on its own grid, through its `find_extrema` (at least two of each)."""
    e_max = _mirrored_spline(maxima, x[maxima], len(x))
    e_min = _mirrored_spline(minima, x[minima], len(x))
    return (e_max + e_min) / 2.0


def _sift_one(residue: np.ndarray, params: SiftParams):
    """Extract one IMF from the running residue, or None when the residue
    cannot support envelopes (normal termination)."""
    h = residue
    maxima, minima = find_extrema(h)
    for iteration in range(MAX_SIFT_ITERS):
        if len(maxima) < 2 or len(minima) < 2:
            return None if iteration == 0 else h
        m = envelope_mean(h, maxima, minima)
        denom = float(np.dot(h, h))
        sd = float(np.dot(m, m)) / denom if denom > 0 else 0.0
        h = h - m
        maxima, minima = find_extrema(h)
        if (sd < params.sd_threshold
                and abs(len(maxima) + len(minima) - zero_crossings(h)) <= 1):
            break
    return h


def emd(series: TimeSeries, params: SiftParams | None = None) -> ImfSet:
    """Decompose into IMFs plus a residue; the sum reproduces the input
    exactly by construction."""
    params = params or SiftParams()
    if len(series) < 16:
        raise DataError(f"need at least 16 samples, got {len(series)}")
    residue = series.values.copy()
    imfs = []
    while len(imfs) < MAX_IMFS:
        imf = _sift_one(residue, params)
        if imf is None:
            break
        imfs.append(series.with_values(imf))
        residue = residue - imf
    return ImfSet(imfs=imfs, residue=series.with_values(residue))


def regularize_emd(series: TimeSeries, decomposition: ImfSet, p1: int):
    """Suppress the first p1 IMFs of `decomposition`, the caller's emd() of
    `series`: output = input - sum(imf_1..imf_p1).

    At least one IMF must remain, so 1 <= p1 < count.  Returns
    (regularized TimeSeries, detail dict).
    """
    count = len(decomposition)
    if count == 0:
        raise ConfigError("input has no IMFs; nothing to suppress")
    if not 1 <= p1 < count:
        raise ConfigError(f"p1={p1} outside 1..{count - 1} for {count} IMFs")
    out_values = series.values.copy()
    for imf in decomposition.imfs[:p1]:
        out_values -= imf.values
    return series.with_values(out_values), {"p1": p1, "imf_count": count}
