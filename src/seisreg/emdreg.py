"""Empirical mode decomposition by sifting, and regularization by
suppressing the leading (highest-frequency) intrinsic mode functions.

Sifting subtracts the mean of the cubic-spline envelopes through the local
maxima and minima until the candidate is an IMF: the Cauchy-type SD
criterion is below threshold and the extrema/zero-crossing counts differ by
at most one.  Envelope ends are handled by mirroring the two nearest
extrema across each boundary, which is the dominant failure mode when left
unhandled.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigError, DataError
from .metrics import psd, spectral_entropy  # noqa: F401  only for perfbench/spans.py
from .resample import TimeSeries


class TooFewExtrema(DataError):
    pass


class P1OutOfRange(ConfigError):
    pass


@dataclass
class SiftParams:
    sd_threshold: float = 0.2
    max_sift_iters: int = 50
    max_imfs: int = 16

    def __post_init__(self):
        if not 0.0 < self.sd_threshold < 1.0:
            raise ConfigError("sd_threshold must be in (0, 1)")
        if self.max_sift_iters < 1:
            raise ConfigError("max_sift_iters must be >= 1")


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


def _mirrored_spline(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic spline through extrema, with the two nearest extrema
    mirrored across each boundary, evaluated on 0..n-1."""
    left_n = min(2, len(idx))
    right_n = min(2, len(idx))
    xs = np.concatenate([
        -idx[:left_n][::-1],
        idx,
        2 * (n - 1) - idx[-right_n:][::-1],
    ])
    ys = np.concatenate([
        vals[:left_n][::-1],
        vals,
        vals[-right_n:][::-1],
    ])
    # mirroring an extremum sitting exactly on the boundary would duplicate x
    keep = np.concatenate([[True], np.diff(xs) > 0])
    spline = CubicSpline(xs[keep], ys[keep], bc_type="natural")
    return spline(np.arange(n))


def envelope_mean(series):
    """Mean of the upper and lower cubic-spline envelopes on the sample grid.

    Accepts a TimeSeries or a bare array and returns the same kind.
    """
    is_ts = isinstance(series, TimeSeries)
    x = series.values if is_ts else np.asarray(series, dtype=np.float64)
    maxima, minima = find_extrema(x)
    if len(maxima) < 2 or len(minima) < 2:
        raise TooFewExtrema(
            f"need >= 2 maxima and >= 2 minima, found {len(maxima)}/{len(minima)}"
        )
    e_max = _mirrored_spline(maxima, x[maxima], len(x))
    e_min = _mirrored_spline(minima, x[minima], len(x))
    mean = (e_max + e_min) / 2.0
    return series.with_values(mean) if is_ts else mean


def _is_imf(x: np.ndarray) -> bool:
    maxima, minima = find_extrema(x)
    return abs((len(maxima) + len(minima)) - zero_crossings(x)) <= 1


def _sift_one(residue: np.ndarray, params: SiftParams):
    """Extract one IMF from the running residue, or None when the residue
    cannot support envelopes (normal termination)."""
    h = residue
    for iteration in range(params.max_sift_iters):
        try:
            m = envelope_mean(h)
        except TooFewExtrema:
            return None if iteration == 0 else h
        h_new = h - m
        denom = float(np.dot(h, h))
        sd = float(np.dot(m, m)) / denom if denom > 0 else 0.0
        h = h_new
        if sd < params.sd_threshold and _is_imf(h):
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
    while len(imfs) < params.max_imfs:
        maxima, minima = find_extrema(residue)
        if len(maxima) + len(minima) < 2:
            break
        imf = _sift_one(residue, params)
        if imf is None:
            break
        imfs.append(series.with_values(imf))
        residue = residue - imf
    return ImfSet(imfs=imfs, residue=series.with_values(residue))


def regularize_emd(series: TimeSeries, params: SiftParams | None = None,
                   p1: int = 1, decomposition: ImfSet | None = None):
    """Suppress the first p1 IMFs: output = input - sum(imf_1..imf_p1).

    At least one IMF must remain, so 1 <= p1 < count.  A precomputed
    decomposition of the same series may be passed to avoid sifting twice.
    Returns (regularized TimeSeries, detail dict).
    """
    if decomposition is None:
        decomposition = emd(series, params)
    count = len(decomposition)
    if count == 0:
        raise P1OutOfRange("input has no IMFs; nothing to suppress")
    if not 1 <= p1 < count:
        raise P1OutOfRange(f"p1={p1} outside 1..{count - 1} for {count} IMFs")
    out_values = series.values.copy()
    for imf in decomposition.imfs[:p1]:
        out_values -= imf.values
    return series.with_values(out_values), {"p1": p1, "imf_count": count}
