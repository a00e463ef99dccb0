"""Discrete wavelet decomposition/reconstruction and detail-truncation
regularization.

A two-channel orthonormal filter bank: per level the running approximation
is extended at the boundaries, correlated with the low/high-pass
decomposition filters and downsampled by two.  Reconstruction is the exact
adjoint (upsample, convolve, sum), so idwt(dwt(x)) returns x to floating
precision for every supported wavelet, boundary mode and length.

Daubechies coefficients are embedded from the published minimum-phase
tables and cross-checked against the quadrature-mirror and orthonormality
identities at import time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .metrics import psd, spectral_entropy  # noqa: F401  only for perfbench/spans.py
from .resample import TimeSeries


class TooManyLevels(ConfigError):
    pass


class SpecMismatch(DataError):
    pass


_SQRT2 = math.sqrt(2.0)

# Minimum-phase scaling (lowpass decomposition) filters.  haar/db2 are the
# closed forms; db4/db8 are the standard published tables.
_DEC_LO = {
    "haar": [1.0 / _SQRT2, 1.0 / _SQRT2],
    "db2": [
        (1.0 + math.sqrt(3.0)) / (4.0 * _SQRT2),
        (3.0 + math.sqrt(3.0)) / (4.0 * _SQRT2),
        (3.0 - math.sqrt(3.0)) / (4.0 * _SQRT2),
        (1.0 - math.sqrt(3.0)) / (4.0 * _SQRT2),
    ],
    "db4": [
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ],
    "db8": [
        0.05441584224308161,
        0.3128715909144659,
        0.6756307362980128,
        0.5853546836548691,
        -0.015829105256023893,
        -0.2840155429624281,
        0.00047248457399797254,
        0.128747426620186,
        -0.017369301002022108,
        -0.04408825393106472,
        0.013981027917015516,
        0.008746094047015655,
        -0.00487035299301066,
        -0.0003917403729959771,
        0.0006754494059985568,
        -0.00011747678400228192,
    ],
}


@dataclass
class WaveletSpec:
    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    @property
    def length(self) -> int:
        return len(self.dec_lo)

    @classmethod
    def named(cls, name: str) -> "WaveletSpec":
        if name not in _DEC_LO:
            raise ConfigError(f"unknown wavelet {name!r}; have {sorted(_DEC_LO)}")
        h = np.asarray(_DEC_LO[name], dtype=np.float64)
        g = _qmf(h)
        return cls(name=name, dec_lo=h, dec_hi=g, rec_lo=h[::-1].copy(),
                   rec_hi=g[::-1].copy())

    def validate(self):
        h, g = self.dec_lo, self.dec_hi
        L = len(h)
        if abs(h.sum() - _SQRT2) > 1e-12:
            raise DataError(f"{self.name}: lowpass does not sum to sqrt(2)")
        for m in range(L // 2):
            want = 1.0 if m == 0 else 0.0
            got = float(np.dot(h[: L - 2 * m], h[2 * m:]))
            if abs(got - want) > 1e-10:
                raise DataError(f"{self.name}: orthonormality fails at shift {2 * m}")
        expect_g = _qmf(h)
        if not np.allclose(g, expect_g, atol=1e-14):
            raise DataError(f"{self.name}: quadrature-mirror relation violated")


def _qmf(h: np.ndarray) -> np.ndarray:
    L = len(h)
    return np.array([(-1.0) ** k * h[L - 1 - k] for k in range(L)])


def available_wavelets():
    return sorted(_DEC_LO)


# Cross-check the embedded tables once at import.
for _name in _DEC_LO:
    WaveletSpec.named(_name).validate()


@dataclass
class WaveletCoeffs:
    levels: int
    approx: np.ndarray
    details: list                 # details[0] is level 1 (finest)
    boundary_mode: str
    original_length: int
    wavelet_name: str = ""

    def level_lengths(self, filter_len: int):
        return _level_lengths(self.original_length, filter_len, self.levels,
                              self.boundary_mode)


def _level_lengths(n0: int, L: int, levels: int, mode: str):
    """Input length at each cascade stage: [n0, n1, ..., n_levels]."""
    lens = [n0]
    n = n0
    for _ in range(levels):
        if mode == "periodization":
            n = -(-n // 2)
        else:
            n = (n + L - 1) // 2
        lens.append(n)
    return lens


def _extend_symmetric(x: np.ndarray, pad: int) -> np.ndarray:
    # half-point symmetry: ... x1 x0 | x0 x1 ... xn-1 | xn-1 xn-2 ...
    if pad > len(x):
        raise TooManyLevels("signal too short for this filter at this level")
    return np.concatenate([x[pad - 1::-1], x, x[:-pad - 1:-1]])


def _dwt_level(x: np.ndarray, spec: WaveletSpec, mode: str):
    L = spec.length
    n = len(x)
    if n < L:
        raise TooManyLevels(
            f"level input of {n} samples is shorter than the {L}-tap filter"
        )
    if mode == "symmetric":
        xe = _extend_symmetric(x, L - 1)
        lo = np.correlate(xe, spec.dec_lo, mode="valid")[1::2]
        hi = np.correlate(xe, spec.dec_hi, mode="valid")[1::2]
    elif mode == "periodization":
        if n % 2:
            raise ConfigError("periodization mode requires an even length per level")
        xe = np.concatenate([x, x[:L]])
        lo = np.correlate(xe, spec.dec_lo, mode="valid")[0:n:2]
        hi = np.correlate(xe, spec.dec_hi, mode="valid")[0:n:2]
    else:
        raise ConfigError(f"unknown boundary mode {mode!r}")
    return lo, hi


def _idwt_level(lo: np.ndarray, hi: np.ndarray, spec: WaveletSpec, mode: str,
                n_out: int) -> np.ndarray:
    # Analysis is correlation with the dec filters, so the orthogonal
    # adjoint here is plain convolution with the same filters (equivalently,
    # convolution with the time-reversed rec pair).
    L = spec.length
    m = len(lo)
    up_lo = np.zeros(2 * m)
    up_hi = np.zeros(2 * m)
    up_lo[0::2] = lo
    up_hi[0::2] = hi
    full = np.convolve(up_lo, spec.dec_lo) + np.convolve(up_hi, spec.dec_hi)
    if mode == "symmetric":
        return full[L - 2:L - 2 + n_out]
    # periodization: fold the circular tail back onto the head
    out = full[:n_out].copy()
    tail = full[n_out:]
    out[:len(tail)] += tail
    return out


def dwt(series, spec: WaveletSpec | str = "db4", levels: int = 1,
        boundary_mode: str = "symmetric") -> WaveletCoeffs:
    """Cascade decomposition: per level split into approximation and detail,
    downsample by two, recurse on the approximation."""
    if isinstance(spec, str):
        spec = WaveletSpec.named(spec)
    x = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    if levels < 1:
        raise ConfigError("levels must be >= 1")
    details = []
    approx = x
    for _ in range(levels):
        approx, detail = _dwt_level(approx, spec, boundary_mode)
        details.append(detail)
    return WaveletCoeffs(levels=levels, approx=approx, details=details,
                         boundary_mode=boundary_mode, original_length=len(x),
                         wavelet_name=spec.name)


def idwt(coeffs: WaveletCoeffs, spec: WaveletSpec | str = "db4") -> np.ndarray:
    """Exact inverse of dwt; output length equals the original length."""
    if isinstance(spec, str):
        spec = WaveletSpec.named(spec)
    if coeffs.wavelet_name and coeffs.wavelet_name != spec.name:
        raise SpecMismatch(
            f"coefficients were produced with {coeffs.wavelet_name!r}, not {spec.name!r}"
        )
    lens = coeffs.level_lengths(spec.length)
    if len(coeffs.approx) != lens[-1]:
        raise SpecMismatch("approximation length inconsistent with wavelet/mode")
    for i, d in enumerate(coeffs.details):
        if len(d) != lens[i + 1]:
            raise SpecMismatch(f"detail level {i + 1} length inconsistent")
    x = coeffs.approx
    for level in range(coeffs.levels, 0, -1):
        x = _idwt_level(x, coeffs.details[level - 1], spec, coeffs.boundary_mode,
                        lens[level - 1])
    return x


def regularize_wd(series: TimeSeries, wavelet: str = "db4", levels: int = 6,
                  truncate_details=None, boundary_mode: str = "symmetric"):
    """Zero the selected detail levels and rebuild.

    Default truncation set is every level but the coarsest, which keeps the
    smooth trend while dropping the fine structure the predictors cannot
    carry.  Returns (regularized TimeSeries, detail dict).
    """
    spec = WaveletSpec.named(wavelet)
    if truncate_details is None:
        truncate_details = set(range(1, levels))
    truncate_details = set(int(i) for i in truncate_details)
    if not truncate_details <= set(range(1, levels + 1)):
        raise ConfigError(
            f"truncate_details {sorted(truncate_details)} outside 1..{levels}"
        )
    coeffs = dwt(series, spec, levels=levels, boundary_mode=boundary_mode)
    removed_energy = 0.0
    for lvl in truncate_details:
        d = coeffs.details[lvl - 1]
        removed_energy += float(np.dot(d, d))
        coeffs.details[lvl - 1] = np.zeros_like(d)
    out = series.with_values(idwt(coeffs, spec))
    return out, {"wavelet": wavelet, "levels": levels,
                 "truncated": sorted(truncate_details),
                 "removed_energy": removed_energy}
