"""Discrete wavelet decomposition/reconstruction and detail-truncation
regularization.

A two-channel orthonormal filter bank: per level the running approximation
is extended at both ends by half-point symmetry (the one boundary mode),
correlated with the low/high-pass decomposition filters and downsampled by
two.  dwt records each level's input length; reconstruction upsamples,
convolves with the same filters, sums and cuts back to that length, so
idwt(dwt(x)) returns x to floating precision for every supported wavelet
and length.

Daubechies coefficients are embedded from the published minimum-phase
tables; tests/test_waveletreg.py::TestFilterTables checks them against the
sum, orthonormality and quadrature-mirror identities.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metrics import psd, spectral_entropy  # noqa: F401  only for perfbench/spans.py
from .resample import TimeSeries


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

    @property
    def length(self) -> int:
        return len(self.dec_lo)

    @classmethod
    def named(cls, name: str) -> "WaveletSpec":
        if name not in _DEC_LO:
            raise ConfigError(f"unknown wavelet {name!r}; have {sorted(_DEC_LO)}")
        h = np.asarray(_DEC_LO[name], dtype=np.float64)
        return cls(name=name, dec_lo=h, dec_hi=_qmf(h))


def _qmf(h: np.ndarray) -> np.ndarray:
    L = len(h)
    return np.array([(-1.0) ** k * h[L - 1 - k] for k in range(L)])


@dataclass
class WaveletCoeffs:
    approx: np.ndarray
    details: list                 # details[0] is level 1 (finest)
    lengths: list                 # lengths[0] is level 1's input length


def _dwt_level(x: np.ndarray, spec: WaveletSpec):
    L = spec.length
    n = len(x)
    if n < L:
        raise ConfigError(
            f"level input of {n} samples is shorter than the {L}-tap filter"
        )
    # L - 1 samples of half-point symmetry: ... x1 x0 | x0 ... xn-1 | xn-1 ...
    xe = np.concatenate([x[L - 2::-1], x, x[:-L:-1]])
    lo = np.correlate(xe, spec.dec_lo, mode="valid")[1::2]
    hi = np.correlate(xe, spec.dec_hi, mode="valid")[1::2]
    return lo, hi


def _idwt_level(lo: np.ndarray, hi: np.ndarray, spec: WaveletSpec,
                n_out: int) -> np.ndarray:
    # Analysis is correlation with the dec filters, so synthesis is plain
    # convolution with the same filters; the symmetric extension's L - 2
    # leading samples are cut off.
    L = spec.length
    m = len(lo)
    up_lo = np.zeros(2 * m)
    up_hi = np.zeros(2 * m)
    up_lo[0::2] = lo
    up_hi[0::2] = hi
    full = np.convolve(up_lo, spec.dec_lo) + np.convolve(up_hi, spec.dec_hi)
    return full[L - 2:L - 2 + n_out]


def dwt(series, spec: WaveletSpec | str = "db4",
        levels: int = 1) -> WaveletCoeffs:
    """Cascade decomposition: per level split into approximation and detail,
    downsample by two, recurse on the approximation."""
    if isinstance(spec, str):
        spec = WaveletSpec.named(spec)
    x = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    if levels < 1:
        raise ConfigError("levels must be >= 1")
    coeffs = WaveletCoeffs(approx=x, details=[], lengths=[])
    for _ in range(levels):
        coeffs.lengths.append(len(coeffs.approx))
        coeffs.approx, detail = _dwt_level(coeffs.approx, spec)
        coeffs.details.append(detail)
    return coeffs


def idwt(coeffs: WaveletCoeffs, spec: WaveletSpec | str = "db4") -> np.ndarray:
    """Inverse of dwt; output length equals the original length."""
    if isinstance(spec, str):
        spec = WaveletSpec.named(spec)
    x = coeffs.approx
    for detail, n_out in zip(coeffs.details[::-1], coeffs.lengths[::-1]):
        x = _idwt_level(x, detail, spec, n_out)
    return x


def regularize_wd(series: TimeSeries, truncate_details, wavelet: str = "db4",
                  levels: int = 6):
    """Zero the detail levels in `truncate_details` (1 is the finest) and
    rebuild.  Returns (regularized TimeSeries, detail dict).
    """
    spec = WaveletSpec.named(wavelet)
    truncate_details = set(int(i) for i in truncate_details)
    if not truncate_details <= set(range(1, levels + 1)):
        raise ConfigError(
            f"truncate_details {sorted(truncate_details)} outside 1..{levels}"
        )
    coeffs = dwt(series, spec, levels=levels)
    removed_energy = 0.0
    for lvl in truncate_details:
        d = coeffs.details[lvl - 1]
        removed_energy += float(np.dot(d, d))
        coeffs.details[lvl - 1] = np.zeros_like(d)
    out = series.with_values(idwt(coeffs, spec))
    return out, {"wavelet": wavelet, "levels": levels,
                 "truncated": sorted(truncate_details),
                 "removed_energy": removed_energy}
