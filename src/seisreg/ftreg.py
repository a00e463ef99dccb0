"""Target regularization by hard truncation of the Fourier spectrum.

High-frequency bins of the target's spectrum are zeroed above a bandwidth
parameter and the signal is rebuilt by the inverse transform.  Unlike a
realizable band-pass filter this incurs no phase shift and no transition
band.  Non-power-of-two lengths are transformed as-is — zero-padding would
move the bin frequencies.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .metrics import psd
from .metrics import spectral_entropy  # noqa: F401  only for perfbench/spans.py
from .resample import TimeSeries


class BandTooNarrow(DataError):
    pass


@dataclass
class Spectrum:
    coeffs: np.ndarray   # complex, full (two-sided) DFT
    fs_hz: float

    def __len__(self):
        return len(self.coeffs)


@dataclass
class FtRegParams:
    zeta_max_hz: float

    def __post_init__(self):
        if self.zeta_max_hz <= 0:
            raise ConfigError("zeta_max_hz must be positive")


def dft(series: TimeSeries) -> Spectrum:
    """Full DFT X(k) = sum_j x(j) * exp(-2*pi*i*j*k/N)."""
    if len(series) < 2:
        raise DataError("need at least 2 samples")
    return Spectrum(coeffs=np.fft.fft(series.values), fs_hz=series.fs_hz)


def idft(spectrum: Spectrum, t0_ms: float = 0.0) -> TimeSeries:
    """Inverse DFT; the imaginary residue must be numerically negligible."""
    values = np.fft.ifft(spectrum.coeffs)
    imag_rms = np.sqrt(np.mean(values.imag ** 2))
    if imag_rms > 1e-9:
        raise DataError(f"inverse transform is not real (imag RMS {imag_rms:.3e})")
    return TimeSeries(t0_ms=t0_ms, dt_ms=1000.0 / spectrum.fs_hz,
                      values=values.real)


def regularize_ft(target: TimeSeries, params: FtRegParams):
    """Zero every spectrum bin above the bandwidth parameter and rebuild.

    The band is closed: a bin exactly at the cutoff is retained.  Truncation
    is applied on |frequency| so conjugate pairs are zeroed together and the
    output stays real.  Returns (regularized TimeSeries, detail dict).
    """
    n = len(target)
    if n < 8:
        raise DataError(f"need at least 8 samples, got {n}")
    if params.zeta_max_hz >= target.fs_hz / 2:
        raise ConfigError(
            f"zeta_max {params.zeta_max_hz} Hz must be below Nyquist "
            f"{target.fs_hz / 2} Hz"
        )
    spectrum = dft(target)
    freqs = np.fft.fftfreq(n, d=1.0 / target.fs_hz)
    bin_hz = target.fs_hz / n
    keep = np.abs(freqs) <= params.zeta_max_hz + 1e-9 * bin_hz
    if keep.sum() < 3:
        raise BandTooNarrow(
            f"only {int(keep.sum())} bin(s) inside {params.zeta_max_hz} Hz; need >= 3"
        )
    truncated = np.where(keep, spectrum.coeffs, 0.0)
    out = idft(Spectrum(coeffs=truncated, fs_hz=spectrum.fs_hz), t0_ms=target.t0_ms)
    return out, {"zeta_max_hz": params.zeta_max_hz,
                 "retained_bins": int(keep.sum())}


def default_zeta_max(predictor: TimeSeries, coverage: float = 0.99,
                     widen: float = 1.25) -> float:
    """Bandwidth heuristic: the frequency below which `coverage` of the
    predictor's cumulative PSD lies, widened by 25% (a nonlinear model can
    map low-frequency inputs slightly beyond their own band)."""
    p = psd(predictor)
    total = p.power.sum()
    if total <= 0:
        raise DataError("predictor has no spectral power")
    cdf = np.cumsum(p.power) / total
    idx = int(np.searchsorted(cdf, coverage))
    idx = min(idx, len(p.freqs_hz) - 1)
    zeta = p.freqs_hz[idx] * widen
    nyq = predictor.fs_hz / 2
    return float(min(zeta, 0.999 * nyq))
