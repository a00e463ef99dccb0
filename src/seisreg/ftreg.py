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


@dataclass
class FtRegParams:
    zeta_max_hz: float

    def __post_init__(self):
        if not 0 < self.zeta_max_hz < np.inf:  # NaN too
            raise ConfigError("zeta_max_hz must be finite and positive, "
                              f"got {self.zeta_max_hz}")


def regularize_ft(target: TimeSeries, params: FtRegParams):
    """Zero every spectrum bin above the bandwidth parameter and rebuild.

    The band is closed: a bin exactly at the cutoff is retained.  Truncation
    is applied on |frequency| so conjugate pairs are zeroed together and the
    output stays real; an imaginary residue above 1e-9 RMS is a data error.
    Returns (regularized TimeSeries, detail dict).
    """
    n = len(target)
    if n < 8:
        raise DataError(f"need at least 8 samples, got {n}")
    if params.zeta_max_hz >= target.fs_hz / 2:
        raise ConfigError(
            f"zeta_max {params.zeta_max_hz} Hz must be below Nyquist "
            f"{target.fs_hz / 2} Hz"
        )
    freqs = np.fft.fftfreq(n, d=1.0 / target.fs_hz)
    bin_hz = target.fs_hz / n
    keep = np.abs(freqs) <= params.zeta_max_hz + 1e-9 * bin_hz
    if keep.sum() < 3:
        raise DataError(
            f"only {int(keep.sum())} bin(s) inside {params.zeta_max_hz} Hz; need >= 3"
        )
    values = np.fft.ifft(np.where(keep, np.fft.fft(target.values), 0.0))
    imag_rms = np.sqrt(np.mean(values.imag ** 2))
    if imag_rms > 1e-9:
        raise DataError(f"inverse transform is not real (imag RMS {imag_rms:.3e})")
    # the output's dt is 1000 / fs_hz, which need not equal target.dt_ms
    # bit for bit; the entropy report of the output reads that dt
    out = TimeSeries(t0_ms=target.t0_ms, dt_ms=1000.0 / target.fs_hz,
                     values=values.real)
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
