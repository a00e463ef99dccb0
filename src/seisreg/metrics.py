"""Information-theoretic diagnostics, the regularization entropy report,
and the four performance evaluators.

Spectral entropy is computed from the raw (unaveraged) periodogram; mutual
information from equal-width histograms.  The scatter index is defined as
RMSE over the mean of the actual series — the standard definition, stated
here because downstream comparisons depend on it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .resample import TimeSeries


class TooShort(DataError):
    pass


class ZeroPower(DataError):
    pass


class LengthMismatch(DataError):
    pass


class DegenerateMarginal(DataError):
    pass


class ConstantActual(DataError):
    pass


DEFAULT_MI_BINS = 16


@dataclass
class Psd:
    freqs_hz: np.ndarray
    power: np.ndarray


@dataclass
class MetricsReport:
    cc: float
    rmse: float
    aem: float
    si: float

    @property
    def cc_defined(self) -> bool:
        return not math.isnan(self.cc)

    @property
    def si_defined(self) -> bool:
        return not math.isnan(self.si)

    def to_dict(self):
        return {"cc": self.cc, "rmse": self.rmse, "aem": self.aem, "si": self.si}


def psd(series: TimeSeries) -> Psd:
    """One-sided periodogram |DFT|^2 / (N*fs) over nonnegative bins, mean removed."""
    x = series.values
    n = len(x)
    if n < 4:
        raise TooShort(f"need at least 4 samples, got {n}")
    fs = series.fs_hz
    spectrum = np.fft.rfft(x - x.mean())
    power = np.abs(spectrum) ** 2 / (n * fs)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    return Psd(freqs_hz=freqs, power=power)


def spectral_entropy(p: Psd) -> float:
    """Shannon entropy in bits of the PSD normalized to a probability vector."""
    total = p.power.sum()
    if total <= 0:
        raise ZeroPower("PSD has no power; entropy undefined")
    prob = p.power / total
    nz = prob[prob > 0]
    return float(-(nz * np.log2(nz)).sum())


def series_entropy(series: TimeSeries) -> float:
    return spectral_entropy(psd(series))


def entropy_report(original: TimeSeries, regularized: TimeSeries,
                   predictor: TimeSeries, tol_bits: float) -> dict:
    """The spectral entropies of a regularization (each computed once) and
    its entropy gate: pass iff the regularized entropy is within tol_bits
    above the predictor's and strictly below the original's."""
    h_orig = series_entropy(original)
    h_reg = series_entropy(regularized)
    h_pred = series_entropy(predictor)
    return {"entropy_original": h_orig, "entropy_regularized": h_reg,
            "entropy_predictor": h_pred, "gate_tol_bits": tol_bits,
            "gate_passed": (h_reg <= h_pred + tol_bits) and (h_reg < h_orig)}


def _entropy_bits(prob: np.ndarray) -> float:
    nz = prob[prob > 0]
    return float(-(nz * np.log2(nz)).sum())


def _binned_entropies(x, y, bins: int):
    """(H(X), H(Y), H(X,Y)) in bits from a bins x bins equal-width histogram."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise LengthMismatch(f"series lengths differ: {len(x)} vs {len(y)}")
    if bins < 2:
        raise ConfigError("need at least 2 bins")
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    joint = joint / joint.sum()
    return (_entropy_bits(joint.sum(axis=1)), _entropy_bits(joint.sum(axis=0)),
            _entropy_bits(joint.ravel()))


def mutual_information(x, y, bins: int = DEFAULT_MI_BINS) -> float:
    """I(X;Y) in bits from a bins x bins equal-width histogram."""
    hx, hy, hxy = _binned_entropies(x, y, bins)
    return hx + hy - hxy


def nmi(x, y, bins: int = DEFAULT_MI_BINS) -> float:
    """Mutual information normalized by the smaller marginal entropy."""
    hx, hy, hxy = _binned_entropies(x, y, bins)
    h_min = min(hx, hy)
    if h_min <= 0:
        raise DegenerateMarginal("a marginal has zero entropy; NMI undefined")
    return (hx + hy - hxy) / h_min


def evaluate(predicted, actual) -> MetricsReport:
    """CC, RMSE, AEM and SI for a predicted-vs-actual pair.

    A constant actual raises (CC undefined either way); a constant
    predicted or a zero-mean actual yields NaN in the affected field so the
    caller can flag it, with the remaining evaluators still filled in.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(predicted) != len(actual):
        raise LengthMismatch(f"series lengths differ: {len(predicted)} vs {len(actual)}")
    if len(actual) < 2:
        raise TooShort("need at least 2 samples")
    err = predicted - actual
    rmse = float(np.sqrt(np.mean(err ** 2)))
    aem = float(np.mean(np.abs(err)))
    std_a = actual.std()
    if std_a == 0:
        raise ConstantActual("actual series is constant; CC undefined")
    std_p = predicted.std()
    if std_p == 0:
        cc = math.nan
    else:
        cov = np.mean((predicted - predicted.mean()) * (actual - actual.mean()))
        cc = min(1.0, max(-1.0, float(cov / (std_p * std_a))))
    mean_a = actual.mean()
    si = math.nan if mean_a == 0 else float(rmse / mean_a)
    return MetricsReport(cc=cc, rmse=rmse, aem=aem, si=si)
