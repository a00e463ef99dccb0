"""Depth-to-time conversion, sinc reconstruction, normalization and
dataset splitting.

The well logs live on a fine depth grid; the seismic attributes live on a
coarse (2 ms) time grid.  Everything here serves to put both onto one
uniform fine time grid and to prepare normalized, well-stratified training
patterns from the result.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


class DepthOutOfRange(DataError):
    pass


class TargetOutsideSpan(DataError):
    pass


class DownsampleRequested(ConfigError):
    pass


class ZeroVariance(DataError):
    pass


class DegenerateRange(DataError):
    pass


class TooFewPatterns(DataError):
    pass


@dataclass
class TimeSeries:
    """Uniformly sampled series: value k sits at t0_ms + k*dt_ms."""

    t0_ms: float
    dt_ms: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not (np.isfinite(self.dt_ms) and self.dt_ms > 0):
            raise DataError(f"dt_ms must be finite and positive, got {self.dt_ms}")
        if not np.isfinite(self.values).all():
            raise DataError("TimeSeries values must be finite")

    def __len__(self):
        return len(self.values)

    @property
    def fs_hz(self) -> float:
        return 1000.0 / self.dt_ms

    @property
    def times_ms(self) -> np.ndarray:
        return self.t0_ms + self.dt_ms * np.arange(len(self.values))

    def with_values(self, values) -> "TimeSeries":
        return TimeSeries(self.t0_ms, self.dt_ms, np.asarray(values, dtype=np.float64))


@dataclass
class VelocityProfile:
    """Piecewise-linear depth <-> time tie from checkshot-style knots."""

    knots: list  # of (depth_m, time_ms)

    def __post_init__(self):
        depths = np.array([k[0] for k in self.knots], dtype=np.float64)
        times = np.array([k[1] for k in self.knots], dtype=np.float64)
        if len(depths) < 2:
            raise DataError("velocity profile needs at least 2 knots")
        if not ((np.diff(depths) > 0).all() and (np.diff(times) > 0).all()):
            raise DataError("velocity profile knots must be strictly increasing")
        self._depths = depths
        self._times = times

    def time_at(self, depth_m) -> np.ndarray:
        depth_m = np.asarray(depth_m, dtype=np.float64)
        lo, hi = self._depths[0], self._depths[-1]
        if depth_m.min() < lo or depth_m.max() > hi:
            raise DepthOutOfRange(
                f"depths [{depth_m.min()}, {depth_m.max()}] outside profile [{lo}, {hi}]"
            )
        return np.interp(depth_m, self._depths, self._times)


def load_velocity_csv(path) -> VelocityProfile:
    """Read a `depth_m,time_ms` CSV into a VelocityProfile."""
    knots = []
    with open(path) as fh:
        header = fh.readline().strip().replace(" ", "")
        if header.lower() != "depth_m,time_ms":
            raise DataError(f"velocity CSV needs a depth_m,time_ms header, got {header!r}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            try:
                d, t = map(float, line.split(","))
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected depth_m,time_ms "
                                f"numbers, got {line!r}") from None
            knots.append((d, t))
    return VelocityProfile(knots)


def depth_to_time(depths_m, values, vp: VelocityProfile, dt_out_ms: float) -> TimeSeries:
    """Map a depth-indexed log onto a uniform time grid.

    Each depth is mapped to time through the profile's piecewise-linear
    knots; the resulting (time, value) pairs are then linearly interpolated
    onto the uniform dt_out_ms grid spanning the mapped range.
    """
    depths_m = np.asarray(depths_m, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not dt_out_ms > 0:  # NaN too
        raise ConfigError("dt_out_ms must be positive")
    times = vp.time_at(depths_m)
    if times[0] > times[-1]:  # logs recorded upward
        times, values = times[::-1], values[::-1]
    n_out = int(np.floor((times[-1] - times[0]) / dt_out_ms)) + 1
    grid = times[0] + dt_out_ms * np.arange(n_out)
    return TimeSeries(t0_ms=float(times[0]), dt_ms=dt_out_ms,
                      values=np.interp(grid, times, values))


def sinc_resample(trace: TimeSeries, target_t0_ms: float, target_dt_ms: float,
                  n_out: int) -> TimeSeries:
    """Whittaker-Shannon reconstruction of a band-limited trace on a finer grid.

    Full-support sum over every source sample, no windowing.  Upsampling
    only.  With a = (t - t0) / dt the source-sample position of output
    instant t, r = rint(a) and f = a - r, both grids being uniform gives

        sin(pi (a - n)) = (-1)^(r+n) sin(pi f),

    so the kernel row of t is (-1)^r sin(pi f) / pi * (-1)^n / (a - n): one
    sine per output sample, and a matrix of reciprocals in place of a sinc
    per kernel element.  The cost is still O(N*M) divisions, which is fine
    for logs of a few thousand samples.  An output instant that falls on a
    source sample (f == 0) takes that sample exactly.
    """
    if target_dt_ms > trace.dt_ms:
        raise DownsampleRequested(
            f"target dt {target_dt_ms} ms coarser than source {trace.dt_ms} ms"
        )
    t_src = trace.times_ms
    t_out = target_t0_ms + target_dt_ms * np.arange(n_out)
    eps = 1e-9 * trace.dt_ms
    if t_out[0] < t_src[0] - eps or t_out[-1] > t_src[-1] + eps:
        raise TargetOutsideSpan(
            f"target [{t_out[0]}, {t_out[-1]}] ms outside source "
            f"[{t_src[0]}, {t_src[-1]}] ms"
        )
    a = (t_out - trace.t0_ms) / trace.dt_ms
    r = np.rint(a)
    f = a - r
    on_source = f == 0
    values = np.empty(n_out)
    values[on_source] = trace.values[r[on_source].astype(np.intp)]
    between = ~on_source
    alternating = trace.values.copy()
    alternating[1::2] *= -1.0
    reciprocals = np.subtract.outer(a[between], np.arange(len(trace), dtype=np.float64))
    np.reciprocal(reciprocals, out=reciprocals)
    scale = np.sin(np.pi * f[between]) / np.pi
    scale[r[between] % 2 == 1] *= -1.0
    values[between] = scale * (reciprocals @ alternating)
    return TimeSeries(t0_ms=float(t_out[0]), dt_ms=target_dt_ms, values=values)


@dataclass
class ZscoreStats:
    mean: np.ndarray
    std: np.ndarray   # population (1/N) standard deviation

    def apply(self, table: np.ndarray) -> np.ndarray:
        return (np.asarray(table, dtype=np.float64) - self.mean) / self.std

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(mean=np.asarray(d["mean"], dtype=np.float64),
                   std=np.asarray(d["std"], dtype=np.float64))


def zscore(table):
    """Z-score each column with population variance.

    Returns (scored table, stats).  Prediction applies the same stats with
    `ZscoreStats.apply`, so train and predict scoring match bit for bit.
    """
    table = np.atleast_2d(np.asarray(table, dtype=np.float64))
    std = table.std(axis=0)  # ddof=0
    bad = np.nonzero(std == 0)[0]
    if bad.size:
        raise ZeroVariance(f"constant column(s) at index {bad.tolist()}")
    stats = ZscoreStats(mean=table.mean(axis=0), std=std)
    return stats.apply(table), stats


@dataclass
class MinMaxStats:
    data_min: float
    data_max: float
    lo: float = 0.1
    hi: float = 0.9

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        scale = (self.hi - self.lo) / (self.data_max - self.data_min)
        return self.lo + (x - self.data_min) * scale

    def invert(self, y):
        y = np.asarray(y, dtype=np.float64)
        scale = (self.data_max - self.data_min) / (self.hi - self.lo)
        return self.data_min + (y - self.lo) * scale

    def to_dict(self):
        return {"data_min": self.data_min, "data_max": self.data_max,
                "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def minmax_to_band(series):
    """Affine map sending the observed min and max to the ends of the
    MinMaxStats band, 0.1 and 0.9.

    Keeps the target off the saturation tails of the output sigmoid.
    Returns (mapped series, stats); stats.invert de-normalizes predictions.
    """
    series = np.asarray(series, dtype=np.float64)
    mn, mx = float(series.min()), float(series.max())
    if mx <= mn:
        raise DegenerateRange(f"series range is degenerate: min == max == {mn}")
    stats = MinMaxStats(data_min=mn, data_max=mx)
    return stats.apply(series), stats


def split_patterns(sizes: dict, seed: int):
    """70/30 per-well split of pooled row indices, the 30% pooled and
    halved into test/validation.

    `sizes` maps each well id to its row count in pooled order, so well k's
    rows are the block after well k-1's.  Per well, its rows are scrambled
    by a seeded shuffle and the first 70% go to training in that scrambled
    order.  The remaining 30% from all wells are pooled, scrambled once
    more, and halved.  Returns the (train, test, validation) row indices.
    """
    rng = np.random.default_rng(seed)
    train, leftover = [], []
    start = 0
    for well, n in sizes.items():
        if n < 10:
            raise TooFewPatterns(f"well {well!r} has only {n} patterns")
        perm = start + rng.permutation(n)
        n_train = int(round(0.7 * n))
        train.append(perm[:n_train])
        leftover.append(perm[n_train:])
        start += n
    leftover = np.concatenate(leftover)
    leftover = leftover[rng.permutation(len(leftover))]
    half = len(leftover) // 2
    return np.concatenate(train), leftover[:half], leftover[half:]
