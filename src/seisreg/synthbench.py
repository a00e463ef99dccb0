"""Deterministic synthetic field: layered sand-fraction ground truth plus
the three derived seismic attributes and four extracted well logs.

The forward model is deliberately simple — 1-D convolutional per trace —
because its job is to make the workflow's premises true by construction:
the blocky sand-fraction log is broadband (high spectral entropy) while
impedance, amplitude and instantaneous frequency are band-limited by a
zero-phase Ricker wavelet / smoothing kernel, so the predictors carry less
information than the raw target until the target is regularized.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .formats.las import LasCurve, LasLog, write_las
from .formats.svol import write_svol
from .formats.volume import ATTRIBUTE_LONG_NAMES, SeismicVolume
from .resample import VelocityProfile


# taps of the band-noise filter; its mode="same" convolution returns at
# least this many samples, so a trace must be no shorter
NOISE_TAPS = 61

# Helper-grid samples per block of whole inlines in generate_field; any
# size gives the same bits.
HELPER_SAMPLES = 1 << 20


@dataclass
class SynthFieldParams:
    seed: int
    n_inlines: int = 16
    n_xlines: int = 16
    n_samples: int = 116              # volume samples at dt_ms
    t0_ms: float = 2200.0
    dt_ms: float = 2.0
    layer_count: int = 48             # target number of beds
    mean_thickness_samples: int = 32  # on the fine (log) grid, ~5-6 m beds
    fine_dt_ms: float = 0.15
    wavelet_center_freq_hz: float = 40.0
    noise_level: float = 0.02
    texture_std: float = 0.08         # fine-scale SF variation within beds
    texture_tones: int = 48
    texture_f_lo_hz: float = 30.0
    texture_f_hi_hz: float = 900.0
    log_noise_std: float = 0.05       # white measurement noise on the SF logs
    lateral_drift: float = 0.12       # per-layer SF drift across the survey
    imp_base: float = 9000.0
    imp_drop: float = 4000.0
    imp_smooth_ms: float = 3.0
    velocity_m_per_s: float = 2500.0  # two-way average
    depth_step_m: float = 0.1524
    well_margin_ms: float = 8.0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("n_inlines", "n_xlines", "n_samples", "layer_count",
                     "mean_thickness_samples"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.n_samples < NOISE_TAPS:
            raise ConfigError(f"n_samples must be >= {NOISE_TAPS}, the "
                              "band-noise filter length")
        if (self.dt_ms <= 0 or self.fine_dt_ms <= 0
                or not 0 <= self.noise_level < math.inf):
            raise ConfigError("bad grid or noise parameters")
        if not 0 < self.wavelet_center_freq_hz < math.inf:
            raise ConfigError("wavelet_center_freq_hz must be positive and finite")


@dataclass
class SynthWell:
    well_id: str
    inline: int
    xline: int
    depths_m: np.ndarray
    sf: np.ndarray
    velocity: VelocityProfile


@dataclass
class SynthField:
    params: SynthFieldParams
    volumes: dict    # "sf", then each attribute key: its SeismicVolume
    wells: list = field(default_factory=list)


def ricker(t_ms: np.ndarray, f_hz: float) -> np.ndarray:
    a = (math.pi * f_hz * t_ms / 1000.0) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


def _layer_boundaries(params: SynthFieldParams, rng) -> np.ndarray:
    """Interior bed boundaries in ms, jittered around the mean thickness and
    rescaled to cover the volume span exactly."""
    span = params.n_samples * params.dt_ms
    mean_ms = params.mean_thickness_samples * params.fine_dt_ms
    count = max(1, params.layer_count)
    thickness = mean_ms * rng.uniform(0.5, 1.5, size=count)
    edges = np.concatenate([[0.0], np.cumsum(thickness)])
    edges *= span / edges[-1]
    return params.t0_ms + edges  # length count+1, first == t0, last == t0+span


class _LayeredSf:
    """Blocky sand fraction in continuous time: per-layer values drifting
    smoothly across the survey, plus broadband fine-scale texture so the log
    behaves like a recorded one (and stays honest for envelope-based
    decompositions).  The texture is a fixed sum of seeded sinusoids, so the
    field is evaluable at arbitrary time instants — the coarse volume and
    the fine well logs sample one consistent model."""

    def __init__(self, params: SynthFieldParams, rng):
        self.boundaries = _layer_boundaries(params, rng)
        n_layers = len(self.boundaries) - 1
        base = rng.uniform(0.08, 0.92, size=n_layers)
        amp = rng.uniform(0.0, params.lateral_drift, size=n_layers)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=n_layers)
        ki = rng.uniform(0.5, 1.5, size=n_layers)
        kx = rng.uniform(0.5, 1.5, size=n_layers)
        il = np.arange(params.n_inlines)[:, None] / max(params.n_inlines - 1, 1)
        xl = np.arange(params.n_xlines)[None, :] / max(params.n_xlines - 1, 1)
        drift = np.sin(
            2.0 * math.pi * (ki[:, None, None] * il[None, :, :]
                             + kx[:, None, None] * xl[None, :, :])
            + phase[:, None, None]
        )
        # values[l, i, j]: layer l at trace (i, j)
        self.values = np.clip(base[:, None, None] + amp[:, None, None] * drift,
                              0.02, 0.98)
        n_tones = params.texture_tones
        self._tex_f = np.exp(rng.uniform(math.log(params.texture_f_lo_hz),
                                         math.log(params.texture_f_hi_hz),
                                         size=n_tones))
        self._tex_phase = rng.uniform(0.0, 2.0 * math.pi, size=n_tones)
        amps = rng.uniform(0.5, 1.5, size=n_tones) / np.sqrt(self._tex_f)
        rms = math.sqrt(float((amps ** 2).sum()) / 2.0)
        self._tex_amp = amps * (params.texture_std / rms if rms > 0 else 0.0)
        self._t_ref = params.t0_ms

    def texture(self, t_ms) -> np.ndarray:
        t_s = (np.asarray(t_ms, dtype=np.float64) - self._t_ref) / 1000.0
        phases = 2.0 * math.pi * np.multiply.outer(t_s, self._tex_f) + self._tex_phase
        return np.sin(phases) @ self._tex_amp

    def layer_of(self, t_ms) -> np.ndarray:
        idx = np.searchsorted(self.boundaries, np.asarray(t_ms), side="right") - 1
        return np.clip(idx, 0, self.values.shape[0] - 1)

    def at(self, i: int, j: int, t_ms) -> np.ndarray:
        blocky = self.values[self.layer_of(t_ms), i, j]
        return np.clip(blocky + self.texture(t_ms), 0.01, 0.99)


def _cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:    # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def generate_field(params: SynthFieldParams) -> SynthField:
    """Build the field from params.seed; the same params give the same bits.

    The impedance and amplitude filters run on a helper grid at a quarter of
    the volume step.  It is built time-last in blocks of whole inlines, each
    block at most `HELPER_SAMPLES` helper samples (or one inline, if an
    inline has more), and each block writes only the samples the volume
    grid keeps.  The helper blocks and the frequency stage run on one
    thread per CPU, up to one per block; a single block runs in the calling
    thread.  Every trace filter and elementwise step gives each trace the
    same bits whatever the blocking, but the two whole-volume `std()` calls
    sum in memory order, so their inputs keep the geometry of the original
    whole-grid arithmetic: the kept impedance samples are a step-4 slice of
    a time-first [t, il, xl] helper-length buffer, and the kept amplitude
    samples a step-4 slice of a time-last [il, xl, t] one.
    """
    # imported here so that only field generation loads scipy.signal,
    # scipy.ndimage and concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    from scipy.ndimage import gaussian_filter1d
    from scipy.signal import hilbert

    rng = np.random.default_rng(params.seed)
    model = _LayeredSf(params, rng)
    n_il, n_xl, ns = params.n_inlines, params.n_xlines, params.n_samples
    times = params.t0_ms + params.dt_ms * np.arange(ns)
    values = np.ascontiguousarray(model.values.transpose(1, 2, 0))  # [il, xl, layer]

    # ground-truth SF on the volume grid
    sf_vol = np.clip(values.take(model.layer_of(times), axis=2)
                     + model.texture(times), 0.01, 0.99)  # [il, xl, t]

    # impedance: monotone decreasing map of SF, band-limited, plus
    # correlated noise.  Smoothing runs on a helper grid at a quarter of the
    # volume step (fine enough for the Gaussian kernel), then decimates back.
    ratio = 4
    helper_dt = params.dt_ms / ratio
    margin = 10.0 * params.imp_smooth_ms
    t_helper = np.arange(params.t0_ms - margin, times[-1] + margin + helper_dt,
                         helper_dt)
    nt = len(t_helper)
    layer_helper = model.layer_of(t_helper)
    texture_helper = model.texture(t_helper)
    start = int(round((times[0] - t_helper[0]) / helper_dt))
    keep = slice(start, start + ns * ratio, ratio)
    # amplitude: normal-incidence reflectivity of the full (unsmoothed)
    # impedance series convolved with a zero-phase Ricker, built on the
    # helper grid (the Ricker is far below the coarse Nyquist, so
    # decimation is safe)
    taps_t = helper_dt * np.arange(-round(margin / helper_dt),
                                   round(margin / helper_dt) + 1)
    taps = ricker(taps_t, params.wavelet_center_freq_hz)
    imp_helper = np.empty((nt, n_il, n_xl))   # only [keep] is written
    amp_helper = np.empty((n_il, n_xl, nt))   # only [..., keep] is written

    def helper_block(block):
        # imp_base - imp_drop * clip(layer value + texture, 0.01, 0.99),
        # in place
        imp_raw = values[block].take(layer_helper, axis=2)  # [il, xl, nt]
        imp_raw += texture_helper
        np.clip(imp_raw, 0.01, 0.99, out=imp_raw)
        imp_raw *= params.imp_drop
        np.subtract(params.imp_base, imp_raw, out=imp_raw)
        scratch = gaussian_filter1d(imp_raw,
                                    sigma=params.imp_smooth_ms / helper_dt,
                                    axis=2, mode="nearest")
        imp_helper[keep, block] = scratch[..., keep].transpose(2, 0, 1)
        # (imp[t+1] - imp[t]) / (imp[t+1] + imp[t]), and 0 at the last sample
        refl = np.zeros_like(imp_raw)
        np.subtract(imp_raw[..., 1:], imp_raw[..., :-1], out=refl[..., :-1])
        np.add(imp_raw[..., 1:], imp_raw[..., :-1], out=scratch[..., :-1])
        refl[..., :-1] /= scratch[..., :-1]
        del imp_raw, scratch
        for i, row in enumerate(refl, block.start):
            for j, trace in enumerate(row):
                amp_helper[i, j, keep] = np.convolve(trace, taps, mode="same")[keep]

    # instantaneous frequency from the analytic signal of the amplitude
    def freq_block(block):
        analytic = hilbert(amp_vol[block], axis=2)
        phase = np.unwrap(np.angle(analytic), axis=2)
        inst_hz = np.gradient(phase, axis=2) / (2.0 * math.pi * params.dt_ms / 1000.0)
        inst_hz = np.clip(inst_hz, 0.0, 1000.0 / (2.0 * params.dt_ms))
        freq_vol[block] = gaussian_filter1d(inst_hz, sigma=1.5, axis=2,
                                            mode="nearest")

    step = max(1, HELPER_SAMPLES // (n_xl * nt))
    blocks = [slice(i, min(i + step, n_il)) for i in range(0, n_il, step)]
    workers = min(_cores(), len(blocks))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None

    def run_blocks(work):
        if pool is None:
            for block in blocks:
                work(block)
        else:
            # list() waits for every block and raises a worker's exception
            list(pool.map(work, blocks))

    try:
        run_blocks(helper_block)
        imp_vol = imp_helper[keep].transpose(1, 2, 0)
        imp_noise = gaussian_filter1d(
            rng.standard_normal(imp_vol.shape), sigma=1.5, axis=2, mode="nearest"
        )
        imp_noise *= params.noise_level * imp_vol.std()
        imp_vol = np.add(imp_vol, imp_noise, out=imp_noise)
        del imp_helper

        amp_vol = amp_helper[..., keep]
        white = rng.standard_normal(amp_vol.shape)
        wavelet_taps = ricker(
            params.dt_ms * np.arange(-(NOISE_TAPS // 2), NOISE_TAPS // 2 + 1),
            params.wavelet_center_freq_hz
        )
        wavelet_taps = wavelet_taps / np.linalg.norm(wavelet_taps)
        # in this thread: each trace's convolution is too short to gain
        # from the pool, which only adds GIL handoffs
        band_noise = np.empty_like(white)
        for i in range(n_il):
            for j in range(n_xl):
                band_noise[i, j] = np.convolve(white[i, j], wavelet_taps,
                                               mode="same")
        del white
        band_noise *= params.noise_level * amp_vol.std()
        amp_vol = np.add(amp_vol, band_noise, out=band_noise)
        del amp_helper

        freq_vol = np.empty_like(amp_vol)
        run_blocks(freq_block)
    finally:
        if pool is not None:
            pool.shutdown()

    def as_volume(grid, name):
        return SeismicVolume(
            inlines=np.arange(1, n_il + 1, dtype=np.int32),
            xlines=np.arange(1, n_xl + 1, dtype=np.int32),
            t0_ms=params.t0_ms,
            dt_ms=params.dt_ms,
            data=np.ascontiguousarray(grid),
            attribute_name=name,
        )

    # four wells at fixed interior positions, slight per-well velocity offsets
    q_il = [n_il // 4, n_il // 4, 3 * n_il // 4, 3 * n_il // 4]
    q_xl = [n_xl // 4, 3 * n_xl // 4, n_xl // 4, 3 * n_xl // 4]
    v_scale = [1.0, 1.01, 0.99, 1.02]
    wells = []
    t_lo = params.t0_ms + params.well_margin_ms
    t_hi = times[-1] - params.well_margin_ms
    for w, well_id in enumerate("ABCD"):
        v = params.velocity_m_per_s * v_scale[w]
        z_of = lambda t: v * t / 2000.0           # two-way time -> depth
        z_lo, z_hi = z_of(t_lo), z_of(t_hi)
        depths = np.arange(z_lo, z_hi, params.depth_step_m)
        t_at = depths * 2000.0 / v
        i, j = q_il[w], q_xl[w]
        # the log is a measurement: blocky field plus white tool noise,
        # which is exactly the content regularization should remove
        sf_log = model.at(i, j, t_at)
        sf_log = np.clip(
            sf_log + params.log_noise_std * rng.standard_normal(len(sf_log)),
            0.0, 1.0,
        )
        knot_depths = np.linspace(0.0, z_of(times[-1] + 100.0), 9)
        knots = [(float(z), float(z * 2000.0 / v)) for z in knot_depths]
        wells.append(SynthWell(
            well_id=well_id,
            inline=int(i + 1),
            xline=int(j + 1),
            depths_m=depths,
            sf=sf_log,
            velocity=VelocityProfile(knots),
        ))

    volumes = {"sf": as_volume(sf_vol, "sand_fraction")}
    for (name, long_name), grid in zip(ATTRIBUTE_LONG_NAMES.items(),
                                       (imp_vol, amp_vol, freq_vol)):
        volumes[name] = as_volume(grid, long_name)
    return SynthField(params=params, volumes=volumes, wells=wells)


def well_to_las(well: SynthWell) -> LasLog:
    rows = np.column_stack([well.depths_m, well.sf])
    meta = {
        "WELL": (well.well_id, ""),
        "STRT": (f"{well.depths_m[0]:.17g}", "M"),
        "STOP": (f"{well.depths_m[-1]:.17g}", "M"),
        "STEP": (f"{well.depths_m[1] - well.depths_m[0]:.17g}", "M"),
        "NULL": ("-999.25", ""),
        "ILIN": (str(well.inline), ""),
        "XLIN": (str(well.xline), ""),
    }
    curves = [LasCurve("DEPT", "M", "depth"), LasCurve("SF", "V/V", "sand fraction")]
    return LasLog(well_meta=meta, curves=curves, null_value=-999.25, rows=rows)


def velocity_csv(vp: VelocityProfile) -> str:
    lines = ["depth_m,time_ms"]
    lines += [f"{d:.17g},{t:.17g}" for d, t in vp.knots]
    return "\n".join(lines) + "\n"


def write_field(field: SynthField, directory) -> None:
    """Write a field in the on-disk formats the pipeline ingests: one
    <name>.svol per volume, and well_<id>.las and vel_<id>.csv per well."""
    os.makedirs(directory, exist_ok=True)
    for name, vol in field.volumes.items():
        write_svol(os.path.join(directory, f"{name}.svol"), vol)
    for well in field.wells:
        with open(os.path.join(directory, f"well_{well.well_id}.las"), "w") as fh:
            fh.write(write_las(well_to_las(well)))
        with open(os.path.join(directory, f"vel_{well.well_id}.csv"), "w") as fh:
            fh.write(velocity_csv(well.velocity))


def config_text(directory, well_ids="ABCD") -> str:
    """`seisreg run` config lines for a field write_field wrote to `directory`."""
    lines = [f"vol.{name} = {directory}/{name}.svol" for name in ATTRIBUTE_LONG_NAMES]
    lines.append("wells = " + ",".join(well_ids))
    for w in well_ids:
        lines += [f"well.{w}.las = {directory}/well_{w}.las",
                  f"well.{w}.velocity = {directory}/vel_{w}.csv"]
    return "\n".join(lines) + "\n"
