"""The synthetic field's settings, apart from its scipy-based generator so
that the command line can read their defaults without loading scipy."""

from dataclasses import dataclass

from .errors import ConfigError


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
        if self.dt_ms <= 0 or self.fine_dt_ms <= 0 or self.noise_level < 0:
            raise ConfigError("bad grid or noise parameters")
