import concurrent.futures
import math
import sys

import numpy as np
import pytest

from seisreg import metrics, synthbench
import seisreg.resample as rs
from seisreg.errors import ConfigError
from seisreg.formats.las import parse_las, write_las
from seisreg.formats.volume import ATTRIBUTE_LONG_NAMES, SeismicVolume
from seisreg.resample import TimeSeries, VelocityProfile
from seisreg.synthbench import (
    NOISE_TAPS,
    SynthField,
    SynthFieldParams,
    SynthWell,
    generate_field,
    ricker,
    velocity_csv,
    well_to_las,
    write_field,
)


class TestParams:
    def test_seed_mandatory(self):
        with pytest.raises(TypeError):
            SynthFieldParams()

    def test_positivity_checked(self):
        with pytest.raises(ConfigError):
            SynthFieldParams(seed=1, layer_count=0)


class TestGenerateField:
    def test_deterministic(self):
        a = generate_field(SynthFieldParams(seed=3, n_inlines=6, n_xlines=6))
        b = generate_field(SynthFieldParams(seed=3, n_inlines=6, n_xlines=6))
        for name in a.volumes:
            np.testing.assert_array_equal(a.volumes[name].data,
                                          b.volumes[name].data)
        for wa, wb in zip(a.wells, b.wells):
            np.testing.assert_array_equal(wa.sf, wb.sf)

    def test_seed_changes_field(self):
        a = generate_field(SynthFieldParams(seed=3, n_inlines=6, n_xlines=6))
        b = generate_field(SynthFieldParams(seed=4, n_inlines=6, n_xlines=6))
        assert not np.array_equal(a.volumes["sf"].data, b.volumes["sf"].data)

    def test_single_layer_no_noise_is_flat(self):
        params = SynthFieldParams(seed=5, n_inlines=4, n_xlines=4,
                                  layer_count=1, noise_level=0.0,
                                  texture_std=0.0, log_noise_std=0.0,
                                  lateral_drift=0.0)
        field = generate_field(params)
        sf = field.volumes["sf"].data
        assert np.ptp(sf) < 1e-12          # constant SF volume
        assert np.abs(field.volumes["amp"].data).max() < 1e-12  # no interfaces

    def test_wells_inside_volume(self, bench_field):
        vol = bench_field.volumes["sf"]
        t_end = vol.t0_ms + vol.dt_ms * (vol.n_samples - 1)
        for well in bench_field.wells:
            assert well.inline in vol.inlines and well.xline in vol.xlines
            times = well.velocity.time_at(well.depths_m)
            assert times.min() > vol.t0_ms and times.max() < t_end
            assert (np.diff(well.depths_m) > 0).all()

    def test_sf_within_unit_interval(self, bench_field):
        assert bench_field.volumes["sf"].data.min() >= 0.0
        assert bench_field.volumes["sf"].data.max() <= 1.0
        for well in bench_field.wells:
            assert well.sf.min() >= 0.0 and well.sf.max() <= 1.0

    def test_target_entropy_exceeds_predictors(self, bench_field):
        # the premise the whole workflow rests on, checked along well A
        vols = bench_field.volumes
        well = bench_field.wells[0]
        sf_ts = rs.depth_to_time(well.depths_m, well.sf, well.velocity, 0.15)
        h_sf = metrics.series_entropy(sf_ts)
        i = list(vols["imp"].inlines).index(well.inline)
        j = list(vols["imp"].xlines).index(well.xline)
        for name in ("imp", "amp", "freq"):
            trace = TimeSeries(vols[name].t0_ms, vols[name].dt_ms,
                               vols[name].data[i, j])
            fine = rs.sinc_resample(trace, sf_ts.t0_ms, 0.15, len(sf_ts))
            assert h_sf > metrics.series_entropy(fine)

    def test_impedance_decreases_with_sand(self, bench_field):
        # monotone-decreasing map plus band-limiting: correlation is negative
        flat_sf = bench_field.volumes["sf"].data.ravel()
        flat_imp = bench_field.volumes["imp"].data.ravel()
        assert np.corrcoef(flat_sf, flat_imp)[0, 1] < -0.5


def _whole_grid_field(params):
    """generate_field as whole-grid arithmetic: the helper grid built at once
    time-first [nt, il, xl], with the trace filters run down its strided
    time axis.  The blocked generator must reproduce its bytes."""
    from scipy.ndimage import gaussian_filter1d
    from scipy.signal import hilbert

    rng = np.random.default_rng(params.seed)
    model = synthbench._LayeredSf(params, rng)
    n_il, n_xl, ns = params.n_inlines, params.n_xlines, params.n_samples
    times = params.t0_ms + params.dt_ms * np.arange(ns)
    sf_vol = np.clip(model.values[model.layer_of(times)].transpose(1, 2, 0)
                     + model.texture(times)[None, None, :], 0.01, 0.99)
    ratio = 4
    helper_dt = params.dt_ms / ratio
    margin = 10.0 * params.imp_smooth_ms
    t_helper = np.arange(params.t0_ms - margin, times[-1] + margin + helper_dt,
                         helper_dt)
    sf_helper = np.clip(model.values[model.layer_of(t_helper)]
                        + model.texture(t_helper)[:, None, None], 0.01, 0.99)
    imp_raw_helper = params.imp_base - params.imp_drop * sf_helper
    imp_smooth = gaussian_filter1d(imp_raw_helper,
                                   sigma=params.imp_smooth_ms / helper_dt,
                                   axis=0, mode="nearest")
    start = int(round((times[0] - t_helper[0]) / helper_dt))
    imp_vol = imp_smooth[start:start + ns * ratio:ratio].transpose(1, 2, 0)
    imp_noise = gaussian_filter1d(rng.standard_normal(imp_vol.shape),
                                  sigma=1.5, axis=2, mode="nearest")
    imp_vol = imp_vol + params.noise_level * imp_vol.std() * imp_noise
    refl = np.zeros_like(imp_raw_helper)
    refl[:-1] = ((imp_raw_helper[1:] - imp_raw_helper[:-1])
                 / (imp_raw_helper[1:] + imp_raw_helper[:-1]))
    taps_t = helper_dt * np.arange(-round(margin / helper_dt),
                                   round(margin / helper_dt) + 1)
    taps = ricker(taps_t, params.wavelet_center_freq_hz)
    amp_helper = np.apply_along_axis(
        lambda m: np.convolve(m, taps, mode="same"), 0, refl)
    amp_vol = amp_helper[start:start + ns * ratio:ratio].transpose(1, 2, 0)
    white = rng.standard_normal(amp_vol.shape)
    wavelet_taps = ricker(
        params.dt_ms * np.arange(-(NOISE_TAPS // 2), NOISE_TAPS // 2 + 1),
        params.wavelet_center_freq_hz)
    wavelet_taps = wavelet_taps / np.linalg.norm(wavelet_taps)
    band_noise = np.apply_along_axis(
        lambda m: np.convolve(m, wavelet_taps, mode="same"), 2, white)
    amp_vol = amp_vol + params.noise_level * amp_vol.std() * band_noise
    phase = np.unwrap(np.angle(hilbert(amp_vol, axis=2)), axis=2)
    inst_hz = np.gradient(phase, axis=2) / (2.0 * math.pi * params.dt_ms / 1000.0)
    inst_hz = np.clip(inst_hz, 0.0, 1000.0 / (2.0 * params.dt_ms))
    freq_vol = gaussian_filter1d(inst_hz, sigma=1.5, axis=2, mode="nearest")

    names = {"sf": "sand_fraction", **ATTRIBUTE_LONG_NAMES}
    volumes = {
        key: SeismicVolume(
            inlines=np.arange(1, n_il + 1, dtype=np.int32),
            xlines=np.arange(1, n_xl + 1, dtype=np.int32),
            t0_ms=params.t0_ms, dt_ms=params.dt_ms,
            data=np.ascontiguousarray(grid), attribute_name=long_name)
        for (key, long_name), grid in zip(names.items(),
                                          (sf_vol, imp_vol, amp_vol, freq_vol))}
    wells = []
    t_lo = params.t0_ms + params.well_margin_ms
    t_hi = times[-1] - params.well_margin_ms
    for w, well_id in enumerate("ABCD"):
        v = params.velocity_m_per_s * [1.0, 1.01, 0.99, 1.02][w]
        depths = np.arange(v * t_lo / 2000.0, v * t_hi / 2000.0,
                           params.depth_step_m)
        i = [n_il // 4, n_il // 4, 3 * n_il // 4, 3 * n_il // 4][w]
        j = [n_xl // 4, 3 * n_xl // 4, n_xl // 4, 3 * n_xl // 4][w]
        sf_log = model.at(i, j, depths * 2000.0 / v)
        sf_log = np.clip(
            sf_log + params.log_noise_std * rng.standard_normal(len(sf_log)),
            0.0, 1.0)
        knot_depths = np.linspace(0.0, v * (times[-1] + 100.0) / 2000.0, 9)
        knots = [(float(z), float(z * 2000.0 / v)) for z in knot_depths]
        wells.append(SynthWell(well_id, i + 1, j + 1, depths, sf_log,
                               VelocityProfile(knots)))
    return SynthField(params=params, volumes=volumes, wells=wells)


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestBlockedHelperGrid:
    """The blocked, threaded generator writes the bytes of the whole-grid
    arithmetic, whatever the block size and the number of workers."""

    @pytest.mark.parametrize("seed, shape", [
        (7, (16, 16, 116)), (11, (16, 16, 116)), (20, (16, 16, 116)),
        (22, (16, 16, 116)), (30007, (16, 16, 512)), (7, (9, 13, 300)),
        (7, (1, 1, 61))], ids=lambda v: "x".join(map(str, v))
        if isinstance(v, tuple) else str(v))
    def test_bytes_match_whole_grid(self, tmp_path, monkeypatch, seed, shape):
        n_il, n_xl, ns = shape
        params = SynthFieldParams(seed=seed, n_inlines=n_il, n_xlines=n_xl,
                                  n_samples=ns)
        write_field(_whole_grid_field(params), tmp_path / "whole")
        expected = _files(tmp_path / "whole")
        assert len(expected) == 12
        write_field(generate_field(params), tmp_path / "default")
        assert _files(tmp_path / "default") == expected

        pools = []
        real_pool = concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda workers: pools.append(workers)
                            or real_pool(workers))
        one_inline = 1          # rounds up to one inline per block
        whole_field = n_il * n_xl * ns * 8
        switch = sys.getswitchinterval()
        try:
            for workers in (1, 8):
                if workers == 8:
                    # hand the GIL over as often as possible
                    sys.setswitchinterval(1e-6)
                monkeypatch.setattr(synthbench, "_cores", lambda: workers)
                for helper_samples in (one_inline, whole_field):
                    monkeypatch.setattr(synthbench, "HELPER_SAMPLES",
                                        helper_samples)
                    out = tmp_path / f"{workers}_{helper_samples}"
                    write_field(generate_field(params), out)
                    assert _files(out) == expected, (workers, helper_samples)
        finally:
            sys.setswitchinterval(switch)
        # only 8 workers over one-inline blocks needs a pool
        assert pools == ([min(8, n_il)] if n_il > 1 else [])


class TestRicker:
    def test_zero_phase_peak(self):
        t = np.linspace(-50.0, 50.0, 501)
        w = ricker(t, 40.0)
        assert np.argmax(w) == 250
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    def test_peak_value_one(self):
        assert ricker(np.array([0.0]), 25.0)[0] == 1.0


class TestWriters:
    def test_las_roundtrip(self, bench_field):
        well = bench_field.wells[0]
        log = parse_las(write_las(well_to_las(well)))
        np.testing.assert_array_equal(log.depths, well.depths_m)
        np.testing.assert_array_equal(log.curve("SF"), well.sf)
        assert int(log.well_meta["ILIN"][0]) == well.inline
        assert int(log.well_meta["XLIN"][0]) == well.xline

    def test_velocity_csv_roundtrip(self, bench_field, tmp_path):
        well = bench_field.wells[0]
        path = tmp_path / "vel.csv"
        path.write_text(velocity_csv(well.velocity))
        vp = rs.load_velocity_csv(path)
        assert vp.knots == [(float(d), float(t)) for d, t in well.velocity.knots]
