import numpy as np
import pytest

from seisreg import metrics
import seisreg.resample as rs
from seisreg.errors import ConfigError
from seisreg.formats.las import parse_las, write_las
from seisreg.resample import TimeSeries
from seisreg.synthbench import (
    SynthFieldParams,
    generate_field,
    ricker,
    velocity_csv,
    well_to_las,
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
