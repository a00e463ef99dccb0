import contextlib
import tracemalloc

import numpy as np
import pytest

from seisreg import volpost
from seisreg.errors import ConfigError
from seisreg.formats.svol import open_svol, read_svol, write_svol
from seisreg.formats.volume import SeismicVolume
from seisreg.mlp import ModelBundle, forward_batch, init_model
from seisreg.resample import MinMaxStats, ZscoreStats
from seisreg.volpost import (
    GeometryMismatch,
    heatmap_csv,
    median_filter_3d,
    predict_volume,
)


def make_volume(data, mask=None, t0=0.0, dt=2.0, name="sf"):
    data = np.asarray(data, dtype=np.float64)
    return SeismicVolume(
        inlines=np.arange(1, data.shape[0] + 1),
        xlines=np.arange(1, data.shape[1] + 1),
        t0_ms=t0, dt_ms=dt, data=data, attribute_name=name, mask=mask,
    )


def make_bundle(seed=0, hidden=4):
    return ModelBundle(
        model=init_model(3, hidden, seed=seed),
        input_stats=ZscoreStats(mean=np.array([1.0, 0.0, 30.0]),
                                std=np.array([2.0, 1.0, 10.0])),
        target_stats=MinMaxStats(data_min=0.0, data_max=1.0),
        seed=seed,
    )


class TestPredictVolume:
    def _attrs(self, shape=(1, 1, 4), values=(1.0, 0.5, 25.0)):
        return [make_volume(np.full(shape, v), name=n)
                for v, n in zip(values, ("imp", "amp", "freq"))]

    def test_constant_attrs_constant_prediction(self):
        bundle = make_bundle()
        out = predict_volume(bundle, self._attrs())
        scored = bundle.input_stats.apply(np.array([[1.0, 0.5, 25.0]]))
        expected = bundle.target_stats.invert(forward_batch(bundle.model, scored)[0])
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_statelessness_matches_per_voxel(self):
        rng = np.random.default_rng(1)
        attrs = [make_volume(rng.uniform(0, 2, (2, 3, 5)), name=n)
                 for n in ("imp", "amp", "freq")]
        bundle = make_bundle()
        out = predict_volume(bundle, attrs)
        for i in (0, 1):
            for j in (0, 2):
                for k in (0, 4):
                    raw = np.array([[v.data[i, j, k] for v in attrs]])
                    single = bundle.predict(raw)[0]
                    assert out.data[i, j, k] == pytest.approx(single, abs=1e-12)

    def test_voxel_order_is_immaterial(self):
        # there is no visitation order: permuting the pattern rows and
        # undoing the permutation reproduces the volume bit for bit
        rng = np.random.default_rng(7)
        attrs = [make_volume(rng.uniform(0, 2, (2, 3, 5)), name=n)
                 for n in ("imp", "amp", "freq")]
        bundle = make_bundle()
        out = predict_volume(bundle, attrs)
        flat = np.stack([v.data.ravel() for v in attrs], axis=1)
        perm = rng.permutation(flat.shape[0])
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        permuted = bundle.predict(flat[perm])[inverse].reshape(out.data.shape)
        np.testing.assert_array_equal(permuted, out.data)

    def test_unnamed_volumes_bind_by_position(self):
        # convert --segy leaves attribute_name empty unless --attribute is set
        bundle = make_bundle()
        named = self._attrs(shape=(2, 1, 3))
        unnamed = [make_volume(v.data, name="") for v in named]
        np.testing.assert_array_equal(predict_volume(bundle, unnamed).data,
                                      predict_volume(bundle, named).data)

    def test_geometry_mismatch(self):
        attrs = self._attrs()
        attrs[1] = make_volume(np.zeros((1, 1, 4)), t0=2.0, name="amp")
        with pytest.raises(GeometryMismatch):
            predict_volume(make_bundle(), attrs)

    def test_mask_propagates(self):
        attrs = self._attrs(shape=(2, 2, 3))
        mask = np.ones((2, 2, 3), dtype=bool)
        mask[0, 1, :] = False
        attrs[2] = make_volume(attrs[2].data, mask=mask, name="freq")
        out = predict_volume(make_bundle(), attrs)
        assert not out.mask[0, 1].any()
        assert out.mask[1, 1].all()


class TestMedianFilter3d:
    def test_constant_unchanged(self):
        vol = make_volume(np.full((4, 4, 6), 3.3))
        out = median_filter_3d(vol)
        np.testing.assert_array_equal(out.data, vol.data)

    def test_center_of_1_to_27_cube(self):
        cube = np.arange(1.0, 28.0).reshape(3, 3, 3)
        out = median_filter_3d(make_volume(cube))
        # full 27-point window: the 14th largest value
        assert out.data[1, 1, 1] == 14.0

    def test_spike_suppressed(self):
        data = np.full((5, 5, 5), 2.0)
        data[2, 2, 2] = 1e6
        out = median_filter_3d(make_volume(data))
        assert out.data[2, 2, 2] == 2.0

    def test_output_values_from_neighborhood(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 1, (4, 5, 6))
        out = median_filter_3d(make_volume(data))
        for i in range(4):
            for j in range(5):
                for k in range(6):
                    neigh = data[max(0, i - 1):i + 2, max(0, j - 1):j + 2,
                                 max(0, k - 1):k + 2]
                    assert out.data[i, j, k] in neigh

    def test_lower_median_on_even_sets(self):
        # a 2x1x1 volume: each voxel's valid window holds both values
        out = median_filter_3d(make_volume(np.array([[[1.0]], [[2.0]]])))
        assert out.data[0, 0, 0] == 1.0 and out.data[1, 0, 0] == 1.0

    def test_affine_equivariance_exact(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0, 1, (4, 4, 8))
        a, b = 2.5, -0.75
        direct = median_filter_3d(make_volume(a * data + b)).data
        indirect = a * median_filter_3d(make_volume(data)).data + b
        np.testing.assert_array_equal(direct, indirect)

    def test_total_variation_does_not_increase(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(0, 1, (6, 6, 20))
        out = median_filter_3d(make_volume(data))
        tv = lambda grid: np.abs(np.diff(grid, axis=2)).sum()
        assert tv(out.data) <= tv(data)

    def test_masked_window_stays_masked(self):
        mask = np.zeros((1, 1, 1), dtype=bool)
        vol = make_volume(np.full((1, 1, 1), 0.25), mask=mask)
        out = median_filter_3d(vol, window=1)
        assert not out.mask[0, 0, 0] and out.data[0, 0, 0] == 0.25

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_matches_brute_force_lower_median(self, window):
        rng = np.random.default_rng(5)
        shape = (7, 6, 9)
        data = rng.uniform(0, 1, shape)
        mask = rng.uniform(0, 1, shape) > 0.3     # scattered holes
        mask[:, :, 2:8] = False                   # a slab wider than the window
        out = median_filter_3d(make_volume(data, mask=mask), window=window)
        h = window // 2
        expected = data.copy()
        for i, j, k in np.ndindex(shape):
            box = tuple(slice(max(0, c - h), c + h + 1) for c in (i, j, k))
            v = data[box][mask[box]]
            if len(v):
                expected[i, j, k] = sorted(v)[(len(v) - 1) // 2]
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(out.mask, mask)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            median_filter_3d(make_volume(np.zeros((3, 3, 3))), window=2)

    def test_boundary_shrinks_not_pads(self):
        # corner voxel of the 1..27 cube sees an 8-point window
        cube = np.arange(1.0, 28.0).reshape(3, 3, 3)
        out = median_filter_3d(make_volume(cube))
        corner = sorted(cube[:2, :2, :2].ravel())
        assert out.data[0, 0, 0] == corner[(len(corner) - 1) // 2]


def brute_force_lower_median(data, mask, window):
    h = window // 2
    expected = data.copy()
    for i, j, k in np.ndindex(data.shape):
        box = tuple(slice(max(0, c - h), c + h + 1) for c in (i, j, k))
        v = data[box][mask[box]]
        if len(v):
            expected[i, j, k] = sorted(v)[(len(v) - 1) // 2]
    return expected


class TestBlocks:
    """Both volume stages work in blocks of volpost.BLOCK_ROWS voxels; no
    block seam may change a bit of the output."""

    @pytest.mark.parametrize("block_rows", [8, 64])
    @pytest.mark.parametrize("shape", [(5, 7, 13), (11, 1, 11), (9, 11, 9),
                                       (5, 1, 13)])
    def test_predict_matches_one_block(self, monkeypatch, shape, block_rows):
        # a wrong seam moves the last bit of a voxel in some draws only,
        # so try several; 5x1x13 leaves one row after the last full block
        bundle = make_bundle(seed=3, hidden=10)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            mask = rng.uniform(0, 1, shape) > 0.2
            attrs = [make_volume(rng.uniform(-1, 3, shape), mask=mask, name=n)
                     for n in ("imp", "amp", "freq")]
            # the one-call sweep over every voxel
            flat = np.stack([v.data.ravel() for v in attrs], axis=1)
            whole = np.where(mask, bundle.predict(flat).reshape(shape), 0.0)
            monkeypatch.setattr(volpost, "BLOCK_ROWS", block_rows)
            blocked = predict_volume(bundle, attrs)
            np.testing.assert_array_equal(blocked.data, whole)
            np.testing.assert_array_equal(blocked.mask, mask)

    @pytest.mark.parametrize("window", [1, 3, 5])
    @pytest.mark.parametrize("block_rows", [8, 64])
    @pytest.mark.parametrize("shape", [(5, 7, 13), (11, 1, 11), (9, 11, 9)])
    def test_median_matches_one_block_and_brute_force(self, monkeypatch, shape,
                                                      block_rows, window):
        rng = np.random.default_rng(sum(shape))
        data = rng.uniform(0, 1, shape)
        mask = rng.uniform(0, 1, shape) > 0.3
        vol = make_volume(data, mask=mask)
        monkeypatch.setattr(volpost, "BLOCK_ROWS", 1 << 30)
        whole = median_filter_3d(vol, window=window)
        monkeypatch.setattr(volpost, "BLOCK_ROWS", block_rows)
        blocked = median_filter_3d(vol, window=window)
        np.testing.assert_array_equal(blocked.data, whole.data)
        np.testing.assert_array_equal(
            blocked.data, brute_force_lower_median(data, mask, window))

    @pytest.mark.parametrize("stage", ["predict", "median"])
    def test_peak_memory_is_a_few_volumes(self, stage):
        # in one pass over the whole volume the hidden activations
        # (predict) or the 27 window cells (median) alone take 26-32 times
        # the volume's bytes; the median holds its output, one sort buffer
        # of at most BLOCK_ROWS voxels and one padded slab of inlines
        rng = np.random.default_rng(8)
        shape = (64, 64, 128)
        attrs = [make_volume(rng.uniform(0, 2, shape), name=n)
                 for n in ("imp", "amp", "freq")]
        bundle = make_bundle(hidden=10)
        call = {"predict": lambda: predict_volume(bundle, attrs),
                "median": lambda: median_filter_3d(attrs[0], window=3)}[stage]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < {"predict": 10, "median": 6}[stage] * attrs[0].data.nbytes


class TestStreamed:
    """With a path as `out`, each stage writes its blocks to a `.svol`, and
    the sweep reads open `.svol` files block by block."""

    def _sources(self, tmp_path, shape, seed=5):
        rng = np.random.default_rng(seed)
        paths = []
        for name in ("imp", "amp", "freq"):
            path = tmp_path / f"{name}_{shape[0]}.svol"
            write_svol(path, make_volume(rng.uniform(0, 2, shape),
                                         mask=rng.uniform(0, 1, shape) > 0.1,
                                         name=name))
            paths.append(path)
        return paths

    def test_streamed_outputs_match_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(volpost, "BLOCK_ROWS", 64)
        bundle = make_bundle(seed=2, hidden=10)
        paths = self._sources(tmp_path, (5, 7, 13))
        with contextlib.ExitStack() as stack:
            sources = [stack.enter_context(open_svol(p)) for p in paths]
            assert predict_volume(bundle, sources, tmp_path / "p.svol") is None
        in_memory = predict_volume(bundle, [read_svol(p) for p in paths])
        streamed = read_svol(tmp_path / "p.svol")
        np.testing.assert_array_equal(streamed.data, in_memory.data)
        np.testing.assert_array_equal(streamed.mask, in_memory.mask)
        assert median_filter_3d(streamed, 3, tmp_path / "m.svol") is None
        filtered = read_svol(tmp_path / "m.svol")
        np.testing.assert_array_equal(filtered.data,
                                      median_filter_3d(in_memory, 3).data)

    def test_failed_sweep_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(volpost, "BLOCK_ROWS", 8)
        bundle = make_bundle()
        predict = bundle.predict
        calls = []

        def fail_on_second_block(inputs):
            calls.append(len(inputs))
            if len(calls) == 2:
                raise RuntimeError("second block")
            return predict(inputs)

        monkeypatch.setattr(bundle, "predict", fail_on_second_block)
        attrs = [make_volume(np.ones((3, 4, 5)), name=n)
                 for n in ("imp", "amp", "freq")]
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(RuntimeError, match="second block"):
            predict_volume(bundle, attrs, out / "sf_pred.svol")
        assert len(calls) == 2
        assert not list(out.iterdir())

    def test_streamed_sweep_peak_does_not_grow_with_inlines(self, tmp_path,
                                                            monkeypatch):
        # sources and sink hold one block at a time; in memory, the three
        # inputs and the output alone would double with the inlines
        monkeypatch.setattr(volpost, "BLOCK_ROWS", 1 << 10)
        bundle = make_bundle(hidden=10)
        peaks = []
        for n_inlines in (16, 32):
            paths = self._sources(tmp_path, (n_inlines, 32, 64))
            with contextlib.ExitStack() as stack:
                sources = [stack.enter_context(open_svol(p)) for p in paths]
                tracemalloc.start()
                try:
                    predict_volume(bundle, sources,
                                   tmp_path / f"sf_{n_inlines}.svol")
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]
        # 32x32x64 voxels: one input volume alone is 0.5 MiB
        assert peaks[1] < 32 * 32 * 64 * 8


class TestHeatmapCsv:
    def test_layout(self):
        data = np.arange(12.0).reshape(2, 3, 2)
        vol = make_volume(data, t0=100.0, dt=2.0)
        csv = heatmap_csv(vol, inline=2)
        lines = csv.strip().splitlines()
        assert lines[0] == "time_ms,xline_1,xline_2,xline_3"
        assert lines[1].startswith("100,")
        assert len(lines) == 3
