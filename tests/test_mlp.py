import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seisreg import mlp
from seisreg.errors import ConfigError
from seisreg.mlp import (
    DivergedNonFinite,
    MlpModel,
    ModelBundle,
    ScgParams,
    forward_batch,
    gradient,
    init_model,
    load_model,
    loss,
    save_model,
    scg_minimize,
    scg_train,
)
from seisreg.resample import MinMaxStats, ZscoreStats


def naive_forward(model, x):
    """Two-loop reference evaluation, independent of the vectorized path."""
    hidden = []
    for j in range(model.n_hidden):
        v = model.w_hidden[j, -1]
        for i in range(model.n_in):
            v += model.w_hidden[j, i] * x[i]
        hidden.append(math.tanh(v))
    v = model.w_out[-1]
    for j in range(model.n_hidden):
        v += model.w_out[j] * hidden[j]
    return 1.0 / (1.0 + math.exp(-v))


class TestInitModel:
    def test_deterministic(self):
        a = init_model(3, 10, seed=42)
        b = init_model(3, 10, seed=42)
        np.testing.assert_array_equal(a.flatten(), b.flatten())

    def test_weight_count(self):
        model = init_model(3, 10, seed=0)
        assert model.weight_count == (3 + 1) * 10 + (10 + 1) * 1 == 51

    def test_seed_changes_weights(self):
        a = init_model(3, 10, seed=1)
        b = init_model(3, 10, seed=2)
        assert not np.array_equal(a.flatten(), b.flatten())

    def test_bounds(self):
        model = init_model(4, 8, seed=3)
        assert np.abs(model.w_hidden).max() <= 1.0 / math.sqrt(5)
        assert np.abs(model.w_out).max() <= 1.0 / math.sqrt(9)


class TestForward:
    def test_zero_weights_gives_half(self):
        model = MlpModel(2, 3, np.zeros((3, 3)), np.zeros(4))
        assert forward_batch(model, [5.0, -2.0]).tolist() == [0.5]

    def test_output_bias_only(self):
        model = MlpModel(2, 3, np.zeros((3, 3)), np.zeros(4))
        model.w_out[-1] = 1.3
        assert forward_batch(model, [0.7, 0.1])[0] == \
            pytest.approx(1 / (1 + math.exp(-1.3)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        model = init_model(3, 7, seed=9)
        x = rng.standard_normal((20, 3))
        expected = [naive_forward(model, row) for row in x]
        np.testing.assert_allclose(forward_batch(model, x), expected,
                                   rtol=0, atol=1e-12)

    def test_output_in_open_interval(self):
        model = init_model(3, 5, seed=5)
        out = forward_batch(model, np.random.default_rng(0).standard_normal((100, 3)))
        assert ((out > 0.0) & (out < 1.0)).all()

    def test_dimension_mismatch(self):
        model = init_model(3, 5, seed=5)
        with pytest.raises(ConfigError, match="input width 2 != n_in 3"):
            forward_batch(model, [1.0, 2.0])


class TestLoss:
    def test_exact_fit_is_zero(self):
        model = init_model(2, 4, seed=6)
        X = np.random.default_rng(1).standard_normal((10, 2))
        assert loss(model, X, forward_batch(model, X)) == 0.0

    def test_single_pattern(self):
        # zero weights emit 0.5; target 0.9 -> (0.4)^2 / 2
        model = MlpModel(1, 2, np.zeros((2, 2)), np.zeros(3))
        assert loss(model, [[0.0]], [0.9]) == pytest.approx(0.08)

    def test_two_patterns(self):
        # errors 0.1 and 0.3 -> (0.01 + 0.09) / 4
        model = MlpModel(1, 2, np.zeros((2, 2)), np.zeros(3))
        assert loss(model, [[0.0], [0.0]], [0.6, 0.8]) == pytest.approx(0.025)


def finite_difference_gradient(model, X, d, h=1e-6):
    w0 = model.flatten()
    out = np.zeros_like(w0)
    for i in range(len(w0)):
        wp, wm = w0.copy(), w0.copy()
        wp[i] += h
        wm[i] -= h
        out[i] = (loss(model.with_flat(wp), X, d)
                  - loss(model.with_flat(wm), X, d)) / (2 * h)
    return out


class TestGradient:
    def test_zero_at_exact_fit(self):
        model = init_model(2, 4, seed=7)
        X = np.random.default_rng(2).standard_normal((12, 2))
        g = gradient(model, X, forward_batch(model, X))
        assert np.abs(g).max() < 1e-15

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for seed in (1, 2, 3):
            model = init_model(3, 5, seed=seed)
            X = rng.standard_normal((20, 3))
            d = rng.uniform(0.1, 0.9, 20)
            bp = gradient(model, X, d)
            fd = finite_difference_gradient(model, X, d)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(bp - fd).max() / scale < 1e-6

    def test_duplication_invariance(self):
        model = init_model(3, 5, seed=10)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((15, 3))
        d = rng.uniform(0.1, 0.9, 15)
        g1 = gradient(model, X, d)
        g2 = gradient(model, np.vstack([X, X]), np.concatenate([d, d]))
        np.testing.assert_allclose(g2, g1, atol=1e-15)


def reference_loss_and_gradient(model, X, d):
    """Average error energy and its gradient as two separate passes,
    written out operation by operation in the unit-major layout (hidden
    units × patterns): the fused objective must keep this floating-point
    order exactly."""
    n = len(d)
    w_hidden, w_out = model.w_hidden, model.w_out
    hidden = np.tanh(w_hidden[:, :-1] @ np.ascontiguousarray(X.T)
                     + w_hidden[:, -1:])
    out = 1.0 / (1.0 + np.exp(-(w_out[:-1] @ hidden + w_out[-1])))
    err = d - out
    e = float(np.dot(err, err) / (2.0 * n))
    delta_out = -err * out * (1.0 - out) / n
    grad_out = np.concatenate([hidden @ delta_out, [delta_out.sum()]])
    delta_hidden = np.outer(w_out[:-1], delta_out) * (1.0 - hidden ** 2)
    grad_hidden = np.hstack([delta_hidden @ X,
                             delta_hidden.sum(axis=1)[:, None]])
    return e, np.concatenate([grad_hidden.ravel(), grad_out])


class TestObjective:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_hidden=st.sampled_from([1, 5, 10]),
           n_rows=st.integers(1, 700),
           scale=st.sampled_from([0.1, 1.0, 4.0]))
    def test_bit_identical_to_two_pass_reference(self, seed, n_hidden,
                                                 n_rows, scale):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_rows, 3))
        d = rng.uniform(0.0, 1.0, n_rows)
        model = init_model(3, n_hidden, seed=seed)
        objective = mlp._objective(3, n_hidden, X, d)
        grads = []
        # the second call reuses the work arrays of the first
        for _ in range(2):
            w = scale * rng.standard_normal(model.weight_count)
            e, g = objective(w)
            e_ref, g_ref = reference_loss_and_gradient(model.with_flat(w), X, d)
            assert e == e_ref == loss(model.with_flat(w), X, d)
            np.testing.assert_array_equal(g, g_ref)
            grads.append((g, g_ref))
        # each call hands back its own gradient array
        np.testing.assert_array_equal(*grads[0])

    @pytest.mark.parametrize("n_hidden", [1, 5, 10])
    @pytest.mark.parametrize("n_rows", [1, 37, 1427])
    def test_loss_and_gradient_are_the_objective(self, n_hidden, n_rows):
        # one definition of the training loss: the public helpers evaluate
        # the objective that SCG minimizes, bit for bit
        rng = np.random.default_rng(1000 * n_hidden + n_rows)
        X = rng.standard_normal((n_rows, 3))
        d = rng.uniform(0.0, 1.0, n_rows)
        model = init_model(3, n_hidden, seed=n_rows)
        e, g = mlp._objective(3, n_hidden, X, d)(model.flatten())
        assert loss(model, X, d) == e
        np.testing.assert_array_equal(gradient(model, X, d), g)


class TestScg:
    def test_quadratic_surrogate(self):
        # E(w) = (w - 3)^2 has its minimum at 3; SCG needs very few steps
        objective = lambda w: (float((w[0] - 3.0) ** 2),
                               np.array([2.0 * (w[0] - 3.0)]))
        w, history = scg_minimize(objective, np.array([0.0]),
                                  ScgParams(max_iters=5))
        assert abs(w[0] - 3.0) < 1e-8
        assert history.iterations <= 5

    def test_objective_calls(self):
        # one call at w0, then a curvature probe and a trial point per step;
        # an accepted step keeps the trial point's gradient, and a rejected
        # one skips the next probe
        every_step_accepted = []
        for seed in (4, 5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 3))
            d = rng.uniform(0.1, 0.9, 40)
            model = init_model(3, 5, seed=seed)
            inner = mlp._objective(3, 5, X, d)
            calls = []

            def objective(w):
                calls.append(1)
                return inner(w)

            _, history = scg_minimize(objective, model.flatten(),
                                      ScgParams(max_iters=300))
            assert history.iterations == 300
            assert len(calls) <= 1 + 2 * history.iterations
            if all(history.accepted):
                assert len(calls) == 1 + 2 * history.iterations
            every_step_accepted.append(all(history.accepted))
        assert every_step_accepted == [False, True]

    def test_realizable_target(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3, 3, size=(200, 3))
        d = 1.0 / (1.0 + np.exp(-0.5 * X[:, 0]))
        model = init_model(3, 5, seed=1)
        trained, history = scg_train(model, X, d, ScgParams(max_iters=500))
        rmse = math.sqrt(np.mean((forward_batch(trained, X) - d) ** 2))
        assert rmse < 0.01
        assert history.iterations <= 500

    def test_accepted_loss_non_increasing(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 3))
        d = rng.uniform(0.1, 0.9, 50)
        _, history = scg_train(init_model(3, 5, seed=2), X, d,
                               ScgParams(max_iters=200))
        accepted = [l for l, a in zip(history.loss, history.accepted) if a]
        assert all(b <= a for a, b in zip(accepted, accepted[1:]))

    def test_curvature_positive_every_iteration(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3))
        d = rng.uniform(0.1, 0.9, 50)
        _, history = scg_train(init_model(3, 5, seed=3), X, d,
                               ScgParams(max_iters=200))
        assert all(c > 0 for c in history.curvature)

    def test_restart_schedule(self):
        # the direction resets to steepest descent every N-th iteration
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 2))
        d = rng.uniform(0.1, 0.9, 30)
        model = init_model(2, 1, seed=4)  # N = (2+1)*1 + 2 = 5 weights
        n = model.weight_count
        _, history = scg_train(model, X, d, ScgParams(max_iters=4 * n))
        for k0, (restarted, accepted) in enumerate(zip(history.restarted,
                                                       history.accepted)):
            k = k0 + 1
            if accepted:
                assert restarted == (k % n == 0)
            else:
                assert not restarted

    def test_max_iters_zero_is_noop(self):
        model = init_model(3, 5, seed=5)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 3))
        d = rng.uniform(0.1, 0.9, 10)
        trained, history = scg_train(model, X, d, ScgParams(max_iters=0))
        np.testing.assert_array_equal(trained.flatten(), model.flatten())
        assert history.iterations == 0

    def test_param_constraints(self):
        with pytest.raises(ConfigError):
            ScgParams(max_iters=10, sigma=1e-3)
        with pytest.raises(ConfigError):
            ScgParams(max_iters=10, sigma=0.0)
        with pytest.raises(ConfigError):
            ScgParams(max_iters=10, lambda1=2e-4)

    def test_no_line_search_knobs(self):
        # the trainer exposes only the two scale constants and termination
        import dataclasses
        fields = {f.name for f in dataclasses.fields(ScgParams)}
        assert fields == {"sigma", "lambda1", "max_iters", "target_loss"}

    def test_diverged_non_finite(self):
        objective = lambda w: (float("nan"), np.array([1.0]))
        with pytest.raises(DivergedNonFinite) as err:
            scg_minimize(objective, np.array([0.0]), ScgParams(max_iters=10))
        assert err.value.history is not None

    def test_target_loss_stops_early(self):
        objective = lambda w: (float((w[0] - 3.0) ** 2),
                               np.array([2.0 * (w[0] - 3.0)]))
        _, history = scg_minimize(objective, np.array([0.0]),
                                  ScgParams(max_iters=100, target_loss=1e-4))
        assert history.stop_reason == "target_loss"


class TestModelBundle:
    def _bundle(self):
        model = init_model(3, 4, seed=11)
        return ModelBundle(
            model=model,
            input_stats=ZscoreStats(mean=np.array([1.0, 2.0, 3.0]),
                                    std=np.array([0.5, 1.5, 2.5])),
            target_stats=MinMaxStats(data_min=0.0, data_max=0.6),
            seed=11,
        )

    def test_save_load_roundtrip(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "model.json"
        save_model(path, bundle)
        again = load_model(path)
        np.testing.assert_array_equal(bundle.model.flatten(), again.model.flatten())
        rng = np.random.default_rng(12)
        raw = rng.uniform(0, 4, (20, 3))
        np.testing.assert_array_equal(bundle.predict(raw), again.predict(raw))

    def test_predictions_within_target_band(self):
        bundle = self._bundle()
        raw = np.random.default_rng(13).uniform(0, 4, (50, 3))
        pred = bundle.predict(raw)
        lo = bundle.target_stats.invert(0.0)
        hi = bundle.target_stats.invert(1.0)
        assert ((pred > lo) & (pred < hi)).all()
