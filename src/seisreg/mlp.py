"""Single-hidden-layer perceptron (tanh hidden, logistic output) with
analytic backprop gradients, trained by scaled conjugate gradient.

Training evaluates one fused objective, `w -> (loss, gradient)`: a single
forward pass over the pattern set yields the average error energy and,
through backprop, its exact gradient.  The objective reads the weights as
views of the flat vector and reuses work arrays allocated once per
training run.  It holds the hidden activations unit-major (hidden units ×
patterns), so each hidden unit's bias gradient sums one contiguous row.
`loss` and `gradient` evaluate that same objective; prediction
(`forward_batch`) stays row-major, patterns × hidden units.

The trainer follows Moller's published SCG ordering: curvature along the
search direction is estimated from a gradient difference (the Hessian is
never formed), an adaptive scale keeps the effective curvature positive
definite, and a comparison parameter accepts or rejects each step — no
line search and no user-tuned learning rate.  Each iteration calls the
objective twice, at the curvature probe and at the trial point; an
accepted step keeps the trial point's gradient.  The only exposed knobs
are the two small positive constants sigma and lambda1 plus termination.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .formats.volume import ATTRIBUTE_LONG_NAMES
from .resample import MinMaxStats, ZscoreStats


class DivergedNonFinite(DivergenceError):
    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


# SCG stops once the steepest-descent direction is shorter than this
GRAD_TOL = 1e-10


def logistic(v):
    return 1.0 / (1.0 + np.exp(-v))


@dataclass
class MlpModel:
    """Weights for [n_in] -> tanh[n_hidden] -> logistic[1], biases carried
    as weights from a fixed +1 input in each layer."""

    n_in: int
    n_hidden: int
    w_hidden: np.ndarray   # [n_hidden, n_in + 1], bias last
    w_out: np.ndarray      # [n_hidden + 1], bias last

    @property
    def layer_sizes(self):
        return [self.n_in, self.n_hidden, 1]

    @property
    def weight_count(self) -> int:
        return self.w_hidden.size + self.w_out.size

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.w_hidden.ravel(), self.w_out.ravel()])

    def with_flat(self, flat: np.ndarray) -> "MlpModel":
        nh = self.w_hidden.size
        return MlpModel(
            n_in=self.n_in,
            n_hidden=self.n_hidden,
            w_hidden=flat[:nh].reshape(self.w_hidden.shape).copy(),
            w_out=flat[nh:].copy(),
        )


def init_model(n_in: int, n_hidden: int, seed: int) -> MlpModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    if n_in < 1 or n_hidden < 1:
        raise ConfigError("n_in and n_hidden must be >= 1")
    rng = np.random.default_rng(seed)
    b1 = 1.0 / math.sqrt(n_in + 1)
    b2 = 1.0 / math.sqrt(n_hidden + 1)
    return MlpModel(
        n_in=n_in,
        n_hidden=n_hidden,
        w_hidden=rng.uniform(-b1, b1, size=(n_hidden, n_in + 1)),
        w_out=rng.uniform(-b2, b2, size=n_hidden + 1),
    )


def forward_batch(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if inputs.shape[1] != model.n_in:
        raise ConfigError(f"input width {inputs.shape[1]} != n_in {model.n_in}")
    hidden = inputs @ model.w_hidden[:, :-1].T
    hidden += model.w_hidden[:, -1]
    np.tanh(hidden, out=hidden)
    return logistic(hidden @ model.w_out[:-1] + model.w_out[-1])


def _patterns(model: MlpModel, inputs, targets):
    """The pattern set as float64 arrays, checked against the model."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64)
    if len(targets) == 0:
        raise ConfigError("empty pattern set")
    if inputs.shape[1] != model.n_in:
        raise ConfigError(f"input width {inputs.shape[1]} != n_in {model.n_in}")
    return inputs, targets


def _objective(n_in: int, n_hidden: int, inputs: np.ndarray,
               targets: np.ndarray):
    """Fused average error energy and its backprop gradient on one checked
    pattern set, as a function of the flat weight vector.

    The activations are held unit-major, one row of `n` patterns per hidden
    unit, against a contiguous copy of `inputs.T` made once per pattern set:
    the hidden pre-activation is `W @ inputs.T + b[:, None]` and each bias
    gradient sums one contiguous row.  The returned closure reuses its work
    arrays across calls and returns a new gradient array each time;
    tests/test_mlp.py pins its operation order against an
    expression-by-expression reference.
    """
    n = len(targets)
    nh = n_hidden * (n_in + 1)
    inputs_t = np.ascontiguousarray(inputs.T)
    hidden = np.empty((n_hidden, n))
    delta_hidden = np.empty((n_hidden, n))
    out = np.empty(n)
    err = np.empty(n)
    delta_out = np.empty(n)

    def objective(flat: np.ndarray):
        w_hidden = flat[:nh].reshape(n_hidden, n_in + 1)
        w_out = flat[nh:]
        np.matmul(w_hidden[:, :-1], inputs_t, out=hidden)
        np.add(hidden, w_hidden[:, -1:], out=hidden)
        np.tanh(hidden, out=hidden)
        np.matmul(w_out[:-1], hidden, out=out)
        np.add(out, w_out[-1], out=out)
        np.negative(out, out=out)               # logistic(v) = 1 / (1 + exp(-v))
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        np.divide(1.0, out, out=out)
        np.subtract(targets, out, out=err)
        e = float(np.dot(err, err) / (2.0 * n))

        # d(loss)/d(v2) = -err * out * (1 - out) / n, left to right
        np.negative(err, out=delta_out)
        np.multiply(delta_out, out, out=delta_out)
        np.subtract(1.0, out, out=err)
        np.multiply(delta_out, err, out=delta_out)
        np.divide(delta_out, n, out=delta_out)
        grad = np.empty_like(flat)
        grad[nh:-1] = hidden @ delta_out
        grad[-1] = delta_out.sum()
        np.multiply(w_out[:-1, None], delta_out, out=delta_hidden)
        np.square(hidden, out=hidden)           # 1 - tanh^2
        np.subtract(1.0, hidden, out=hidden)
        np.multiply(delta_hidden, hidden, out=delta_hidden)
        grad_hidden = grad[:nh].reshape(n_hidden, n_in + 1)
        grad_hidden[:, :-1] = delta_hidden @ inputs
        grad_hidden[:, -1] = delta_hidden.sum(axis=1)
        return e, grad

    return objective


def loss(model: MlpModel, inputs, targets) -> float:
    """Average error energy (1/2N) * sum of squared output errors, as the
    training objective computes it."""
    inputs, targets = _patterns(model, inputs, targets)
    objective = _objective(model.n_in, model.n_hidden, inputs, targets)
    return objective(model.flatten())[0]


def gradient(model: MlpModel, inputs, targets) -> np.ndarray:
    """Exact backprop gradient of the average error energy, flattened to
    match MlpModel.flatten()."""
    inputs, targets = _patterns(model, inputs, targets)
    objective = _objective(model.n_in, model.n_hidden, inputs, targets)
    return objective(model.flatten())[1]


@dataclass
class ScgParams:
    max_iters: int
    sigma: float = 1e-4
    lambda1: float = 1e-4
    target_loss: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1e-4:
            raise ConfigError(f"sigma must be in (0, 1e-4], got {self.sigma}")
        if not 0.0 < self.lambda1 <= 1e-4:
            raise ConfigError(f"lambda1 must be in (0, 1e-4], got {self.lambda1}")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be >= 0")


@dataclass
class TrainHistory:
    loss: list = field(default_factory=list)
    lambda_: list = field(default_factory=list)
    comparison: list = field(default_factory=list)   # Delta_k
    accepted: list = field(default_factory=list)
    curvature: list = field(default_factory=list)    # delta_k after repair
    restarted: list = field(default_factory=list)    # direction reset this step
    final_loss: float = math.nan
    iterations: int = 0
    stop_reason: str = ""


def scg_minimize(objective, w0: np.ndarray, params: ScgParams):
    """Scaled conjugate gradient on an arbitrary objective.

    `objective(w)` returns `(loss, gradient)`, the gradient a new array on
    every call.  It is called once at `w0`, then twice per iteration: at
    the curvature probe `w + sigma_k p` (only its gradient is used) and at
    the trial point, whose loss and gradient an accepted step keeps for the
    new `w`; a rejected step wastes only the trial point's gradient.

    Returns (w, TrainHistory).  Raises DivergedNonFinite (history attached)
    if any scalar or iterate goes non-finite.
    """
    history = TrainHistory()
    w = np.asarray(w0, dtype=np.float64).copy()
    n_restart = len(w)
    e_w, g = objective(w)
    # `p` is the conjugate search direction and `r` the steepest-descent
    # direction (the negated gradient); `lam`/`lam_bar` are the scale pair
    # that stands in for an explicit Hessian; `delta_raw` caches the
    # gradient-difference curvature so a rejected step (`success` false)
    # re-scales it without probing again.
    p = r = -g      # no step updates an array in place, so these may alias
    lam, lam_bar = params.lambda1, 0.0
    success = True
    delta_raw = 0.0

    def check_finite(*scalars):
        if not all(math.isfinite(s) for s in scalars):
            history.stop_reason = "diverged"
            raise DivergedNonFinite("non-finite value in SCG state", history)

    if params.max_iters == 0:
        history.final_loss = e_w
        history.stop_reason = "max_iters"
        return w, history
    if float(np.linalg.norm(r)) < GRAD_TOL:
        history.final_loss = e_w
        history.stop_reason = "gradient_zero"
        return w, history

    k = 1
    while True:
        norm_p_sq = float(p @ p)
        if norm_p_sq == 0.0:
            history.stop_reason = "zero_direction"
            break
        if success:
            sigma_k = params.sigma / math.sqrt(norm_p_sq)
            s = (objective(w + sigma_k * p)[1] - g) / sigma_k
            delta_raw = float(p @ s)
        delta = delta_raw + (lam - lam_bar) * norm_p_sq
        if delta <= 0:  # make the effective curvature positive definite
            lam_bar = 2.0 * (lam - delta / norm_p_sq)
            delta = -delta + lam * norm_p_sq
            lam = lam_bar
        mu = float(p @ r)
        if mu == 0.0:
            p = r  # degenerate direction; restart along the gradient
            success = True
            continue
        alpha = mu / delta
        check_finite(delta, mu, alpha)
        w_try = w + alpha * p
        e_try, g_try = objective(w_try)
        comparison = 2.0 * delta * (e_w - e_try) / mu ** 2
        check_finite(e_try, comparison)

        accepted = success = comparison >= 0
        restarted = accepted and k % n_restart == 0
        if accepted:
            w = w_try
            e_w = e_try
            g = g_try
            r_new = -g
            lam_bar = 0.0
            if restarted:
                p = r_new
            else:
                beta = (float(r_new @ r_new) - float(r_new @ r)) / mu
                p = r_new + beta * p
            r = r_new
            if comparison >= 0.75:
                lam = 0.25 * lam
        else:
            lam_bar = lam
        if comparison < 0.25:
            lam = lam + delta * (1.0 - comparison) / norm_p_sq
        check_finite(lam, lam_bar)

        history.loss.append(e_w)
        history.lambda_.append(lam)
        history.comparison.append(comparison)
        history.accepted.append(accepted)
        history.curvature.append(delta)
        history.restarted.append(restarted)

        if float(np.linalg.norm(r)) < GRAD_TOL:
            history.stop_reason = "gradient_zero"
            break
        if e_w <= params.target_loss:
            history.stop_reason = "target_loss"
            break
        if k >= params.max_iters:
            history.stop_reason = "max_iters"
            break
        k += 1

    history.final_loss = e_w
    history.iterations = len(history.loss)
    return w, history


def scg_train(model: MlpModel, inputs, targets, params: ScgParams):
    """Train the model on a pattern set; returns (trained model, history)."""
    inputs, targets = _patterns(model, inputs, targets)
    objective = _objective(model.n_in, model.n_hidden, inputs, targets)
    w, history = scg_minimize(objective, model.flatten(), params)
    return model.with_flat(w), history


@dataclass
class ModelBundle:
    """A trained model plus everything needed to apply it to raw data:
    the pooled z-score stats for the inputs, the min-max band map for the
    target, and the training seed."""

    model: MlpModel
    input_stats: ZscoreStats
    target_stats: MinMaxStats
    seed: int
    attribute_names: list = field(default_factory=lambda: list(ATTRIBUTE_LONG_NAMES))

    def predict(self, raw_inputs: np.ndarray) -> np.ndarray:
        scored = self.input_stats.apply(np.atleast_2d(raw_inputs))
        return self.target_stats.invert(forward_batch(self.model, scored))

    def to_dict(self):
        return {
            "layer_sizes": self.model.layer_sizes,
            "weights": self.model.flatten().tolist(),
            "hidden_activation": "tanh",
            "output_activation": "logistic",
            "input_stats": self.input_stats.to_dict(),
            "target_stats": self.target_stats.to_dict(),
            "seed": self.seed,
            "attribute_names": list(self.attribute_names),
        }

    @classmethod
    def from_dict(cls, d):
        """The bundle `to_dict` wrote.  Every weight and stat must be
        finite, every input std > 0, and data_min < data_max, lo < hi."""
        n_in, n_hidden, n_out = d["layer_sizes"]
        if n_out != 1:
            raise DataError("only single-output models are supported")
        if d.get("hidden_activation", "tanh") != "tanh" or \
                d.get("output_activation", "logistic") != "logistic":
            raise DataError("unsupported activation tags in model file")
        flat = np.asarray(d["weights"], dtype=np.float64)
        template = MlpModel(n_in=n_in, n_hidden=n_hidden,
                            w_hidden=np.zeros((n_hidden, n_in + 1)),
                            w_out=np.zeros(n_hidden + 1))
        if len(flat) != template.weight_count:
            raise DataError(
                f"{len(flat)} weights for layer sizes {d['layer_sizes']}"
            )
        input_stats = ZscoreStats.from_dict(d["input_stats"])
        if not input_stats.mean.shape == input_stats.std.shape == (n_in,):
            raise DataError(
                f"input_stats mean/std of shapes {input_stats.mean.shape}/"
                f"{input_stats.std.shape} for {n_in} inputs"
            )
        target_stats = MinMaxStats.from_dict(d["target_stats"])
        numbers = np.concatenate([flat, input_stats.mean, input_stats.std,
                                  list(target_stats.to_dict().values())])
        if not (np.isfinite(numbers).all() and (input_stats.std > 0).all()
                and target_stats.data_min < target_stats.data_max
                and target_stats.lo < target_stats.hi):
            raise DataError("model weights and stats must be finite, with every "
                            "input std > 0, data_min < data_max and lo < hi")
        names = d.get("attribute_names", list(ATTRIBUTE_LONG_NAMES))
        if not (isinstance(names, list) and len(names) == n_in
                and all(isinstance(name, str) for name in names)):
            raise DataError(f"attribute_names must be a list of {n_in} strings")
        return cls(
            model=template.with_flat(flat),
            input_stats=input_stats,
            target_stats=target_stats,
            seed=int(d.get("seed", 0)),
            attribute_names=names,
        )


def save_model(path, bundle: ModelBundle) -> None:
    with open(path, "w") as fh:
        json.dump(bundle.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ModelBundle:
    with open(path) as fh:
        try:
            return ModelBundle.from_dict(json.load(fh))
        except (ValueError, LookupError, TypeError) as exc:
            raise DataError(f"{path}: not a model file "
                            f"({type(exc).__name__}: {exc})") from None
