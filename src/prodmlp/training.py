"""The training objective, Adam, and the training loop.

Two losses are supported:

* plain least squares,  L(F) = mean |F(x_k) - y_k|^2
* an H^2-type penalty,  L(F) = mean |F - f|^2
                               + lam * mean |lap_h F - lap_h f|^2

where lap_h is the 5-point discrete Laplacian at spacing h.  `objective` is
the one place that composes them: it takes data only (the values y at x, and
for the penalty the stencil centers with the target's lap_h f there) and
returns the terms (l2, laplacian) -- the second present exactly for the "h2"
kind -- together with the exact analytic gradient of their sum.  Each term's
gradient is one weighted sum of network parameter gradients: at x for the
first, at the five stencil points of every center for the second.

The training loop pairs the two terms with different data streams: the least
squares term consumes shuffled minibatches of a fixed uniform sample pool
(full passes without replacement), while the Laplacian term draws minibatches
of stencil centers uniformly from the grid nodes at the loss spacing.  All
streams are keyed by (seed, role), so two architectures trained with the same
seed consume identical pools and batch orders.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._seeds import ROLE_BATCH, ROLE_GRID_BATCH, stream
from .fdgrid import Grid2D, discrete_laplacian, laplacian_stencil
from .metrics import MetricConfig, approximation_report
from .network import (
    Arch,
    Activation,
    NetworkParams,
    _forward_cache,
    _weighted_grad_cached,
    init_params,
    pack_params,
    param_count,
    predictor,
    unpack_params,
)
from .targets import sample_uniform

__all__ = [
    "LossSpec",
    "l2_loss",
    "h2_loss",
    "objective",
    "AdamState",
    "adam_step",
    "TrainConfig",
    "TraceRow",
    "TrainingTrace",
    "TrainResult",
    "TrainingDiverged",
    "train",
    "write_trace_csv",
    "read_trace_csv",
]


@dataclass(frozen=True)
class LossSpec:
    """Which loss to train with.

    kind is "l2" or "h2"; lam and h only matter for "h2".  h must be a Grid2D
    spacing, because the stencil centers are that grid's nodes.  lam = 0 is
    allowed here (it reduces the H^2-type loss to least squares exactly);
    experiment configs require lam > 0 for "h2" runs.
    """

    kind: str
    lam: float = 1e-2
    h: float = 1.0 / 128.0

    def __post_init__(self):
        if self.kind not in ("l2", "h2"):
            raise ValueError(f"loss kind must be 'l2' or 'h2', got {self.kind!r}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        try:
            Grid2D(h=self.h)
        except ValueError as e:
            raise ValueError(f"h must be a grid spacing: {e}")


def l2_loss() -> LossSpec:
    return LossSpec(kind="l2")


def h2_loss(lam: float = LossSpec.lam, h: float = LossSpec.h) -> LossSpec:
    return LossSpec(kind="h2", lam=lam, h=h)


# ---------------------------------------------------------------------------
# the training objective
# ---------------------------------------------------------------------------


def _mismatch(p, act, pts, coeffs, data, weight):
    """One loss term, weight * mean |r|^2, and its exact gradient.

    pts stacks len(coeffs) point sets of len(data) points each, and
    r = sum_s coeffs[s] * F(pts[s]) - data.  r is linear in the network's
    values, so the gradient is one coefficient-weighted sum of network
    gradients at the stacked points.  The forward cache dies with the call,
    so the L2 term's intermediates are freed before the larger stencil pass
    allocates; a smaller per-step peak keeps the allocator from returning
    the heap to the OS (and faulting it back in) every step.
    """
    out, cache = _forward_cache(p, act, pts)
    r = coeffs @ out.reshape(len(coeffs), -1) - data
    coef = (2.0 * weight / r.size) * (coeffs[:, None] * r[None, :])
    grad = _weighted_grad_cached(p, act, pts, coef.reshape(-1), cache)
    return weight * float(np.mean(r * r)), grad


def objective(p: NetworkParams, act: Activation, spec: LossSpec, x: np.ndarray,
              y: np.ndarray, centers: np.ndarray | None = None,
              lap_y: np.ndarray | None = None):
    """Loss terms and the exact gradient of their sum: ((l2, laplacian), grad).

    The least-squares term compares F(x) with the values y (a one-point
    stencil).  For the "h2" kind a second term compares the 5-point
    Laplacian of F at the stencil centers with lap_y, the target's discrete
    Laplacian there, weighted by spec.lam; lam = 0 makes it exactly 0.0 and
    leaves the gradient exactly the L2 one.
    """
    l2, grad = _mismatch(p, act, x, np.ones(1), y, 1.0)
    if spec.kind == "l2":
        return (l2,), grad
    if centers is None or lap_y is None:
        raise ValueError("the h2 objective needs stencil centers and lap_y")
    offsets, coeffs = laplacian_stencil(spec.h)
    pts = (centers[None, :, :] + offsets[:, None, :]).reshape(-1, 2)
    lap, lap_grad = _mismatch(p, act, pts, coeffs, lap_y, spec.lam)
    grad += lap_grad
    return (l2, lap), grad


# ---------------------------------------------------------------------------
# training configuration and Adam
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """The training schedule and Adam's hyperparameters: the one place their
    defaults and checks live."""

    iterations: int = 10_000
    batch_size: int = 2_048
    samples: int = 50_000
    checkpoint_interval: int = 100
    seed: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.samples < self.batch_size:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds sample count {self.samples}"
            )
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class AdamState:
    """Bias-corrected Adam moments; adam_step returns a new state, the inputs
    are never mutated."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float
    beta1: float
    beta2: float
    eps: float

    @classmethod
    def fresh(cls, n_params: int, lr: float = TrainConfig.learning_rate,
              beta1: float = TrainConfig.beta1, beta2: float = TrainConfig.beta2,
              eps: float = TrainConfig.epsilon) -> "AdamState":
        return cls(step=0, m=np.zeros(n_params), v=np.zeros(n_params),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray):
    """One Adam update: returns (advanced state, updated parameter vector).

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with the usual
    bias-corrected first and second moments.  A zero gradient leaves theta
    unchanged.
    """
    if theta.shape != grad.shape or theta.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: theta {theta.shape}, grad {grad.shape}, state {state.m.shape}"
        )
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    theta_new = theta - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return replace(state, step=t, m=m, v=v), theta_new


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    l2_error: float
    h2_error: float
    zygmund_error: float
    seconds: float


@dataclass
class TrainingTrace:
    """Checkpointed error metrics plus the per-iteration training loss.

    rows[k].seconds is wall-clock time since training started; it is the one
    column that is not a pure function of (config, seed).
    """

    rows: list[TraceRow] = field(default_factory=list)
    batch_losses: np.ndarray | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass
class TrainResult:
    params: NetworkParams
    trace: TrainingTrace


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite.

    Carries the iteration at which the non-finite loss appeared and the
    trace recorded up to that point.
    """

    def __init__(self, iteration: int, loss_value: float, trace=None):
        self.iteration = iteration
        self.loss_value = loss_value
        self.trace = trace
        super().__init__(
            f"training diverged at iteration {iteration}: loss = {loss_value!r}"
        )


def _epoch_batches(n: int, batch_size: int, seed: int):
    """Endless minibatch index stream: reshuffle the pool every epoch, then
    hand out consecutive chunks (the final chunk of an epoch may be short).
    Depends only on (n, batch_size, seed), never on the model."""
    rng = stream(seed, ROLE_BATCH)
    while True:
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            yield perm[lo : lo + batch_size]


def train(arch: Arch, act: Activation, target, spec: LossSpec, cfg: TrainConfig,
          metrics: MetricConfig = MetricConfig()) -> TrainResult:
    """Train a network on a target and log checkpointed error metrics.

    Checkpoints are recorded at iteration 0 (the untouched initialization),
    every cfg.checkpoint_interval steps, and at the final iteration.  Raises
    TrainingDiverged as soon as a non-finite training loss appears.
    """
    pool_x, pool_y = sample_uniform(target, cfg.samples, cfg.seed)
    params = init_params(arch, cfg.seed)
    state = AdamState.fresh(param_count(arch), lr=cfg.learning_rate,
                            beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.epsilon)
    batches = _epoch_batches(cfg.samples, cfg.batch_size, cfg.seed)
    if spec.kind == "h2":
        loss_grid = Grid2D(h=spec.h)
        grid_nodes = loss_grid.node_array()
        grid_rng = stream(cfg.seed, ROLE_GRID_BATCH)

    trace = TrainingTrace()
    losses = np.empty(cfg.iterations)
    t0 = time.perf_counter()

    def checkpoint(iteration: int) -> None:
        rep = approximation_report(predictor(params, act), target, metrics)
        trace.rows.append(TraceRow(
            iteration=iteration,
            l2_error=rep.l2_error,
            h2_error=rep.h2_error,
            zygmund_error=rep.zygmund_error,
            seconds=time.perf_counter() - t0,
        ))

    checkpoint(0)
    centers = lap_y = None
    for it in range(1, cfg.iterations + 1):
        idx = next(batches)
        if spec.kind == "h2":
            centers = grid_nodes[grid_rng.integers(0, len(grid_nodes), size=cfg.batch_size)]
            lap_y = discrete_laplacian(target, centers, spec.h)
        terms, g = objective(params, act, spec, pool_x[idx], pool_y[idx], centers, lap_y)
        loss_val = sum(terms)
        if not np.isfinite(loss_val):
            trace.batch_losses = losses[: it - 1]
            raise TrainingDiverged(it, loss_val, trace=trace)
        losses[it - 1] = loss_val
        state, theta = adam_step(state, pack_params(params), g)
        params = unpack_params(arch, theta)
        if it % cfg.checkpoint_interval == 0 or it == cfg.iterations:
            checkpoint(it)

    trace.batch_losses = losses
    return TrainResult(params=params, trace=trace)


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

TRACE_HEADER = "iter,l2_error,h2_error,zygmund_error,seconds"


def write_trace_csv(trace: TrainingTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace.rows:
            fh.write(
                f"{r.iteration},{r.l2_error!r},{r.h2_error!r},"
                f"{r.zygmund_error!r},{r.seconds!r}\n"
            )


def read_trace_csv(path) -> TrainingTrace:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace CSV header {header!r} in {path}")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            it, l2, h2, zy, sec = line.split(",")
            rows.append(TraceRow(int(it), float(l2), float(h2), float(zy), float(sec)))
    return TrainingTrace(rows=rows)
