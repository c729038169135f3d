"""The training objective, Adam, and the training loop.

Two losses are supported:

* plain least squares,  L(F) = mean |F(x_k) - y_k|^2
* an H^2-type penalty,  L(F) = mean |F - f|^2
                               + lam * mean |lap_h F - lap_h f|^2

where lap_h is the 5-point discrete Laplacian at spacing h.  `objective` is
the one place that composes them: it takes data only (the values y at x, and
for the penalty stencil centers, nodes of the loss grid, with the target's
lap_h f there) and returns the terms (l2, laplacian) -- the second present
exactly for the "h2" kind -- with the exact gradient of their sum.  Product
blocks take the Laplacian term as the 5-point stencil of one product table,
F - c on the loss grid widened by one node, built from per-axis tables of
sigma; ridge units run the network at the five stencil points of every center,
in cache-sized blocks of whole centers.

The training loop pairs the two terms with different data streams: the least
squares term consumes shuffled minibatches of a fixed uniform sample pool
(full passes without replacement), while the Laplacian term draws centers
uniformly from the loss grid's nodes and reads lap_h f from one laplacian_field
per run.  Streams are keyed by (seed, role), so two architectures trained with
the same seed consume identical pools and batch orders.  Steps reuse per-run
work arrays; checkpoints read network.grid_values on the widened metric grid.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._seeds import ROLE_BATCH, ROLE_GRID_BATCH, stream
from .fdgrid import Grid2D, _atomic_text, _line_error, _read_table, laplacian_field
from .metrics import MetricConfig, MetricReport, approximation_report, sample_widened, widened_axis
from .network import (
    Arch,
    Activation,
    NetworkParams,
    _as_batch,
    _features,
    _laplacian_mismatch,
    _mismatch,
    _values_vjp,
    grid_values,
    init_params,
    pack_params,
    param_count,
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
    spacing: the stencil centers are that grid's nodes, and train takes the
    target's lap_h f on all of them once per run.  lam = 0 reduces the H^2-type
    loss to least squares exactly; experiment configs require lam > 0 for "h2".
    """

    kind: str
    lam: float = 1e-2
    h: float = 1.0 / 128.0

    def __post_init__(self):
        if self.kind not in ("l2", "h2"):
            raise ValueError(f"loss kind must be 'l2' or 'h2', got {self.kind!r}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be >= 0 and finite, got {self.lam}")
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


def objective(p: NetworkParams, act: Activation, spec: LossSpec, x: np.ndarray,
              y: np.ndarray, centers: np.ndarray | None = None,
              lap_y: np.ndarray | None = None, buffers: dict | None = None):
    """Loss terms and the exact gradient of their sum: ((l2, laplacian), grad).

    The least-squares term compares F(x) with the values y (a one-point
    stencil).  For the "h2" kind a second term compares the 5-point
    Laplacian of F at the stencil centers, nodes of Grid2D(spec.h), with lap_y,
    the target's discrete Laplacian there, weighted by spec.lam; lam = 0 makes
    it exactly 0.0 and leaves the gradient exactly the L2 one.
    An empty batch or empty centers, or y or lap_y of another length than
    x or centers, raise a ValueError that names the argument.
    buffers, a dict that train keeps for a run, holds the network's work
    arrays across calls; with None they are fresh.  Results are bitwise equal.
    """
    xb, _ = _as_batch(x, p.w.shape[1])
    if not len(xb):
        raise ValueError(f"x must hold at least one point, got shape {xb.shape}")
    if np.shape(y) != (len(xb),):
        raise ValueError(f"y must hold one value per point of x, shape ({len(xb)},), "
                         f"got {np.shape(y)}")
    nodes = None
    if spec.kind == "h2":
        if centers is None or lap_y is None:
            raise ValueError("the h2 objective needs stencil centers and lap_y")
        q = (np.asarray(centers, dtype=float) + 1.0) / spec.h
        if (q.ndim != 2 or q.shape[1] != 2 or not len(q)
                or np.any((q != np.round(q)) | (q < 0) | (q > 2 / spec.h))):
            raise ValueError(f"centers must be a non-empty (k, 2) array of nodes of "
                             f"Grid2D(h={spec.h})")
        if np.shape(lap_y) != (len(q),):
            raise ValueError(f"lap_y must hold one value per center, shape ({len(q)},), "
                             f"got {np.shape(lap_y)}")
        nodes = q.astype(np.intp)
    return _objective(p, act, spec, _features(p, act, xb, buffers), y, nodes, lap_y, buffers)


def _objective(p, act, spec, feats, y, nodes, lap_y, buffers):
    """objective from the batch's _features and the centers' node index pairs,
    which train gathers from arrays it builds once per run."""
    l2, grad = _mismatch(*_values_vjp(p, act, feats, buffers), y, 1.0)
    if spec.kind == "l2":
        return (l2,), grad
    # the l2 term's vjp has run, so the Laplacian term may reuse the buffer
    # set's arrays: "wb" and "z" for product blocks; for ridge units all that
    # the l2 term used, each centre block writing the leading rows of the
    # per-row ones ("phi" or "x1", "h" or "z", "s" and "t", and "C")
    lap, g = _laplacian_mismatch(p, act, spec.h, nodes, lap_y, spec.lam, buffers)
    grad += g
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
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


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


def _adam_update(state: AdamState, t: int, theta: np.ndarray, grad: np.ndarray) -> None:
    """Adam's step t in place, with state's hyperparameters: the moments state.m
    and state.v, then theta.  The one implementation of the update; adam_step
    applies it to copies."""
    m, v = state.m, state.v
    tmp = np.multiply(grad, 1.0 - state.beta1)
    m *= state.beta1
    m += tmp
    np.multiply(grad, 1.0 - state.beta2, out=tmp)
    tmp *= grad
    v *= state.beta2
    v += tmp
    den = np.divide(v, 1.0 - state.beta2**t, out=tmp)           # v_hat
    np.sqrt(den, out=den)
    den += state.eps
    step = np.divide(m, 1.0 - state.beta1**t)                   # m_hat
    step *= state.lr
    step /= den
    theta -= step


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
    new = replace(state, step=state.step + 1, m=np.array(state.m, dtype=float),
                  v=np.array(state.v, dtype=float))
    theta = np.array(theta, dtype=float)
    _adam_update(new, new.step, theta, grad)
    return new, theta


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
    """The final parameters, the trace, final_error, the last checkpoint's F - f
    on the widened metric grid (the final parameters' error), and final_report,
    its approximation_report."""

    params: NetworkParams
    trace: TrainingTrace
    final_error: np.ndarray
    final_report: MetricReport


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
    theta = pack_params(init_params(arch, cfg.seed))
    params = unpack_params(arch, theta)     # w, b and alpha are views of theta
    state = AdamState.fresh(param_count(arch), lr=cfg.learning_rate,
                            beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.epsilon)
    batches = _epoch_batches(cfg.samples, cfg.batch_size, cfg.seed)
    # a batch's features depend on its points alone: build them once for the
    # pool, and gather each batch's rows and values into run arrays
    pool_feats = _features(params, act, pool_x)
    feats = np.empty((*pool_feats.shape[:-2], cfg.batch_size, pool_feats.shape[-1]))
    ys = np.empty(cfg.batch_size)
    if spec.kind == "h2":
        loss_grid = Grid2D(h=spec.h)
        side = loss_grid.nodes_per_axis
        grid_lap = laplacian_field(target, loss_grid).values.ravel()
        grid_rng = stream(cfg.seed, ROLE_GRID_BATCH)

    trace = TrainingTrace()
    losses = np.empty(cfg.iterations)
    buffers = {}
    # the target is fixed, so its values on the widened metric grid are too
    axis = widened_axis(metrics)
    target_values = sample_widened(target, metrics)
    t0 = time.perf_counter()

    def checkpoint(iteration: int) -> tuple[np.ndarray, MetricReport]:
        err = grid_values(params, act, axis) - target_values
        rep = approximation_report(err, metrics)
        trace.rows.append(TraceRow(
            iteration=iteration,
            l2_error=rep.l2_error,
            h2_error=rep.h2_error,
            zygmund_error=rep.zygmund_error,
            seconds=time.perf_counter() - t0,
        ))
        return err, rep

    err, rep = checkpoint(0)
    nodes = lap_y = None
    for it in range(1, cfg.iterations + 1):
        idx = next(batches)
        fb, yb = feats[..., : len(idx), :], ys[: len(idx)]
        # idx is in range, and mode="clip" spares take's buffered bounds check
        np.take(pool_feats, idx, axis=-2, out=fb, mode="clip")
        np.take(pool_y, idx, out=yb, mode="clip")
        if spec.kind == "h2":
            # flat node indices in node_array's order, split into index pairs
            k = grid_rng.integers(0, side * side, size=cfg.batch_size)
            nodes, lap_y = np.stack(divmod(k, side), axis=-1), grid_lap[k]
        terms, g = _objective(params, act, spec, fb, yb, nodes, lap_y, buffers)
        loss_val = sum(terms)
        if not np.isfinite(loss_val):
            trace.batch_losses = losses[: it - 1]
            raise TrainingDiverged(it, loss_val, trace=trace)
        losses[it - 1] = loss_val
        _adam_update(state, it, theta, g)
        params.c = float(theta[-1])         # the one field that is not a view
        if it % cfg.checkpoint_interval == 0 or it == cfg.iterations:
            err, rep = checkpoint(it)

    trace.batch_losses = losses
    return TrainResult(params=params, trace=trace, final_error=err, final_report=rep)


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

TRACE_HEADER = "iter,l2_error,h2_error,zygmund_error,seconds"


def write_trace_csv(trace: TrainingTrace, path) -> None:
    with _atomic_text(path) as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace.rows:
            fh.write(
                f"{r.iteration},{r.l2_error!r},{r.h2_error!r},"
                f"{r.zygmund_error!r},{r.seconds!r}\n"
            )


def read_trace_csv(path) -> TrainingTrace:
    table = _read_table(path, TRACE_HEADER, 5)
    it = table[:, 0]
    bad = np.flatnonzero(np.isinf(it) | (it != np.trunc(it)))
    if bad.size:
        raise _line_error(path, 5, bad[0], "has no integer iteration")
    return TrainingTrace(rows=[TraceRow(int(k), *rest) for k, *rest in table.tolist()])
