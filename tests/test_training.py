"""Losses, Adam, the training loop, trace CSV."""

from functools import partial

import numpy as np
import pytest

from helpers import fd_gradient, random_params, relative_error, traced_peak
from prodmlp import network
from prodmlp import (
    GAUSSIAN_BUMP,
    TANH,
    AdamState,
    Grid2D,
    LossSpec,
    MetricConfig,
    MlpArch,
    MmlpArch,
    TrainConfig,
    TrainingDiverged,
    ZygmundSpec,
    adam_step,
    approximation_report,
    forward,
    grid_values,
    h2_loss,
    init_params,
    l2_loss,
    laplacian_field,
    objective,
    pack_params,
    read_trace_csv,
    sample_uniform,
    sample_widened,
    target_by_name,
    train,
    unpack_params,
    widened_axis,
    write_trace_csv,
)
from prodmlp._seeds import ROLE_GRID_BATCH, stream
from prodmlp.training import TRACE_HEADER, _epoch_batches

CONE = target_by_name("cone")
CIRCLE = target_by_name("circle")

SMALL_METRICS = MetricConfig(grid=Grid2D(h=1.0 / 8.0), zygmund=ZygmundSpec(k_max=2))


# ---------------------------------------------------------------------------
# loss specs
# ---------------------------------------------------------------------------


def test_loss_spec_validation():
    assert l2_loss().kind == "l2"
    spec = h2_loss()
    assert spec.kind == "h2" and spec.lam == 1e-2 and spec.h == 1.0 / 128.0
    with pytest.raises(ValueError):
        LossSpec(kind="h3")
    for lam in (-0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^lam "):
            LossSpec(kind="h2", lam=lam)
    for h in (0.0, 0.01):  # the stencil centers are nodes of Grid2D(h)
        with pytest.raises(ValueError, match="grid spacing"):
            LossSpec(kind="h2", h=h)
    # lam = 0 is legal at this level: it reduces the penalty to nothing
    LossSpec(kind="h2", lam=0.0)


def _data(target, x, spec, rng):
    """The objective's data for a target: values at x, and len(x) random nodes
    of the loss grid as stencil centers with the target's discrete Laplacian
    there, read off laplacian_field as train reads it."""
    grid = Grid2D(spec.h)
    k = rng.integers(0, grid.nodes_per_axis**2, size=len(x))
    return target(x), grid.node_array()[k], laplacian_field(target, grid).values.ravel()[k]


def test_loss_l2_matches_loop_oracle():
    rng = np.random.default_rng(0)
    p = random_params(MmlpArch(5), rng)
    x = rng.uniform(-1, 1, size=(13, 2))
    y = rng.normal(size=13)
    total = 0.0
    for k in range(13):
        total += (forward(p, GAUSSIAN_BUMP, x[k]) - y[k]) ** 2
    want = total / 13
    # l2_loss() carries the default lam; the l2 kind still has one term
    terms, _ = objective(p, GAUSSIAN_BUMP, l2_loss(), x, y)
    assert len(terms) == 1
    assert abs(terms[0] - want) < 1e-13


def test_loss_h2_reduces_to_l2_at_lambda_zero():
    rng = np.random.default_rng(1)
    for arch in (MlpArch(6), MmlpArch(5)):
        p = random_params(arch, rng)
        x = rng.uniform(-1, 1, size=(9, 2))
        spec = LossSpec(kind="h2", lam=0.0)
        terms, g = objective(p, TANH, spec, x, *_data(CONE, x, spec, rng))
        want, want_g = objective(p, TANH, l2_loss(), x, CONE(x))
        assert terms == (want[0], 0.0)
        assert sum(terms) == sum(want)
        assert np.array_equal(g, want_g)


def test_loss_h2_matches_loop_oracle():
    # rebuild both terms with explicit loops and a hand-written stencil
    rng = np.random.default_rng(2)
    p = random_params(MmlpArch(4), rng)
    x = rng.uniform(-0.9, 0.9, size=(7, 2))
    spec = LossSpec(kind="h2", lam=0.03, h=1.0 / 16.0)
    F = partial(forward, p, GAUSSIAN_BUMP)
    y, centers, lap_y = _data(CONE, x, spec, rng)

    def lap(fn, pt):
        e1 = np.array([spec.h, 0.0])
        e2 = np.array([0.0, spec.h])
        return (fn(pt + e1) + fn(pt - e1) + fn(pt + e2) + fn(pt - e2)
                - 4.0 * fn(pt)) / spec.h**2

    sq = np.mean([(F(pt) - float(CONE(pt))) ** 2 for pt in x])
    pen = np.mean([(lap(F, pt) - lap(lambda q: float(CONE(q)), pt)) ** 2 for pt in centers])
    want = sq + spec.lam * pen
    terms, _ = objective(p, GAUSSIAN_BUMP, spec, x, y, centers, lap_y)
    assert abs(sum(terms) - want) < 1e-11
    with pytest.raises(ValueError, match="centers"):
        objective(p, GAUSSIAN_BUMP, spec, x, CONE(x))


@pytest.mark.parametrize("arch", [MlpArch(3), MmlpArch(3)])
def test_h2_centers_must_be_loss_grid_nodes(arch):
    p = random_params(arch, np.random.default_rng(5))
    spec = h2_loss(h=1.0 / 8.0)
    x = np.zeros((2, 2))
    node = np.array([[-1.0, 0.25]])
    objective(p, TANH, spec, x, CONE(x), node, np.zeros(1))
    off_grid = (node + [[spec.h / 3, 0.0]], node - [[spec.h, 0.0]], node + [[2.25, 0.0]],
                np.array([[np.nan, 0.0]]), np.zeros((1, 3)), np.zeros(2))
    for centers in off_grid:
        with pytest.raises(ValueError, match="centers"):
            objective(p, TANH, spec, x, CONE(x), centers, np.zeros(len(centers)))


# each would run: an empty batch or empty centers give a NaN loss, and a short
# y or lap_y broadcasts to a wrong one
MALFORMED = {
    "empty-x": ("x", lambda x, y, c, l: (x[:0], y[:0], c, l)),
    "scalar-y": ("y", lambda x, y, c, l: (x, y[0], c, l)),
    "length-1-y": ("y", lambda x, y, c, l: (x, y[:1], c, l)),
    "empty-centers": ("centers", lambda x, y, c, l: (x, y, c[:0], l[:0])),
    "length-1-lap_y": ("lap_y", lambda x, y, c, l: (x, y, c, l[:1])),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("arch", [MlpArch(3), MmlpArch(3)], ids=["mlp", "mmlp"])
def test_objective_refuses_malformed_data(arch, case):
    rng = np.random.default_rng(6)
    p = random_params(arch, rng)
    spec = h2_loss(h=1.0 / 8.0)
    x = rng.uniform(-1.0, 1.0, size=(4, 2))
    data = (x, *_data(CONE, x, spec, rng))
    objective(p, TANH, spec, *data)
    name, malform = MALFORMED[case]
    with pytest.raises(ValueError, match=f"^{name} "):
        objective(p, TANH, spec, *malform(*data))
    if name in ("x", "y"):
        with pytest.raises(ValueError, match=f"^{name} "):
            objective(p, TANH, l2_loss(), *malform(*data)[:2])


def test_loss_penalty_scales_linearly_in_lambda():
    rng = np.random.default_rng(3)
    p = random_params(MlpArch(5), rng)
    x = rng.uniform(-1, 1, size=(8, 2))
    data = _data(CIRCLE, x, LossSpec(kind="h2"), rng)
    base, lo, hi = (sum(objective(p, TANH, LossSpec(kind="h2", lam=lam), x, *data)[0])
                    for lam in (0.0, 0.01, 0.03))
    assert abs((hi - base) - 3.0 * (lo - base)) < 1e-12


def test_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    tol = 1e-6
    for arch in (MlpArch(4), MmlpArch(4)):
        for act in (TANH, GAUSSIAN_BUMP):
            for spec in (l2_loss(), h2_loss(lam=0.05, h=1.0 / 16.0)):
                worst = 0.0
                for _ in range(10):
                    p = random_params(arch, rng, scale=0.8)
                    x = rng.uniform(-1, 1, size=(6, 2))
                    data = _data(CONE, x, spec, rng)
                    _, g = objective(p, act, spec, x, *data)
                    # one value function for every kind: the sum of the terms
                    fd = fd_gradient(
                        lambda v: sum(objective(unpack_params(arch, v), act, spec, x, *data)[0]),
                        pack_params(p))
                    worst = max(worst, relative_error(g, fd))
                assert worst < tol, f"{arch} {act.name} {spec.kind}: {worst}"


@pytest.mark.parametrize("units", [1, 7, 40, 300])
@pytest.mark.parametrize("act", [TANH, GAUSSIAN_BUMP], ids=lambda a: a.name)
def test_ridge_curvature_term_does_not_depend_on_its_centre_blocks(act, units, monkeypatch):
    # the same h2 objective over 11 centres with blocks of all of them, of one
    # each, and of four (a short last block of three), in a buffer set whose
    # arrays outlive each block: the blocks only reorder sums and change the
    # row counts of the GEMMs, so loss and gradient agree to 1e-10 of the loss
    # and of the gradient's largest entry (about 1e-13 seen: F's rounding
    # times the stencil's 8 / h^2 = 2048), while a dropped centre or a stale
    # row moves them by order 1
    rng = np.random.default_rng(units)
    p = random_params(MlpArch(units), rng)
    spec = h2_loss(lam=0.5, h=1.0 / 16.0)
    x = rng.uniform(-1.0, 1.0, size=(11, 2))
    data = _data(CONE, x, spec, rng)
    runs = []
    for centres in (11, 1, 4):
        monkeypatch.setattr(network, "_BLOCK_BYTES", 8 * 5 * units * centres)
        runs.append(objective(p, act, spec, x, *data, buffers={}))
    (want, want_g), *others = runs
    for terms, g in others:
        assert terms[0] == want[0]
        assert abs(terms[1] - want[1]) <= 1e-10 * want[1]
        assert np.abs(g - want_g).max() <= 1e-10 * np.abs(want_g).max()


@pytest.mark.parametrize("act", [TANH, GAUSSIAN_BUMP], ids=lambda a: a.name)
def test_ridge_h2_objective_memory_is_bounded_by_one_centre_block(act):
    # mlp320 at batch 2048 and h = 1/128, with fresh and with reused arrays:
    # the peak is the l2 term's (batch, units) tables, h for the gaussian and
    # z, sigma and sigma' otherwise, plus as many centre blocks of at most
    # _BLOCK_BYTES and 1 MiB, not a table of all 5 * 2048 stencil points
    batch, units, spec = 2048, 320, h2_loss()
    rng = np.random.default_rng(8)
    p = init_params(MlpArch(units), 0)
    x = rng.uniform(-1.0, 1.0, size=(batch, 2))
    data = _data(CONE, x, spec, rng)
    tables = 1 if act is GAUSSIAN_BUMP else 3
    bound = tables * (8 * batch * units + network._BLOCK_BYTES) + 2**20
    for buffers in (None, {}):
        _, peak = traced_peak(objective, p, act, spec, x, *data, buffers=buffers)
        assert peak <= bound, f"{peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_frozen_value():
    # with m = v = 0 the bias corrections cancel and the first update is
    # exactly -lr * g / (|g| + eps); for g = 3, lr = 1e-3, eps = 1e-8 that is
    # -0.0009999999966666666 (mpmath)
    state = AdamState.fresh(1)
    theta = np.zeros(1)
    new_state, theta1 = adam_step(state, theta, np.array([3.0]))
    assert abs(theta1[0] - (-0.0009999999966666666)) < 1e-14
    assert new_state.step == 1


def test_adam_two_steps_match_textbook_recurrence():
    g1, g2 = 0.7, -1.3
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = AdamState.fresh(1, lr=lr, beta1=b1, beta2=b2, eps=eps)
    theta = np.array([0.25])
    state, theta = adam_step(state, theta, np.array([g1]))
    state, theta = adam_step(state, theta, np.array([g2]))

    # plain-scalar rewrite of the recurrence
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    t1 = 0.25 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    t2 = t1 - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    assert abs(theta[0] - t2) < 1e-15
    assert state.step == 2


def test_adam_zero_gradient_is_a_no_op():
    state = AdamState.fresh(3)
    theta = np.array([1.0, -2.0, 0.5])
    _, theta1 = adam_step(state, theta, np.zeros(3))
    assert np.array_equal(theta1, theta)


def test_adam_does_not_mutate_inputs():
    state = AdamState.fresh(2)
    theta = np.array([1.0, 2.0])
    theta_copy = theta.copy()
    m_before, v_before = state.m.copy(), state.v.copy()
    new_state, _ = adam_step(state, theta, np.array([0.3, -0.4]))
    assert np.array_equal(theta, theta_copy)
    assert np.array_equal(state.m, m_before) and np.array_equal(state.v, v_before)
    assert new_state is not state


def test_adam_shape_check():
    state = AdamState.fresh(2)
    with pytest.raises(ValueError, match="shape mismatch"):
        adam_step(state, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_config_validation():
    TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="exceeds"):
        TrainConfig(batch_size=100, samples=50)
    with pytest.raises(ValueError):
        TrainConfig(checkpoint_interval=0)
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    # an infinite learning rate would surface as a NaN divergence, an infinite
    # epsilon would freeze theta
    for bad in ({"learning_rate": 0.0}, {"learning_rate": np.inf}, {"learning_rate": np.nan},
                {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.5}, {"epsilon": 0.0},
                {"epsilon": -1e-8}, {"epsilon": np.inf}, {"epsilon": np.nan}):
        with pytest.raises(ValueError, match="^" + next(iter(bad))):
            TrainConfig(**bad)


def test_epoch_batches_partition_each_epoch():
    gen = _epoch_batches(10, 4, seed=0)
    epoch = [next(gen) for _ in range(3)]  # 4 + 4 + 2
    assert [len(b) for b in epoch] == [4, 4, 2]
    assert sorted(np.concatenate(epoch)) == list(range(10))
    # next epoch is a fresh permutation of the same indices
    epoch2 = [next(gen) for _ in range(3)]
    assert sorted(np.concatenate(epoch2)) == list(range(10))
    assert not all(np.array_equal(a, b) for a, b in zip(epoch, epoch2))


def test_epoch_batches_deterministic():
    a = _epoch_batches(33, 8, seed=5)
    b = _epoch_batches(33, 8, seed=5)
    for _ in range(9):
        assert np.array_equal(next(a), next(b))


def test_train_checkpoint_schedule_and_shapes():
    cfg = TrainConfig(iterations=7, batch_size=8, samples=32, checkpoint_interval=3, seed=0)
    res = train(MlpArch(4), TANH, CONE, l2_loss(), cfg, metrics=SMALL_METRICS)
    assert [r.iteration for r in res.trace.rows] == [0, 3, 6, 7]
    assert res.trace.batch_losses.shape == (7,)
    assert np.all(np.isfinite(res.trace.batch_losses))
    secs = res.trace.column("seconds")
    assert secs[0] >= 0 and np.all(np.diff(secs) >= 0)
    # final checkpoint is not duplicated when it falls on the interval
    cfg2 = TrainConfig(iterations=6, batch_size=8, samples=32, checkpoint_interval=3, seed=0)
    res2 = train(MlpArch(4), TANH, CONE, l2_loss(), cfg2, metrics=SMALL_METRICS)
    assert [r.iteration for r in res2.trace.rows] == [0, 3, 6]


def test_train_initial_checkpoint_is_the_untrained_network():
    cfg = TrainConfig(iterations=2, batch_size=4, samples=8, seed=7)
    res = train(MmlpArch(3), GAUSSIAN_BUMP, CIRCLE, l2_loss(), cfg, metrics=SMALL_METRICS)
    axis = widened_axis(SMALL_METRICS)
    err = (grid_values(init_params(MmlpArch(3), 7), GAUSSIAN_BUMP, axis)
           - sample_widened(CIRCLE, SMALL_METRICS))
    rep = approximation_report(err, SMALL_METRICS)
    first = res.trace.rows[0]
    assert first.l2_error == rep.l2_error
    assert first.h2_error == rep.h2_error
    assert first.zygmund_error == rep.zygmund_error


def test_train_final_error_is_the_final_parameters_error():
    # the final summary reads final_error in place of evaluating the network again
    cfg = TrainConfig(iterations=5, batch_size=4, samples=8, checkpoint_interval=2, seed=3)
    for arch in (MlpArch(4), MmlpArch(3)):
        res = train(arch, GAUSSIAN_BUMP, CONE, h2_loss(h=1.0 / 16.0), cfg, metrics=SMALL_METRICS)
        axis = widened_axis(SMALL_METRICS)
        err = (grid_values(res.params, GAUSSIAN_BUMP, axis)
               - sample_widened(CONE, SMALL_METRICS))
        assert np.array_equal(res.final_error, err)
        assert res.trace.rows[-1].l2_error == approximation_report(err, SMALL_METRICS).l2_error


def test_train_replay_is_bitwise_identical():
    cfg = TrainConfig(iterations=40, batch_size=16, samples=64, checkpoint_interval=20, seed=2)
    runs = [train(MmlpArch(6), GAUSSIAN_BUMP, CONE, h2_loss(h=1.0 / 16.0), cfg,
                  metrics=SMALL_METRICS) for _ in range(2)]
    assert np.array_equal(pack_params(runs[0].params), pack_params(runs[1].params))
    assert np.array_equal(runs[0].trace.batch_losses, runs[1].trace.batch_losses)
    for a, b in zip(runs[0].trace.rows, runs[1].trace.rows):
        assert (a.iteration, a.l2_error, a.h2_error, a.zygmund_error) == \
               (b.iteration, b.l2_error, b.h2_error, b.zygmund_error)


def reference_train(arch, act, target, spec, cfg, metrics):
    """train's loop written from the public objective and adam_step, on the same
    sample pool, batch stream and grid-centre stream: the final parameter vector,
    the batch losses and the deterministic trace columns."""
    pool_x, pool_y = sample_uniform(target, cfg.samples, cfg.seed)
    theta = pack_params(init_params(arch, cfg.seed))
    state = AdamState.fresh(theta.size, lr=cfg.learning_rate, beta1=cfg.beta1,
                            beta2=cfg.beta2, eps=cfg.epsilon)
    batches = _epoch_batches(cfg.samples, cfg.batch_size, cfg.seed)
    if spec.kind == "h2":
        grid = Grid2D(spec.h)
        nodes, lap = grid.node_array(), laplacian_field(target, grid).values.ravel()
        grid_rng = stream(cfg.seed, ROLE_GRID_BATCH)
    axis, target_values = widened_axis(metrics), sample_widened(target, metrics)
    losses, rows = [], []

    def checkpoint(it):
        err = grid_values(unpack_params(arch, theta), act, axis) - target_values
        rep = approximation_report(err, metrics)
        rows.append((it, rep.l2_error, rep.h2_error, rep.zygmund_error))

    checkpoint(0)
    for it in range(1, cfg.iterations + 1):
        idx = next(batches)
        data = ()
        if spec.kind == "h2":
            k = grid_rng.integers(0, len(nodes), size=cfg.batch_size)
            data = (nodes[k], lap[k])
        terms, grad = objective(unpack_params(arch, theta), act, spec, pool_x[idx],
                                pool_y[idx], *data)
        losses.append(sum(terms))
        state, theta = adam_step(state, theta, grad)
        if it % cfg.checkpoint_interval == 0 or it == cfg.iterations:
            checkpoint(it)
    return theta, np.array(losses), rows


@pytest.mark.parametrize("spec", [l2_loss(), h2_loss(h=1.0 / 16.0)], ids=["l2", "h2"])
@pytest.mark.parametrize("arch", [MlpArch(5), MmlpArch(4)], ids=["mlp", "mmlp"])
@pytest.mark.parametrize("act", [GAUSSIAN_BUMP, TANH], ids=["gaussian", "tanh"])
def test_train_matches_the_reference_loop_bitwise(act, arch, spec):
    # 70 samples in batches of 16: every epoch ends with a short batch of 6
    cfg = TrainConfig(iterations=25, batch_size=16, samples=70, checkpoint_interval=10, seed=3)
    result = train(arch, act, CONE, spec, cfg, metrics=SMALL_METRICS)
    theta, losses, rows = reference_train(arch, act, CONE, spec, cfg, SMALL_METRICS)
    assert np.array_equal(pack_params(result.params), theta)
    assert np.array_equal(result.trace.batch_losses, losses)
    assert [(r.iteration, r.l2_error, r.h2_error, r.zygmund_error)
            for r in result.trace.rows] == rows


def test_train_seed_changes_the_outcome():
    mk = lambda s: train(MlpArch(4), TANH, CONE, l2_loss(),
                         TrainConfig(iterations=10, batch_size=8, samples=32, seed=s),
                         metrics=SMALL_METRICS)
    assert not np.array_equal(pack_params(mk(0).params), pack_params(mk(1).params))


def test_train_shared_seed_shares_the_data_stream():
    # fair comparison: both architectures see the same sample pool, a pure
    # function of the seed
    pts_a, _ = sample_uniform(CONE, 64, seed=2)
    pts_b, _ = sample_uniform(CIRCLE, 64, seed=2)
    assert np.array_equal(pts_a, pts_b)


def test_train_reduces_the_loss():
    cfg = TrainConfig(iterations=400, batch_size=64, samples=512, checkpoint_interval=100,
                      seed=0, learning_rate=3e-3)
    res = train(MmlpArch(12), GAUSSIAN_BUMP, CONE, l2_loss(), cfg, metrics=SMALL_METRICS)
    l2 = res.trace.column("l2_error")
    assert l2[-1] < 0.5 * l2[0]


def test_training_divergence_raises_with_partial_trace():
    cfg = TrainConfig(iterations=5, batch_size=8, samples=16, seed=0, learning_rate=1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train(MmlpArch(4), GAUSSIAN_BUMP, CONE, l2_loss(), cfg, metrics=SMALL_METRICS)
    err = exc.value
    assert err.iteration == 2
    assert not np.isfinite(err.loss_value)
    assert err.trace is not None and [r.iteration for r in err.trace.rows] == [0]
    assert err.trace.batch_losses.shape == (1,)


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    cfg = TrainConfig(iterations=9, batch_size=8, samples=16, checkpoint_interval=4, seed=1)
    res = train(MlpArch(3), TANH, CONE, l2_loss(), cfg, metrics=SMALL_METRICS)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER == "iter,l2_error,h2_error,zygmund_error,seconds"
    assert len(lines) == 1 + len(res.trace.rows)
    back = read_trace_csv(path)
    for a, b in zip(res.trace.rows, back.rows):
        # repr round trip preserves every double exactly
        assert (a.iteration, a.l2_error, a.h2_error, a.zygmund_error, a.seconds) == \
               (b.iteration, b.l2_error, b.h2_error, b.zygmund_error, b.seconds)


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("iteration,loss\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


@pytest.mark.parametrize("row", ["1.5,1.0,1.0,1.0,0.5", "inf,1.0,1.0,1.0,0.5", "3,1.0,1.0,1.0"],
                         ids=["fractional-iteration", "infinite-iteration", "four-fields"])
def test_trace_csv_refuses_a_bad_row_naming_its_line(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"{TRACE_HEADER}\n0,1.0,1.0,1.0,0.0\n\n{row}\n")
    with pytest.raises(ValueError, match="line 4:"):
        read_trace_csv(path)
