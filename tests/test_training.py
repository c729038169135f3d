"""Losses, Adam, the training loop, trace CSV."""

import numpy as np
import pytest

from helpers import fd_gradient, random_params, relative_error
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
    discrete_laplacian,
    forward,
    h2_loss,
    init_params,
    l2_loss,
    objective,
    pack_params,
    predictor,
    read_trace_csv,
    sample_uniform,
    target_by_name,
    train,
    unpack_params,
    write_trace_csv,
)
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
    with pytest.raises(ValueError):
        LossSpec(kind="h2", lam=-0.1)
    for h in (0.0, 0.01):  # the stencil centers are nodes of Grid2D(h)
        with pytest.raises(ValueError, match="grid spacing"):
            LossSpec(kind="h2", h=h)
    # lam = 0 is legal at this level: it reduces the penalty to nothing
    LossSpec(kind="h2", lam=0.0)


def _data(target, x, spec):
    """The objective's data for a target: values at x, and x as stencil
    centers with the target's discrete Laplacian there."""
    return target(x), x, discrete_laplacian(target, x, spec.h)


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
    p = random_params(MlpArch(6), rng)
    x = rng.uniform(-1, 1, size=(9, 2))
    spec = LossSpec(kind="h2", lam=0.0)
    terms, g = objective(p, TANH, spec, x, *_data(CONE, x, spec))
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
    F = predictor(p, GAUSSIAN_BUMP)

    def lap(fn, pt):
        e1 = np.array([spec.h, 0.0])
        e2 = np.array([0.0, spec.h])
        return (fn(pt + e1) + fn(pt - e1) + fn(pt + e2) + fn(pt - e2)
                - 4.0 * fn(pt)) / spec.h**2

    sq = np.mean([(F(pt) - float(CONE(pt))) ** 2 for pt in x])
    pen = np.mean([(lap(F, pt) - lap(lambda q: float(CONE(q)), pt)) ** 2 for pt in x])
    want = sq + spec.lam * pen
    terms, _ = objective(p, GAUSSIAN_BUMP, spec, x, *_data(CONE, x, spec))
    assert abs(sum(terms) - want) < 1e-11
    with pytest.raises(ValueError, match="centers"):
        objective(p, GAUSSIAN_BUMP, spec, x, CONE(x))


def test_loss_penalty_scales_linearly_in_lambda():
    rng = np.random.default_rng(3)
    p = random_params(MlpArch(5), rng)
    x = rng.uniform(-1, 1, size=(8, 2))
    data = _data(CIRCLE, x, LossSpec(kind="h2"))
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
                    data = _data(CONE, x, spec)
                    _, g = objective(p, act, spec, x, *data)
                    # one value function for every kind: the sum of the terms
                    fd = fd_gradient(
                        lambda v: sum(objective(unpack_params(arch, v), act, spec, x, *data)[0]),
                        pack_params(p))
                    worst = max(worst, relative_error(g, fd))
                assert worst < tol, f"{arch} {act.name} {spec.kind}: {worst}"


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
    m_before = state.m.copy()
    new_state, _ = adam_step(state, theta, np.array([0.3, -0.4]))
    assert np.array_equal(theta, theta_copy)
    assert np.array_equal(state.m, m_before)
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
    for bad in ({"learning_rate": 0.0}, {"beta1": 1.0}, {"beta1": -0.1},
                {"beta2": 1.5}, {"epsilon": 0.0}, {"epsilon": -1e-8}):
        with pytest.raises(ValueError, match=next(iter(bad))):
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
    rep = approximation_report(predictor(init_params(MmlpArch(3), 7), GAUSSIAN_BUMP),
                               CIRCLE, SMALL_METRICS)
    first = res.trace.rows[0]
    assert first.l2_error == rep.l2_error
    assert first.h2_error == rep.h2_error
    assert first.zygmund_error == rep.zygmund_error


def test_train_replay_is_bitwise_identical():
    cfg = TrainConfig(iterations=40, batch_size=16, samples=64, checkpoint_interval=20, seed=2)
    runs = [train(MmlpArch(6), GAUSSIAN_BUMP, CONE, h2_loss(h=1.0 / 16.0), cfg,
                  metrics=SMALL_METRICS) for _ in range(2)]
    assert np.array_equal(pack_params(runs[0].params), pack_params(runs[1].params))
    assert np.array_equal(runs[0].trace.batch_losses, runs[1].trace.batch_losses)
    for a, b in zip(runs[0].trace.rows, runs[1].trace.rows):
        assert (a.iteration, a.l2_error, a.h2_error, a.zygmund_error) == \
               (b.iteration, b.l2_error, b.h2_error, b.zygmund_error)


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
