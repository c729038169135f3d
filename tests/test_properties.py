"""Property tests over random shapes and configs, with a fixed example sequence.

derandomize makes every run draw the same examples, and database=None keeps
no failing examples between runs, so the suite stays deterministic.
Hypothesis still caches the constants it reads from source files under
.hypothesis/, which git ignores.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, random_params, relative_error
from prodmlp import (
    GAUSSIAN_BUMP,
    TANH,
    Grid2D,
    LossSpec,
    MetricConfig,
    MlpArch,
    MmlpArch,
    MollifiedCircle,
    RadialCone,
    TrainConfig,
    ZygmundSpec,
    forward,
    grid_values,
    h2_loss,
    l2_loss,
    objective,
    pack_params,
    parse_config,
    unpack_params,
    weighted_grad_sum,
)


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 4),
       units=st.integers(1, 6), batch=st.integers(1, 9),
       act=st.sampled_from((TANH, GAUSSIAN_BUMP)), seed=st.integers(0, 2**32 - 1))
def test_weighted_grad_sum_matches_finite_differences(family, m, units, batch, act, seed):
    arch = family(units, m=m)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng)
    xs = rng.uniform(-1.5, 1.5, size=(batch, m))
    coef = rng.normal(size=batch)
    fd = fd_gradient(lambda v: coef @ forward(unpack_params(arch, v), act, xs),
                     pack_params(p))
    assert relative_error(weighted_grad_sum(p, act, xs, coef), fd) < 1e-7


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 4),
       units=st.integers(1, 6), batch=st.integers(2, 9),
       act=st.sampled_from((TANH, GAUSSIAN_BUMP)), seed=st.integers(0, 2**32 - 1))
def test_objective_with_reused_buffers_is_bitwise_fresh(family, m, units, batch, act, seed):
    # one buffer set serves passes that shrink and grow: a batch, the 5 * batch
    # stencil pass, an epoch's short last batch, then a batch again; m = 1 has
    # an empty leave-one-out product
    arch = family(units, m=m)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng)
    xs = rng.uniform(-1.5, 1.5, size=(5 * batch, m))
    ys = rng.normal(size=5 * batch)
    calls = [(l2_loss(), xs[:rows], ys[:rows])
             for rows in (batch, 5 * batch, batch // 2, batch)]
    if m == 2:
        # the h2 kind runs the batch and the 5 * batch pass in one call
        centers, lap_y = rng.uniform(-1.0, 1.0, size=(batch, 2)), rng.normal(size=batch)
        calls.insert(1, (h2_loss(h=1.0 / 16.0), xs[:batch], ys[:batch], centers, lap_y))
    buffers = {}
    for args in calls:
        terms, grad = objective(p, act, *args, buffers=buffers)
        fresh_terms, fresh_grad = objective(p, act, *args)
        assert terms == fresh_terms
        assert np.array_equal(grad, fresh_grad)


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 3),
       units=st.integers(1, 8), nx=st.integers(1, 7), ny=st.integers(1, 7),
       act=st.sampled_from((TANH, GAUSSIAN_BUMP)), seed=st.integers(0, 2**32 - 1))
def test_grid_values_matches_forward_on_the_meshgrid(family, m, units, nx, ny, act, seed):
    arch = family(units, m=m)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng)
    ax, ay = rng.uniform(-1.5, 1.5, size=nx), rng.uniform(-1.5, 1.5, size=ny)
    if m != 2:
        with pytest.raises(ValueError, match=f"m={m}"):
            grid_values(p, act, ax, ay)
        return
    got = grid_values(p, act, ax, ay)
    gx, gy = np.meshgrid(ax, ay, indexing="ij")
    want = forward(p, act, np.stack([gx.ravel(), gy.ravel()], axis=-1)).reshape(nx, ny)
    assert got.shape == (nx, ny)
    assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())


# spacings as a config may write them, with their values
SPACINGS = {"1/32": 1 / 32, "1/64": 1 / 64, 0.0078125: 1 / 128, "0.015625": 1 / 64}


def section(**keys):
    """A JSON object holding a random subset of the given keys."""
    return st.fixed_dictionaries({}, optional=keys)


def renamed(drawn: dict, fields: dict) -> dict:
    """The drawn keys as dataclass keyword arguments."""
    return {fields.get(k, k): SPACINGS.get(v, v) if k in ("h", "grid_h") else v
            for k, v in drawn.items()}


TARGETS = st.one_of(
    st.just("cone"),
    section(beta=st.floats(0.1, 3.0)).map(lambda t: {"kind": "cone", **t}),
    # the singular annulus, 6 eps across, is wider than any drawn grid spacing,
    # so it holds nodes, and ends before the corners, so it misses some
    section(r0=st.floats(0.2, 0.8), eps=st.floats(0.01, 0.1))
    .map(lambda t: {"kind": "circle", **t}),
)
LOSSES = st.one_of(
    st.sampled_from(["l2", {"kind": "l2"}]),
    section(**{"lambda": st.floats(1e-6, 1.0), "h": st.sampled_from(list(SPACINGS))})
    .map(lambda t: {"kind": "h2", **t}),
)
TRAINS = section(
    iterations=st.integers(1, 10**6), batch_size=st.integers(1, 4096),
    # at least the default and the largest drawn batch size
    samples=st.integers(4096, 10**6), checkpoint_interval=st.integers(1, 1000),
    learning_rate=st.floats(1e-6, 1.0),
    adam=section(beta1=st.floats(0.0, 0.999), beta2=st.floats(0.0, 0.9999),
                 epsilon=st.floats(1e-12, 1e-3)),
)
METRICS = section(
    grid_h=st.sampled_from(list(SPACINGS)),
    zygmund=section(alpha=st.floats(0.01, 0.99), k_max=st.integers(1, 16),
                    diagonals=st.booleans()),
)


@settings(derandomize=True, database=None, deadline=None)
@given(target=TARGETS, loss=LOSSES, config=section(train=TRAINS, metrics=METRICS),
       arch=st.sampled_from([{"mlp": 7}, {"mmlp": 3}, {"matched_pair": 4}]),
       activation=st.sampled_from(["tanh", "gaussian"]),
       seeds=st.none() | st.lists(st.integers(0, 100), min_size=1, max_size=4, unique=True))
def test_config_round_trip_and_dataclass_defaults(target, loss, config, arch, activation,
                                                   seeds):
    raw = {"target": target, "arch": arch, "activation": activation, "loss": loss, **config}
    if seeds is not None:
        raw["seeds"] = seeds
    cfg = parse_config(raw)

    # the resolved form is canonical: it reparses, through JSON, to itself
    again = parse_config(json.loads(json.dumps(cfg.resolved)))
    assert again.resolved == cfg.resolved and again.digest == cfg.digest

    # every omitted key takes its dataclass's default
    t = {"kind": target} if isinstance(target, str) else target
    cls = MollifiedCircle if t["kind"] == "circle" else RadialCone
    assert cfg.target == cls(**renamed({k: v for k, v in t.items() if k != "kind"}, {}))
    lo = {"kind": loss} if isinstance(loss, str) else loss
    assert cfg.loss == LossSpec(**renamed(lo, {"lambda": "lam"}))
    train = dict(config.get("train", {}))
    assert cfg.train == TrainConfig(**renamed(train.pop("adam", {}), {}), **train)
    metrics = dict(config.get("metrics", {}))
    zygmund = ZygmundSpec(**renamed(metrics.pop("zygmund", {}),
                                    {"diagonals": "include_diagonals"}))
    grid = {"grid": Grid2D(SPACINGS[metrics["grid_h"]])} if metrics else {}
    assert cfg.metrics == MetricConfig(**grid, zygmund=zygmund)
    assert cfg.seeds == tuple(seeds if seeds is not None else (0, 1, 2))
