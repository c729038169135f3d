"""Property tests over random shapes and configs, with a fixed example sequence.

derandomize makes every run draw the same examples, and database=None keeps
no failing examples between runs, so the suite stays deterministic.
Hypothesis still caches the constants it reads from source files under
.hypothesis/, which git ignores.
"""

import dataclasses
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, random_params, relative_error
from prodmlp import (
    GAUSSIAN_BUMP,
    TANH,
    Activation,
    Grid2D,
    LossSpec,
    MetricConfig,
    MlpArch,
    MlpParams,
    MmlpArch,
    MollifiedCircle,
    RadialCone,
    ScalarField,
    TrainConfig,
    TrainingTrace,
    ZygmundSpec,
    forward,
    grid_values,
    h2_loss,
    init_params,
    l2_loss,
    objective,
    pack_params,
    parse_config,
    read_field_csv,
    read_trace_csv,
    unpack_params,
    weighted_grad_sum,
    write_field_csv,
    write_trace_csv,
)
from prodmlp.fdgrid import grid_laplacian, laplacian_stencil
from prodmlp.network import (_BLOCK_BYTES, _features, _hidden, _hidden_weights,
                             _product_laplacian_vjp, _stencil, _values_vjp)
from prodmlp.training import TraceRow


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


def stencil_centers(rng, h, batch):
    """batch random nodes of Grid2D(h), then its four corners and a repeat of
    the first node."""
    size = round(2.0 / h)
    idx = np.concatenate([rng.integers(0, size + 1, size=(batch, 2)),
                          [[0, 0], [0, size], [size, 0], [size, size]]])
    return -1.0 + h * np.concatenate([idx, idx[:1]])


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
        # the h2 kind runs the batch and the Laplacian pass in one call: the
        # 5 * (batch + 5) stencil points, or the per-axis tables of product blocks
        centers, lap_y = stencil_centers(rng, 1.0 / 16.0, batch), rng.normal(size=batch + 5)
        calls.insert(1, (h2_loss(h=1.0 / 16.0), xs[:batch], ys[:batch], centers, lap_y))
    buffers = {}
    for args in calls:
        terms, grad = objective(p, act, *args, buffers=buffers)
        fresh_terms, fresh_grad = objective(p, act, *args)
        assert terms == fresh_terms
        assert np.array_equal(grad, fresh_grad)


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), units=st.integers(1, 40),
       batch=st.integers(1, 40), k=st.integers(1, 6),
       act=st.sampled_from((TANH, GAUSSIAN_BUMP)), seed=st.integers(0, 2**32 - 1))
def test_laplacian_term_matches_the_stacked_stencil(family, units, batch, k, act, seed):
    # the oracle: the public forward and weighted_grad_sum at the five stencil
    # points of every center, h = 1/4 ... 1/128
    h = 0.5 ** (k + 1)
    arch = family(units)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng)
    x, y = rng.uniform(-1.0, 1.0, size=(3, 2)), rng.normal(size=3)
    centers = stencil_centers(rng, h, batch)
    lap_y = rng.normal(size=len(centers))
    spec = h2_loss(lam=0.3, h=h)
    (_, lap), grad = objective(p, act, spec, x, y, centers, lap_y)
    _, l2_grad = objective(p, act, l2_loss(), x, y)

    shifts, coeffs = laplacian_stencil(h)
    pts = (centers[None] + h * shifts[:, None]).reshape(-1, 2)
    r = coeffs @ forward(p, act, pts).reshape(5, -1) - lap_y
    want = spec.lam * np.mean(r * r)
    want_grad = weighted_grad_sum(p, act, pts,
                                  np.multiply.outer(coeffs, 2.0 * spec.lam * r / len(r)).ravel())
    assert abs(lap - want) <= 1e-11 * want
    assert relative_error(grad - l2_grad, want_grad) < 1e-9


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), units=st.integers(1, 6),
       batch=st.integers(1, 6), k=st.integers(1, 3),
       act=st.sampled_from((TANH, GAUSSIAN_BUMP)), seed=st.integers(0, 2**32 - 1))
def test_h2_objective_matches_finite_differences(family, units, batch, k, act, seed):
    h = 0.5 ** (k + 1)
    arch = family(units)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng, scale=0.8)
    x, y = rng.uniform(-1.0, 1.0, size=(3, 2)), rng.normal(size=3)
    centers = stencil_centers(rng, h, batch)
    data = (y, centers, rng.normal(size=len(centers)))
    spec = h2_loss(lam=0.05, h=h)
    fd = fd_gradient(lambda v: sum(objective(unpack_params(arch, v), act, spec, x, *data)[0]),
                     pack_params(p))
    assert relative_error(objective(p, act, spec, x, *data)[1], fd) < 1e-6


@settings(derandomize=True, database=None, deadline=None)
@given(units=st.integers(1, 40), batch=st.integers(1, 600), k=st.integers(1, 6))
def test_product_block_h2_objective_evaluates_sigma_on_the_tables(units, batch, k):
    # sigma on the batch's two factor planes and on two per-axis tables of
    # M + 3 nodes: a fallback to the stacked 5-point pass would read 10 batch
    h = 0.5 ** (k + 1)
    rng = np.random.default_rng(batch)
    evaluated = []

    def f(z, out=None):
        evaluated.append(z.size)
        return GAUSSIAN_BUMP.f(z, out=out)

    act = Activation("counted", f, GAUSSIAN_BUMP.df, GAUSSIAN_BUMP.df_from_f)
    p = random_params(MmlpArch(units), rng)
    x = rng.uniform(-1.0, 1.0, size=(batch, 2))
    centers = -1.0 + h * rng.integers(0, round(2.0 / h) + 1, size=(batch, 2))
    objective(p, act, h2_loss(h=h), x, rng.normal(size=batch), centers,
              rng.normal(size=batch), buffers={})
    assert sum(evaluated) == 2 * batch * units + 2 * (round(2.0 / h) + 3) * units


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 4),
       units=st.integers(1, 6), batch=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_pre_activations_match_the_elementwise_affine_map(family, m, units, batch, seed):
    # the GEMM [x | 1] @ [w; b] against the exact x.w + b, within the rounding of
    # a length m + 1 sum (its bits depend on the BLAS kernel), fresh and in a
    # buffer set grown by a larger batch
    arch = family(units, m=m)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng)
    x = rng.uniform(-1.5, 1.5, size=(batch, m))
    grown = {}
    _values_vjp(p, TANH, _features(p, TANH, rng.uniform(size=(batch + 3, m)), grown), grown)
    # terms[i, k, j] of plane i's z[i, k, j]: the products x w and the bias,
    # exactly; ridge units are one plane
    if family is MlpArch:
        terms = [[[[Fraction(x[k, i]) * Fraction(p.w[j, i]) for i in range(m)] + [Fraction(p.b[j])]
                   for j in range(units)] for k in range(batch)]]
    else:
        terms = [[[[Fraction(x[k, i]) * Fraction(p.w[j, i]), Fraction(p.b[j, i])]
                   for j in range(units)] for k in range(batch)] for i in range(m)]
    exact = np.vectorize(float)(np.sum(np.array(terms, dtype=object), axis=-1))
    bound = 4 * np.finfo(float).eps * np.abs(np.array(terms, dtype=float)).sum(axis=-1)
    for buffers in (None, grown):
        z, _, _ = _hidden(TANH, _features(p, TANH, x, buffers), *_hidden_weights(p, TANH, buffers),
                          buffers)
        assert z.shape == exact.shape
        assert np.all(np.abs(z - exact) <= bound)


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 4),
       units=st.integers(1, 8), batch=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_l2_objective_evaluates_sigma_once_per_pre_activation(family, m, units, batch, seed):
    # batch * n ridge pre-activations, or m planes of batch * n_b factor arguments
    rng = np.random.default_rng(seed)
    evaluated = []

    def f(z, out=None):
        evaluated.append(z.size)
        return TANH.f(z, out=out)

    act = Activation("counted", f, TANH.df, TANH.df_from_f)
    p = random_params(family(units, m=m), rng)
    objective(p, act, l2_loss(), rng.uniform(-1.0, 1.0, size=(batch, m)),
              rng.normal(size=batch), buffers={})
    assert sum(evaluated) == (m if family is MmlpArch else 1) * batch * units


# equal to GAUSSIAN_BUMP but not it, so the network takes the generic sigma/sigma' path
GENERIC_GAUSSIAN = Activation(GAUSSIAN_BUMP.name, GAUSSIAN_BUMP.f, GAUSSIAN_BUMP.df,
                              GAUSSIAN_BUMP.df_from_f)


UNDERFLOW = np.finfo(float).smallest_normal


def gaussian_rounding(p, x):
    """The gaussian network's direct formula in np.longdouble, with the rounding
    budget of either float64 path (exp(Phi @ Q), or the generic product of
    sigma(z) factors) against it, to first order in u = eps / 2.

    Each plane of a point x_k and unit j has an [x | 1] stack x~ and a [w; b]
    stack v~, with z = x~ . v~ and A = sum_a |x~_a v~_a|; Lambda = sum over planes
    of A^2 is the magnitude of the expanded terms (2 - delta_ab) x~_a x~_b v~_a v~_b
    of the exponent, which bounds sum z^2 too.  Returns F(x_k), the per-point flat
    gradients dF(x_k)/dtheta, the bound on |F^ - F| per point, and the per-point
    gradient magnitudes (|z| replaced by A) and their relative rounding, whose
    coefficient-weighted sum bounds the error of sum_k coef_k dF(x_k)/dtheta.

    Rounding per point and unit, for P planes of d coordinates:
    * the exponent: P d (d + 1) / 2 expanded terms of up to three roundings each
      (monomial, coefficient, product), summed: (P d (d + 1) / 2 + 2) u Lambda,
      which also covers the generic path's squared dot products, (2 d + 1) u Lambda;
    * h: P evaluations of exp within one ulp (2 u each) and P - 1 products, 3 P u;
    * F = h @ alpha + c: (units + 1) u of sum_j |alpha_j h_j| + |c|;
    * a gradient entry, relative to its magnitude: h's, plus the batch sum and up
      to d + P + 3 roundings in forming and scaling each term.
    Below the normal range an operation errs by up to u * smallest_normal instead
    (gradual underflow); with far fewer than 1 / u operations and factors of this
    size, that adds less than UNDERFLOW to any result.
    """
    ld = np.longdouble
    ridge = isinstance(p, MlpParams)
    batch, m = x.shape
    ones = np.ones_like(x[:, :1])
    if ridge:
        xt = np.concatenate([x, ones], axis=1)[:, None]
        vt = np.concatenate([p.w, p.b[:, None]], axis=1)[:, None]
    else:
        xt, vt = np.stack([x, np.broadcast_to(ones, x.shape)], axis=-1), np.stack([p.w, p.b], axis=-1)
    planes, d = xt.shape[1:]
    terms = xt.astype(ld)[:, None] * vt.astype(ld)                  # (batch, units, planes, d)
    z, a = terms.sum(axis=-1), np.abs(terms).sum(axis=-1)
    h = np.exp(-np.sum(z * z, axis=-1))                             # (batch, units)
    alpha = p.alpha.astype(ld)

    def flat(dv, d_alpha, d_c):                                     # dv (batch, units, planes, d)
        return np.concatenate([dv[..., :-1].reshape(batch, -1), dv[..., -1].reshape(batch, -1),
                               d_alpha, np.full((batch, 1), d_c, dtype=ld)], axis=1)

    u = np.finfo(float).eps / 2
    theta = u * ((planes * d * (d + 1) // 2 + 2) * np.sum(a * a, axis=-1) + 3 * planes)
    weighed = np.abs(alpha) * h
    f_bound = np.sum(weighed * theta, axis=1) + (len(alpha) + 1) * u * (weighed.sum(axis=1) + abs(p.c))
    per_unit = (theta + (batch + d + planes + 3) * u)[..., None, None]
    return (h @ alpha + p.c, flat((alpha * h * -2.0)[..., None, None] * z[..., None] * xt[:, None], h, 1.0),
            f_bound.astype(float) + UNDERFLOW,
            flat(2.0 * weighed[..., None, None] * a[..., None] * np.abs(xt[:, None]), h, 1.0).astype(float),
            flat(np.broadcast_to(per_unit, terms.shape), theta + (batch + d + planes + 3) * u,
                 batch * u).astype(float))


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 4),
       units=st.integers(1, 6), batch=st.integers(1, 9), scale=st.sampled_from((1.0, 10.0)),
       act=st.sampled_from((GAUSSIAN_BUMP, GENERIC_GAUSSIAN)), seed=st.integers(0, 2**32 - 1))
def test_gaussian_paths_stay_within_their_rounding_bound(family, m, units, batch, scale, act, seed):
    # the oracle: the direct formula in np.longdouble, whose own rounding is
    # 2^-11 of float64's
    rng = np.random.default_rng(seed)
    p = random_params(family(units, m=m), rng, scale=scale)
    x, coef = rng.uniform(-1.5, 1.5, size=(batch, m)), rng.normal(size=batch)
    exact, grads, f_bound, magnitude, rounding = gaussian_rounding(p, x)
    assert np.all(np.abs(forward(p, act, x) - exact) <= f_bound)
    assert np.all(np.abs(weighted_grad_sum(p, act, x, coef) - coef @ grads)
                  <= np.abs(coef) @ (magnitude * rounding) + UNDERFLOW)


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 4),
       units=st.integers(1, 6), batch=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_gaussian_closed_form_matches_the_generic_path(family, m, units, batch, seed):
    # exp(Phi @ Q) against the product of the factors, and (coef Phi)^T h against
    # sigma'(z_i) times the other factors: both round within gaussian_rounding's
    # budget of the exact values, so they differ by at most twice it, carried
    # through the residual r = F - y of the l2 objective, whose gradient weighs
    # the points by 2 r / batch
    assert GENERIC_GAUSSIAN == GAUSSIAN_BUMP and GENERIC_GAUSSIAN is not GAUSSIAN_BUMP
    arch = family(units, m=m)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng)
    x, y = rng.uniform(-1.5, 1.5, size=(batch, m)), rng.normal(size=batch)
    want, _ = _values_vjp(p, GENERIC_GAUSSIAN, _features(p, GENERIC_GAUSSIAN, x))
    (want_l2,), want_grad = objective(p, GENERIC_GAUSSIAN, l2_loss(), x, y)
    grown = {}
    objective(p, GAUSSIAN_BUMP, l2_loss(), rng.uniform(size=(batch + 3, m)), np.ones(batch + 3),
              buffers=grown)
    _, _, f_bound, magnitude, rounding = gaussian_rounding(p, x)
    u, r = np.finfo(float).eps / 2, np.abs(want - y)
    dr = 2.0 * f_bound + 2.0 * u * r                     # r's difference, rounding of F - y included
    l2_tol = 2.0 / batch * r @ dr + 2.0 * (batch + 1) * u * want_l2
    grad_tol = 2.0 / batch * ((dr + 2.0 * u * r) @ magnitude + 2.0 * r @ (magnitude * rounding)) + UNDERFLOW
    for buffers in (None, grown):
        got, _ = _values_vjp(p, GAUSSIAN_BUMP, _features(p, GAUSSIAN_BUMP, x, buffers), buffers)
        (l2,), grad = objective(p, GAUSSIAN_BUMP, l2_loss(), x, y, buffers=buffers)
        assert np.all(np.abs(got - want) <= 2.0 * f_bound)
        assert abs(l2 - want_l2) <= l2_tol
        assert np.all(np.abs(grad - want_grad) <= grad_tol)


def product_table_rounding(p, act, h):
    """The product blocks' table P = F - c on the axis of Grid2D(h) widened by one
    node, in np.longdouble, and the rounding budget of either float64 table
    against it, per node, to first order in u = eps / 2: network._product_table's
    (sigma(z_x) alpha) sigma(z_y)^T, which training's Laplacian term reads and
    grid_values adds c to.

    Per axis, node x and block j, with A = |x w| + |b|:
    * z = x w + b: two roundings, 2 u A;
    * sigma(z) carries z's error times |sigma'(z)|, 1 - tanh^2 or, for the
      gaussian, 2 |z| sigma, which also rounds z^2 (u z^2 sigma); its
      evaluation is within 2 ulp, 4 u sigma;
    * P: the products alpha_j sigma_x then times sigma_y, and the sum over the
      n_b blocks, (n_b + 1) u sum_j |alpha_j sigma_x sigma_y|.
    Below the normal range an operation errs by up to u * UNDERFLOW instead.
    """
    ld, u = np.longdouble, np.finfo(float).eps / 2
    axis = Grid2D(h).axis(1)
    s, budget = [], []
    for w, b in zip(p.w.T, p.b.T):
        z = np.multiply.outer(axis.astype(ld), w.astype(ld)) + b.astype(ld)
        a = np.abs(np.multiply.outer(axis, w)) + np.abs(b)
        if act is TANH:
            si = np.tanh(z)
            through_z = (1.0 - si * si) * 2.0 * u * a
        else:
            si = np.exp(-z * z)
            through_z = si * u * (4.0 * np.abs(z) * a + z * z)
        s.append(si)
        budget.append((through_z + 4.0 * u * np.abs(si)).astype(float))
    mag, weights = [np.abs(si).astype(float) for si in s], np.abs(p.alpha)
    budget = ((budget[0] * weights) @ mag[1].T + (mag[0] * weights) @ budget[1].T
              + (len(weights) + 1) * u * ((mag[0] * weights) @ mag[1].T)
              + (len(weights) + 2) * UNDERFLOW)
    return (s[0] * p.alpha.astype(ld)) @ s[1].T, budget


def stencil(table, h, signed=True):
    """The 5-point stencil of a table on a grid widened by one node, at its
    nodes, with the coefficients' absolute values unless signed."""
    n = len(table) - 2
    shifts, coeffs = laplacian_stencil(h)
    return sum((c if signed else abs(c)) * table[1 + i : 1 + i + n, 1 + j : 1 + j + n]
               for (i, j), c in zip(shifts, coeffs))


@settings(derandomize=True, database=None, deadline=None)
@given(units=st.integers(1, 40), batch=st.integers(1, 40), k=st.integers(1, 6),
       scale=st.sampled_from((1.0, 3.0)), act=st.sampled_from((TANH, GAUSSIAN_BUMP)),
       seed=st.integers(0, 2**32 - 1))
def test_product_block_laplacian_stays_within_its_rounding_bound(units, batch, k, scale,
                                                                 act, seed):
    # the oracle: the 5-point stencil of F in np.longdouble, whose own rounding
    # is 2^-11 of float64's; the float64 stencil differences P's rounding, so
    # the bound grows as 1 / h^2, plus the 5-term sum of its exact products
    h = 0.5 ** (k + 1)
    rng = np.random.default_rng(seed)
    p = random_params(MmlpArch(units), rng, scale=scale)
    nodes = np.round((stencil_centers(rng, h, batch) + 1.0) / h).astype(np.intp)
    table, budget = product_table_rounding(p, act, h)
    u = np.finfo(float).eps / 2
    exact = stencil(table, h)[nodes[:, 0], nodes[:, 1]]
    bound = stencil(budget + 5.0 * u * np.abs(table).astype(float), h, signed=False)
    lap, _ = _product_laplacian_vjp(p, act, h, nodes)
    assert np.all(np.abs(lap - exact) <= bound[nodes[:, 0], nodes[:, 1]])


@pytest.mark.parametrize("act", [TANH, GAUSSIAN_BUMP], ids=lambda a: a.name)
def test_training_laplacian_matches_the_metrics_stencil(act):
    # training's lap_h F at every loss-grid node against fdgrid.grid_laplacian of
    # grid_values on the widened axis, the metrics' H^2-type Laplacian: each
    # within its budget of the exact stencil, grid_values also rounding P + c,
    # and grid_laplacian summing F = P + c rather than P.  At c = 0 grid_values
    # is the product table that training reads, so training's lap_h F is
    # exactly its stencil at the same flat indices
    h = 1.0 / 128.0
    u = np.finfo(float).eps / 2
    side = Grid2D(h).nodes_per_axis
    nodes = np.indices((side, side)).reshape(2, -1).T
    _, coeffs, axis, offsets, _ = _stencil(h)
    at = np.add.outer(offsets, (nodes[:, 0] + 1) * len(axis) + nodes[:, 1] + 1)
    for p in (init_params(MmlpArch(64), 0), random_params(MmlpArch(64), np.random.default_rng(7))):
        table, budget = product_table_rounding(p, act, h)
        magnitude = np.abs(table).astype(float)
        bound = stencil(2.0 * budget + 5.0 * u * (2.0 * magnitude + abs(p.c)), h, signed=False)
        lap, _ = _product_laplacian_vjp(p, act, h, nodes)
        want = grid_laplacian(grid_values(p, act, axis), h)
        assert np.all(np.abs(lap.reshape(side, side) - want) <= bound)
        at_zero = grid_values(dataclasses.replace(p, c=0.0), act, axis)
        assert np.array_equal(lap, coeffs @ np.take(at_zero, at))


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 3),
       units=st.integers(1, 8), n=st.integers(1, 7),
       act=st.sampled_from((TANH, GAUSSIAN_BUMP)), seed=st.integers(0, 2**32 - 1))
def test_grid_values_matches_forward_on_the_meshgrid(family, m, units, n, act, seed):
    arch = family(units, m=m)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng)
    axis = rng.uniform(-1.5, 1.5, size=n)
    if m != 2:
        with pytest.raises(ValueError, match=f"m={m}"):
            grid_values(p, act, axis)
        return
    got = grid_values(p, act, axis)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    want = forward(p, act, np.stack([gx.ravel(), gy.ravel()], axis=-1)).reshape(n, n)
    assert got.shape == (n, n)
    assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("act", [TANH, GAUSSIAN_BUMP], ids=lambda a: a.name)
def test_grid_values_on_an_empty_axis(act):
    rng = np.random.default_rng(4)
    for arch in (MlpArch(5), MmlpArch(4)):
        assert grid_values(random_params(arch, rng), act, np.empty(0)).shape == (0, 0)


@pytest.mark.parametrize("act", [TANH, GAUSSIAN_BUMP], ids=lambda a: a.name)
def test_grid_values_across_row_block_seams(act):
    # 1,600 units on 13 nodes and 1,400 units on 15: a block holds 4 grid rows,
    # so three full blocks and a short last one of one row, or of all rows but one
    rng = np.random.default_rng(3)
    for units, short in ((1600, 1), (1400, 3)):
        n = 3 * 4 + short
        assert _BLOCK_BYTES // (8 * units * n) == 4
        p = random_params(MlpArch(units), rng)
        axis = rng.uniform(-1.5, 1.5, size=n)
        got = grid_values(p, act, axis)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        want = forward(p, act, np.stack([gx.ravel(), gy.ravel()], axis=-1)).reshape(n, n)
        assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
        assert np.array_equal(got, grid_values(p, act, axis))


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


# finite doubles, with signed zero, subnormals and the ends of the range drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.225073858507201e-308, 1e-308, 1.7976931348623157e308, -1e308])


@st.composite
def fields(draw):
    grid = Grid2D(h=draw(st.sampled_from([2.0, 1.0, 0.5, 0.25, 0.125])))
    n = grid.nodes_per_axis
    return ScalarField(grid, np.array(draw(st.lists(FINITE, min_size=n * n, max_size=n * n)))
                       .reshape(n, n))


@settings(derandomize=True, database=None, deadline=None)
@given(field=fields())
def test_field_csv_is_the_per_cell_repr_format_and_round_trips_bitwise(field):
    ax = field.grid.axis()
    want = "x,y,value\n" + "".join(f"{float(x)!r},{float(y)!r},{float(field.values[i, j])!r}\n"
                                   for i, x in enumerate(ax) for j, y in enumerate(ax))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "field.csv"
        write_field_csv(field, path)
        assert path.read_bytes() == want.encode()
        back = read_field_csv(path)
    assert back.grid == field.grid
    # bitwise, so the sign of zero counts
    assert back.values.tobytes() == field.values.tobytes()


@settings(derandomize=True, database=None, deadline=None)
@given(field=fields(), shuffle=st.booleans(), data=st.data())
def test_read_field_csv_refuses_rows_off_the_grid_order(field, shuffle, data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "field.csv"
        write_field_csv(field, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        if shuffle:
            order = data.draw(st.permutations(range(len(rows))).filter(lambda p: p != sorted(p)))
            rows = [rows[k] for k in order]
            bad = next(k for k, o in enumerate(order) if o != k)
        else:
            bad, col = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, 1))
            cells = rows[bad].split(",")
            old = float(cells[col])
            cells[col] = repr(data.draw(st.floats().filter(lambda c: not c == old)))
            rows[bad] = ",".join(cells)
        path.write_text(header + "".join(rows))
        with pytest.raises(ValueError, match=f"line {bad + 2}:"):
            read_field_csv(path)


@settings(derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.builds(TraceRow, st.integers(0, 10**9), *[st.floats(allow_nan=False)] * 4),
                     max_size=20))
def test_trace_csv_round_trips_exactly(rows):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.csv"
        write_trace_csv(TrainingTrace(rows=rows), path)
        back = read_trace_csv(path).rows
    # repr tells every non-NaN double apart, -0.0 from 0.0 included
    assert repr(back) == repr(rows)
