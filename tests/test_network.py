"""Network module: counts, packing, forward oracle, exact gradients."""

import numpy as np
import pytest

from helpers import fd_gradient, naive_forward, random_params, relative_error
from prodmlp import (
    GAUSSIAN_BUMP,
    TANH,
    MlpArch,
    MlpParams,
    MmlpArch,
    MmlpParams,
    activation_by_name,
    forward,
    init_params,
    matched_additive_width,
    pack_params,
    param_count,
    unpack_params,
    weighted_grad_sum,
)
from prodmlp.network import near_zero_factor_weights

ACTS = (TANH, GAUSSIAN_BUMP)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_activation_values():
    z = np.array([0.0, 1.0, -1.0])
    assert np.array_equal(TANH.f(z), np.tanh(z))
    # e^{-1} = 0.36787944117144233 (mpmath)
    g = GAUSSIAN_BUMP.f(z)
    assert g[0] == 1.0
    assert abs(g[1] - 0.36787944117144233) < 1e-16
    assert g[1] == g[2]  # even


def test_activation_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    z = rng.uniform(-3, 3, size=200)
    step = 1e-6
    for act in ACTS:
        fd = (act.f(z + step) - act.f(z - step)) / (2 * step)
        assert np.allclose(act.df(z), fd, rtol=0, atol=1e-8)


def test_df_from_f_is_bitwise_identical_to_df():
    # the cached-value derivative is the same arithmetic expression, so the
    # agreement must be exact, not just close
    rng = np.random.default_rng(1)
    z = rng.uniform(-5, 5, size=1000)
    for act in ACTS:
        s = act.f(z)
        assert np.array_equal(act.df_from_f(z, s), act.df(z))
        # the ufunc-style forms write into out, also in place, with the same bits
        out = np.empty_like(z)
        assert act.f(z, out=out) is out and np.array_equal(out, s)
        assert act.df_from_f(z, s, out=out) is out and np.array_equal(out, act.df(z))
        inplace = z.copy()
        assert np.array_equal(act.f(inplace, out=inplace), s)


def test_activation_by_name():
    assert activation_by_name("tanh") is TANH
    assert activation_by_name("gaussian") is GAUSSIAN_BUMP
    with pytest.raises(ValueError, match="unknown activation"):
        activation_by_name("relu")


# ---------------------------------------------------------------------------
# parameter counting and the matched pairs
# ---------------------------------------------------------------------------


def test_param_count_formulas():
    # additive: (m + 2) n + 1, multiplicative: (2 m + 1) n_b + 1
    assert param_count(MlpArch(n=7, m=2)) == 4 * 7 + 1
    assert param_count(MlpArch(n=5, m=3)) == 5 * 5 + 1
    assert param_count(MmlpArch(n_b=7, m=2)) == 5 * 7 + 1
    assert param_count(MmlpArch(n_b=4, m=3)) == 7 * 4 + 1


def test_matched_pair_counts():
    # the three published comparison scales, equal counts by construction
    for n, n_b, total in [(320, 256, 1281), (640, 512, 2561), (1280, 1024, 5121)]:
        assert param_count(MlpArch(n)) == total
        assert param_count(MmlpArch(n_b)) == total
        assert matched_additive_width(n_b) == n


def test_matched_additive_width_divisibility():
    # (2m+1) n_b must be divisible by m+2; for m = 2 that is 5 n_b = 4 n
    assert matched_additive_width(4) == 5
    with pytest.raises(ValueError, match="divisible"):
        matched_additive_width(3)
    with pytest.raises(ValueError):
        matched_additive_width(2, m=3)  # 7 * 2 not divisible by 5


def test_arch_validation():
    with pytest.raises(ValueError):
        MlpArch(n=0)
    with pytest.raises(ValueError):
        MmlpArch(n_b=3, m=0)


# ---------------------------------------------------------------------------
# init, pack, unpack
# ---------------------------------------------------------------------------


def test_init_params_ranges_and_determinism():
    for arch in (MlpArch(50), MmlpArch(40)):
        p = init_params(arch, seed=0)
        q = init_params(arch, seed=0)
        assert np.array_equal(pack_params(p), pack_params(q))
        assert not np.array_equal(pack_params(p), pack_params(init_params(arch, seed=1)))
        assert p.c == 0.0
        assert np.all(np.abs(p.w) <= 1.0) and np.all(np.abs(p.b) <= 1.0)
        units = p.alpha.size
        assert np.all(np.abs(p.alpha) <= 1.0 / np.sqrt(units))


def test_init_params_draw_order_contract():
    # w then b then alpha from the (seed, init-role) stream; re-derive with a
    # generator built directly from the documented key structure
    arch = MlpArch(6)
    p = init_params(arch, seed=9)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([9, 1])))
    assert np.array_equal(p.w, rng.uniform(-1, 1, size=(6, 2)))
    assert np.array_equal(p.b, rng.uniform(-1, 1, size=6))
    assert np.array_equal(p.alpha, rng.uniform(-1, 1, size=6) / np.sqrt(6))


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(2)
    for arch in (MlpArch(5), MlpArch(4, m=3), MmlpArch(6), MmlpArch(3, m=4)):
        p = random_params(arch, rng)
        vec = pack_params(p)
        assert vec.shape == (param_count(arch),)
        q = unpack_params(arch, vec)
        assert np.array_equal(pack_params(q), vec)
        assert type(q) is type(p)


def test_unpack_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected"):
        unpack_params(MlpArch(5), np.zeros(7))


def test_pack_layout_is_stable():
    # the flat order is a file-format contract: w row-major, b, alpha, c
    p = MlpParams(w=np.array([[1.0, 2.0], [3.0, 4.0]]), b=np.array([5.0, 6.0]),
                  alpha=np.array([7.0, 8.0]), c=9.0)
    assert np.array_equal(pack_params(p), np.arange(1.0, 10.0))
    q = MmlpParams(w=np.array([[1.0, 2.0]]), b=np.array([[3.0, 4.0]]),
                   alpha=np.array([5.0]), c=6.0)
    assert np.array_equal(pack_params(q), np.arange(1.0, 7.0))


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------


def test_forward_matches_naive_loops():
    rng = np.random.default_rng(3)
    for arch in (MlpArch(8), MlpArch(5, m=3), MmlpArch(8), MmlpArch(5, m=3),
                 MmlpArch(3, m=1), MmlpArch(2, m=4)):
        for act in ACTS:
            p = random_params(arch, rng)
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=arch.m)
                want = naive_forward(p, act, x)
                assert abs(forward(p, act, x) - want) < 1e-12 * max(1, abs(want))


def test_forward_batch_agrees_with_single_points():
    rng = np.random.default_rng(4)
    p = random_params(MmlpArch(10), rng)
    xs = rng.uniform(-1, 1, size=(30, 2))
    batch = forward(p, GAUSSIAN_BUMP, xs)
    assert batch.shape == (30,)
    singles = np.array([forward(p, GAUSSIAN_BUMP, x) for x in xs])
    assert np.allclose(batch, singles, rtol=1e-14, atol=1e-15)


def test_forward_rejects_wrong_width():
    p = random_params(MlpArch(3), np.random.default_rng(0))
    with pytest.raises(ValueError, match="points must have shape"):
        forward(p, TANH, np.zeros(3))


def test_multiplicative_block_is_a_product():
    # one block with alpha = 1, c = 0 must equal the product of its factors
    w = np.array([[0.7, -1.2]])
    b = np.array([[0.1, 0.4]])
    p = MmlpParams(w=w, b=b, alpha=np.array([1.0]), c=0.0)
    x = np.array([0.3, -0.8])
    for act in ACTS:
        want = act.f(0.7 * 0.3 + 0.1) * act.f(-1.2 * -0.8 + 0.4)
        assert abs(forward(p, act, x) - want) < 1e-16


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def point_gradient(p, act, x):
    """dF(x)/dtheta at one point x of shape (m,)."""
    return weighted_grad_sum(p, act, x[None], np.ones(1))


def test_point_gradient_matches_finite_differences():
    # sweep of random instances per architecture and activation
    rng = np.random.default_rng(6)
    tol = 1e-7
    # m = 1 leaves each factor no others to multiply; m = 4 multiplies three
    for arch in (MlpArch(4), MlpArch(3, m=3), MmlpArch(4), MmlpArch(3, m=3),
                 MmlpArch(3, m=1), MmlpArch(2, m=4)):
        for act in ACTS:
            worst = 0.0
            for _ in range(25):
                p = random_params(arch, rng)
                x = rng.uniform(-1.5, 1.5, size=arch.m)
                fd = fd_gradient(lambda v: forward(unpack_params(arch, v), act, x),
                                 pack_params(p))
                worst = max(worst, relative_error(point_gradient(p, act, x), fd))
            assert worst < tol, f"{arch} {act.name}: fd mismatch {worst}"


def test_grad_handles_zero_factors():
    # a gaussian factor at a huge argument underflows to exactly 0; the
    # leave-one-out products must stay finite and correct
    p = MmlpParams(w=np.array([[40.0, 1.0]]), b=np.array([[0.0, 0.0]]),
                   alpha=np.array([1.0]), c=0.0)
    x = np.array([1.0, 0.5])
    assert GAUSSIAN_BUMP.f(np.array(40.0)) == 0.0
    g = point_gradient(p, GAUSSIAN_BUMP, x)
    assert np.all(np.isfinite(g))
    # d F / d alpha is the block product, 0 here; d F / d w_2 carries the
    # dead first factor, also 0
    arch = p.arch
    g_unpacked = unpack_params(arch, g)
    assert g_unpacked.alpha[0] == 0.0
    assert g_unpacked.w[0, 1] == 0.0


def test_weighted_grad_sum_is_linear_in_coefficients():
    rng = np.random.default_rng(7)
    for arch in (MlpArch(5), MmlpArch(5)):
        p = random_params(arch, rng)
        xs = rng.uniform(-1, 1, size=(6, arch.m))
        coef = rng.normal(size=6)
        total = weighted_grad_sum(p, GAUSSIAN_BUMP, xs, coef)
        by_hand = sum(c * point_gradient(p, GAUSSIAN_BUMP, x) for c, x in zip(coef, xs))
        assert np.allclose(total, by_hand, rtol=1e-12, atol=1e-14)


def test_weighted_grad_sum_coef_shape_check():
    p = random_params(MlpArch(3), np.random.default_rng(0))
    xs = np.zeros((4, 2))
    with pytest.raises(ValueError, match="coef"):
        weighted_grad_sum(p, TANH, xs, np.ones(3))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_near_zero_factor_weights():
    p = MmlpParams(w=np.array([[1e-9, 0.5], [2e-4, -1e-8]]),
                   b=np.zeros((2, 2)), alpha=np.ones(2), c=0.0)
    assert near_zero_factor_weights(p) == 2
    assert near_zero_factor_weights(p, tol=1e-6) == 2
    assert near_zero_factor_weights(p, tol=1e-3) == 3
    assert near_zero_factor_weights(p, tol=1e-10) == 0
