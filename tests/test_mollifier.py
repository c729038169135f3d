"""Product kernels: normalization, moments, network-block equivalence."""

import io

import numpy as np
import pytest

from helpers import traced_peak
from prodmlp import (
    GAUSSIAN_BUMP,
    TANH,
    Grid2D,
    build_kernel,
    convergence_report,
    forward,
    kernel_as_block,
    kernel_value,
    mollify,
    target_by_name,
)
from prodmlp.cli import main
from prodmlp.mollifier import DEFAULT_QUAD_POINTS, write_convergence_csv

SQRT_PI = 1.772453850905516  # mpmath, 40 digits


def test_window_radius_search():
    # the geometric search lands on 1.5^5 = 7.59375 for the gaussian bump:
    # exp(-7.59375^2) = 9.04e-26 is the first value below the 1e-16 cutoff
    k = build_kernel(GAUSSIAN_BUMP, 1, 0.5)
    assert k.window_radius == 7.59375
    assert k.support_radius() == 7.59375 * 0.5


def test_tanh_is_rejected():
    # tanh never decays, so no bounded quadrature window exists
    with pytest.raises(ValueError, match="does not decay"):
        build_kernel(TANH, 1, 0.5)


def test_build_kernel_validation():
    with pytest.raises(ValueError):
        build_kernel(GAUSSIAN_BUMP, 0, 0.5)
    with pytest.raises(ValueError):
        build_kernel(GAUSSIAN_BUMP, 2, 0.0)
    for eps in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            build_kernel(GAUSSIAN_BUMP, 2, eps)
    with pytest.raises(ValueError):
        build_kernel(GAUSSIAN_BUMP, 2, 0.5, quad_points=2)


def test_l1_norm_is_sqrt_pi():
    # integral of exp(-t^2) over the line is sqrt(pi) = 1.772453850905516;
    # the tail beyond the window is ~1e-25, far below the tolerance
    for q in (129, 512):
        k = build_kernel(GAUSSIAN_BUMP, 2, 0.1, quad_points=q)
        assert abs(k.l1_norm - SQRT_PI) < 1e-8


def test_kernel_integrates_to_one():
    # mollifying the constant 1 integrates the kernel itself; the per-axis
    # trapezoid norm of the gaussian equals sqrt(pi) to rounding, so the
    # weighted product kernel sums to 1 to rounding in every dimension
    one = lambda z: np.ones(len(z))
    pts = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.7]])
    for m, q in ((1, DEFAULT_QUAD_POINTS), (2, DEFAULT_QUAD_POINTS), (2, 257), (3, 33)):
        for eps in (0.5, 0.1):
            kern = build_kernel(GAUSSIAN_BUMP, m, eps, quad_points=q)
            assert np.abs(mollify(kern, one, pts[:, :m]) - 1.0).max() < 1e-13, (m, q, eps)


def test_kernel_value_peak_and_symmetry():
    eps = 0.2
    kern = build_kernel(GAUSSIAN_BUMP, 2, eps)
    # peak value is eps^-m / ||sigma||_1^m since sigma(0) = 1
    peak = kernel_value(kern, np.zeros(2))
    assert abs(peak - eps**-2 / SQRT_PI**2) < 1e-10
    pts = np.array([[0.1, 0.05], [-0.1, 0.05], [0.1, -0.05], [-0.1, -0.05]])
    vals = kernel_value(kern, pts)
    assert np.allclose(vals, vals[0], rtol=0, atol=1e-18)
    assert np.all(vals < peak)


def test_kernel_value_shape_check():
    kern = build_kernel(GAUSSIAN_BUMP, 2, 0.3)
    with pytest.raises(ValueError, match="coordinates"):
        kernel_value(kern, np.zeros(3))


def test_kernel_as_network_block():
    # the scaled shifted kernel IS one multiplicative block; the two
    # evaluation routes must agree to near machine precision
    eps = 0.25
    kern = build_kernel(GAUSSIAN_BUMP, 2, eps)
    center = np.array([0.3, -0.1])
    block = kernel_as_block(kern, center)
    assert block.w.shape == (1, 2) and block.alpha.shape == (1,)
    assert np.all(block.w == 1.0 / eps)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(50, 2))
    via_net = forward(block, GAUSSIAN_BUMP, pts)
    direct = kernel_value(kern, pts - center)
    assert np.abs(via_net - direct).max() < 1e-12


def test_kernel_as_block_default_center():
    kern = build_kernel(GAUSSIAN_BUMP, 3, 0.5)
    block = kernel_as_block(kern)
    assert np.array_equal(block.b, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="center"):
        kernel_as_block(kern, np.zeros(2))


def test_mollified_parabola_frozen_shift():
    # convolving x^2 with the kernel adds exactly eps^2 times the kernel's
    # second moment, which is 1/2 for the normalized gaussian bump:
    # (x^2 * kernel)(x) = x^2 + eps^2 / 2
    sq = lambda z: np.atleast_2d(z)[:, 0] ** 2
    for eps in (0.5, 0.2):
        kern = build_kernel(GAUSSIAN_BUMP, 1, eps, quad_points=257)
        for x in (-0.7, 0.0, 1.3):
            got = mollify(kern, sq, np.array([x]))
            assert abs(got - (x * x + eps * eps / 2.0)) < 1e-9, (eps, x)


def test_mollify_preserves_affine_functions():
    # odd moments vanish, so affine functions are fixed points
    aff = lambda z: 2.0 * np.atleast_2d(z)[:, 0] - 0.5 * np.atleast_2d(z)[:, 1] + 1.0
    kern = build_kernel(GAUSSIAN_BUMP, 2, 0.3, quad_points=129)
    pts = np.array([[0.0, 0.0], [0.4, -0.2], [-1.0, 0.9]])
    got = mollify(kern, aff, pts)
    assert np.abs(got - aff(pts)).max() < 1e-9


def test_mollify_batch_matches_single_points():
    kern = build_kernel(GAUSSIAN_BUMP, 2, 0.4, quad_points=65)
    f = target_by_name("circle")
    pts = np.random.default_rng(1).uniform(-1, 1, size=(5, 2))
    batch = mollify(kern, f, pts)
    singles = np.array([mollify(kern, f, p) for p in pts])
    assert np.allclose(batch, singles, rtol=1e-14, atol=1e-15)


def test_mollify_memory_follows_the_quadrature_size():
    # 49^3 nodes leave room for 2 points a call, which trace 16 MiB; 16 points
    # a call, the chunk of the 2-D default, would trace 61 MiB
    eps = 0.3
    kern = build_kernel(GAUSSIAN_BUMP, 3, eps, quad_points=49)
    pts = np.random.default_rng(2).uniform(-1, 1, size=(16, 3))
    got, peak = traced_peak(mollify, kern, lambda z: np.einsum("ij,ij->i", z, z),
                            pts)
    assert peak < 20 * 2**20, peak / 2**20
    # the second moment of the normalized Gaussian product kernel is eps^2 / 2 per axis
    assert np.abs(got - (np.sum(pts * pts, axis=1) + 1.5 * eps * eps)).max() < 1e-9


def test_convergence_report_errors_shrink():
    rows = convergence_report(GAUSSIAN_BUMP, [0.4, 0.2, 0.1], target_by_name("circle"),
                              Grid2D(h=1.0 / 8.0), quad_points=65)
    assert [r.eps for r in rows] == [0.4, 0.2, 0.1]
    sup = [r.sup_error for r in rows]
    l2 = [r.l2_error for r in rows]
    assert all(a > b for a, b in zip(sup, sup[1:]))
    assert all(a > b for a, b in zip(l2, l2[1:]))
    assert all(r.l2_error <= r.sup_error for r in rows)


def test_cli_demo_reads_the_library_quadrature_default(capsys):
    assert main(["mollifier-demo", "--eps", "0.4,0.2", "--grid", "1/4"]) == 0
    buf = io.StringIO()
    write_convergence_csv(convergence_report(GAUSSIAN_BUMP, [0.4, 0.2], target_by_name("circle"),
                                             Grid2D(h=0.25)), buf)
    assert capsys.readouterr().out == buf.getvalue()


def test_convergence_report_validation():
    grid = Grid2D(h=0.5)
    f = target_by_name("cone")
    with pytest.raises(ValueError, match="empty"):
        convergence_report(GAUSSIAN_BUMP, [], f, grid)
    with pytest.raises(ValueError, match="positive"):
        convergence_report(GAUSSIAN_BUMP, [0.4, -0.1], f, grid)
    with pytest.raises(ValueError, match="decreasing"):
        convergence_report(GAUSSIAN_BUMP, [0.1, 0.2], f, grid)
    with pytest.raises(ValueError, match="decreasing"):
        convergence_report(GAUSSIAN_BUMP, [0.2, 0.2], f, grid)


def test_convergence_csv_format():
    rows = convergence_report(GAUSSIAN_BUMP, [0.5, 0.25], target_by_name("cone"),
                              Grid2D(h=0.5), quad_points=33)
    buf = io.StringIO()
    write_convergence_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "eps,sup_error,l2_error"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == rows[0].sup_error
