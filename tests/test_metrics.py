"""Zygmund seminorm, H2-type error, localization ratio."""

import numpy as np
import pytest
from helpers import discrete_laplacian, zygmund_oracle

from prodmlp import (
    Grid2D,
    MetricConfig,
    ZygmundSpec,
    annulus_region,
    approximation_report,
    disk_region,
    h2_error,
    localization_ratio,
    node_error_field,
    sample_widened,
    widened_axis,
    zygmund_seminorm,
)
from prodmlp.fdgrid import ScalarField

GRID8 = Grid2D(h=1.0 / 8.0)  # the 17x17 grid


# ---------------------------------------------------------------------------
# Zygmund spec plumbing
# ---------------------------------------------------------------------------


def test_spec_validation():
    ZygmundSpec()  # defaults are fine
    with pytest.raises(ValueError):
        ZygmundSpec(alpha=0.0)
    with pytest.raises(ValueError):
        ZygmundSpec(alpha=1.0)
    with pytest.raises(ValueError):
        ZygmundSpec(k_max=0)


# ---------------------------------------------------------------------------
# seminorm values
# ---------------------------------------------------------------------------


def test_seminorm_vanishes_on_affine_functions():
    # second differences of a + b.x are identically zero
    rng = np.random.default_rng(0)
    spec = ZygmundSpec()
    for _ in range(10):
        a = rng.normal(size=2)
        b = rng.normal()
        u = lambda x: x @ a + b
        assert zygmund_seminorm(u, spec, GRID8) <= 1e-14


def test_seminorm_of_radial_kink():
    # u(x) = |x|: the second difference at the origin along an axis is
    # exactly 2h, every other node gives less, so the seminorm with a single
    # increment is 2 h / h^0.8 = 2 h^0.2:
    #   h = 1/8:   2 * (1/8)^0.2   = 1.3195079107728942   (mpmath)
    #   h = 1/128: 2 * (1/128)^0.2 = 0.757858283255199
    u = lambda x: np.hypot(x[..., 0], x[..., 1])
    spec = ZygmundSpec(alpha=0.8, k_max=1)
    assert abs(zygmund_seminorm(u, spec, GRID8) - 1.3195079107728942) < 1e-10
    assert abs(zygmund_seminorm(u, spec, Grid2D(h=1.0 / 128.0))
               - 0.757858283255199) < 1e-10


def test_seminorm_of_parabola():
    # u = x1^2 has axis second difference 2 v^2, so the quotient 2 (k h)^1.2
    # is maximized at the largest increment; with k_max = 8 on h = 1/8 the
    # winning increment has length exactly 1 and the seminorm is 2
    u = lambda x: x[..., 0] ** 2
    assert abs(zygmund_seminorm(u, ZygmundSpec(alpha=0.8, k_max=8), GRID8) - 2.0) < 1e-12


def test_diagonal_increments():
    # u = x1 x2 is affine along both axes, the seminorm sees nothing there;
    # the diagonal second difference is 2 d^2 with |v| = d sqrt(2), so with
    # k_max = 8 on h = 1/8 (d = 1) the value is 2 / 2^0.4 = 2^0.6
    #   = 1.515716566510398 (mpmath)
    u = lambda x: x[..., 0] * x[..., 1]
    axes_only = zygmund_seminorm(u, ZygmundSpec(alpha=0.8, k_max=8), GRID8)
    assert axes_only <= 1e-14
    with_diag = zygmund_seminorm(
        u, ZygmundSpec(alpha=0.8, k_max=8, include_diagonals=True), GRID8)
    assert abs(with_diag - 1.515716566510398) < 1e-12


def test_seminorm_matches_exhaustive_oracle():
    # the vectorized extended-grid evaluation against plain loops on the
    # 17x17 grid, for a function with no special structure
    def u(x):
        x = np.atleast_2d(x)
        out = np.sin(3 * x[..., 0]) * np.exp(-x[..., 1]) + 0.3 * np.cos(5 * x[..., 1])
        return out if out.size > 1 else float(out[0])

    for spec in (ZygmundSpec(),
                 ZygmundSpec(alpha=0.35, k_max=3),
                 ZygmundSpec(alpha=0.8, k_max=3, include_diagonals=True),
                 ZygmundSpec(alpha=0.6, k_max=4)):
        got = zygmund_seminorm(u, spec, GRID8)
        want = zygmund_oracle(u, spec, GRID8)
        assert abs(got - want) <= 1e-12, spec


def test_seminorm_uses_points_outside_the_square():
    # an increment from a boundary node lands outside [-1, 1]^2; a spike just
    # outside must be visible to the seminorm
    def u(x):
        x = np.atleast_2d(x)
        return np.where((np.abs(x[..., 0] - 1.125) < 1e-9) & (np.abs(x[..., 1]) < 1e-9),
                        1.0, 0.0)

    spec = ZygmundSpec(alpha=0.8, k_max=1)
    got = zygmund_seminorm(u, spec, GRID8)
    # second difference at (1, 0) with v = h e1 picks up the spike once
    want = 1.0 / GRID8.h**0.8
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# H2-type error
# ---------------------------------------------------------------------------


def test_h2_error_frozen_case():
    # F = x1^2 + x2^2 against 0 on the h = 1/2 grid: the node means are
    # exactly mean F^2 = 1.35 and (lap F - 0)^2 = 16, so the distance is
    # sqrt(17.35) = 4.165333119931706 (mpmath)
    F = lambda x: x[..., 0] ** 2 + x[..., 1] ** 2
    zero = lambda x: np.zeros(len(np.atleast_2d(x)))
    got = h2_error(F, zero, Grid2D(h=0.5))
    assert abs(got - 4.165333119931706) < 1e-12


def test_h2_error_zero_for_identical_functions():
    F = lambda x: np.sin(x[..., 0]) + x[..., 1] ** 3
    assert h2_error(F, F, GRID8) == 0.0


def test_h2_error_matches_loop_oracle():
    rng = np.random.default_rng(1)
    w = rng.normal(size=4)
    F = lambda x: np.sin(w[0] * x[..., 0]) * np.cos(w[1] * x[..., 1])
    f = lambda x: w[2] * x[..., 0] ** 2 + w[3] * x[..., 1]
    grid = Grid2D(h=0.25)
    sq = 0.0
    lap_sq = 0.0
    for node in grid.node_array():
        sq += (float(F(node[None])[0]) - float(f(node[None])[0])) ** 2
        lap_d = discrete_laplacian(F, node, grid.h) - discrete_laplacian(f, node, grid.h)
        lap_sq += lap_d**2
    n = grid.nodes_per_axis**2
    want = np.sqrt(sq / n + lap_sq / n)
    assert abs(h2_error(F, f, grid) - want) < 1e-12


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def test_region_predicates():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.3, 0.4], [0.9, 0.0]])
    assert np.array_equal(disk_region(0.6)(pts), [True, True, True, False])
    # |r - 0.5| < 0.15 keeps radii in (0.35, 0.65)
    assert np.array_equal(annulus_region(0.5, 0.15)(pts), [False, True, True, False])


def test_localization_ratio_frozen_case():
    # h = 1/2 grid has 25 nodes; disk_region(0.6) contains the 5 nodes
    # (0,0), (+-1/2, 0), (0, +-1/2).  An indicator field of that disk puts
    # all its mass there: ratio = 1 / (5/25) = 5
    grid = Grid2D(h=0.5)
    region = disk_region(0.6)
    vals = region(grid.node_array()).astype(float).reshape(5, 5)
    ratio = localization_ratio(ScalarField(grid=grid, values=vals), region)
    assert abs(ratio - 5.0) < 1e-12


def test_localization_ratio_uniform_field_is_one():
    grid = Grid2D(h=0.25)
    field = ScalarField(grid=grid, values=np.full((9, 9), 0.37))
    assert abs(localization_ratio(field, disk_region(0.6)) - 1.0) < 1e-12


def test_localization_ratio_zero_field_is_none():
    grid = Grid2D(h=0.5)
    field = ScalarField(grid=grid, values=np.zeros((5, 5)))
    assert localization_ratio(field, disk_region(0.6)) is None


def test_localization_ratio_improper_region():
    grid = Grid2D(h=0.5)
    field = ScalarField(grid=grid, values=np.ones((5, 5)))
    with pytest.raises(ValueError, match="proper nonempty subset"):
        localization_ratio(field, disk_region(10.0))
    # a thin annulus missing every node of the coarse grid comes up empty
    with pytest.raises(ValueError, match="proper nonempty subset"):
        localization_ratio(field, annulus_region(0.3, 0.01))


def widened_error(F, f, mc):
    """F - f sampled on the metric grid widened by the Zygmund margin."""
    return sample_widened(F, mc) - sample_widened(f, mc)


def test_error_field_values():
    grid = Grid2D(h=0.5)
    mc = MetricConfig(grid=grid)
    F = lambda x: x[..., 0]
    f = lambda x: x[..., 1]
    ef = node_error_field(widened_error(F, f, mc), mc)
    assert ef.grid == grid
    x, y = grid.node_array().T
    assert np.array_equal(ef.values.ravel(), np.abs(x - y))
    assert np.all(ef.values >= 0)


# ---------------------------------------------------------------------------
# bundled report
# ---------------------------------------------------------------------------


def test_approximation_report_consistency():
    mc = MetricConfig(grid=GRID8, zygmund=ZygmundSpec(k_max=2))
    F = lambda x: np.tanh(2 * x[..., 0] + x[..., 1])
    f = lambda x: np.tanh(2 * x[..., 0])
    rep = approximation_report(widened_error(F, f, mc), mc)
    nodes = GRID8.node_array()
    l2_direct = float(np.sqrt(np.mean((F(nodes) - f(nodes)) ** 2)))
    assert abs(rep.l2_error - l2_direct) < 1e-14
    assert rep.h2_error == h2_error(F, f, GRID8)
    diff = lambda x: F(x) - f(x)
    assert rep.zygmund_error == zygmund_seminorm(diff, mc.zygmund, GRID8)
    # the Laplacian mismatch only adds error mass
    assert rep.h2_error >= rep.l2_error


def test_approximation_report_perfect_fit():
    mc = MetricConfig(grid=Grid2D(h=0.25), zygmund=ZygmundSpec(k_max=2))
    F = lambda x: 0.5 * x[..., 0] + 1.0
    rep = approximation_report(widened_error(F, F, mc), mc)
    assert rep.l2_error == 0.0
    assert rep.h2_error == 0.0
    assert rep.zygmund_error == 0.0


def test_approximation_report_propagates_nan():
    # a NaN in F must surface in every error, never as a finite Zygmund value
    mc = MetricConfig(grid=GRID8, zygmund=ZygmundSpec(k_max=2))
    F = lambda x: np.where(np.all(x == 0.0, axis=-1), np.nan, x[..., 0] ** 2)
    rep = approximation_report(widened_error(F, lambda x: 0.0 * x[..., 0], mc), mc)
    assert np.isnan(rep.l2_error)
    assert np.isnan(rep.h2_error)
    assert np.isnan(rep.zygmund_error)


def test_approximation_report_evaluates_once_on_the_widened_grid():
    # every metric reads slices of one array on the grid widened by k_max
    # nodes per side: (17 + 2 * 2)**2 and (17 + 2 * 4)**2, which
    # sample_widened fills with one call
    for spec, points in ((ZygmundSpec(k_max=2), 21**2), (ZygmundSpec(k_max=4), 25**2)):
        calls = []

        def F(x):
            calls.append(len(x))
            return np.tanh(2 * x[..., 0] + x[..., 1])

        mc = MetricConfig(grid=GRID8, zygmund=spec)
        err = widened_error(F, lambda x: np.tanh(2 * x[..., 0]), mc)
        assert calls == [points], spec
        assert len(widened_axis(mc)) ** 2 == points
        approximation_report(err, mc)
        assert calls == [points], spec
        # an array of another grid is refused, not sliced
        with pytest.raises(ValueError, match="widened grid"):
            approximation_report(err[1:, 1:], mc)
