"""Grids, node exactness, the 5-point stencil, field CSV round trips."""

import numpy as np
import pytest

from prodmlp import (
    Grid2D,
    ScalarField,
    discrete_laplacian,
    laplacian_field,
    read_field_csv,
    sample_field,
    target_by_name,
    write_field_csv,
)
from prodmlp.fdgrid import laplacian_stencil


def test_grid_accepts_dyadic_spacings():
    for k in range(0, 8):
        g = Grid2D(h=2.0 ** (-k))
        assert g.divisions == 2 ** (k + 1)
        assert g.nodes_per_axis == 2 ** (k + 1) + 1


def test_grid_rejects_non_divisors():
    # 1/100 looks like it divides 2 but does not in floating point:
    # 200 * float(0.01) != 2.0, so the node coordinates would drift
    for bad in (0.01, 0.3, 1.0 / 100.0, 2.0 / 3.0, 0.7):
        with pytest.raises(ValueError, match="divide"):
            Grid2D(h=bad)
    with pytest.raises(ValueError):
        Grid2D(h=0.0)
    with pytest.raises(ValueError):
        Grid2D(h=-0.5)


def test_axis_nodes_are_exact():
    g = Grid2D(h=1.0 / 64.0)
    ax = g.axis()
    assert ax[0] == -1.0 and ax[-1] == 1.0
    # every node is the exact dyadic rational -1 + i h
    for i in (1, 13, 64, 100, 128):
        assert ax[i] == -1.0 + i * g.h
    assert 0.0 in ax
    # widened by 3 nodes per side, on the same node formula
    wide = g.axis(3)
    assert wide[0] == -1.0 - 3 * g.h and wide[-1] == 1.0 + 3 * g.h
    assert np.array_equal(wide[3:-3], ax)


def test_node_array_order():
    g = Grid2D(h=1.0)
    nodes = g.node_array()
    assert nodes.shape == (9, 2)
    # x varies slowest
    want = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
    assert np.array_equal(nodes, np.array(want, dtype=float))


def test_sample_field_layout():
    g = Grid2D(h=0.5)
    f = sample_field(lambda p: p[:, 0] + 10 * p[:, 1], g)
    assert f.values.shape == (5, 5)
    # values[i, j] lives at (-1 + i h, -1 + j h)
    assert f.values[0, 0] == -11.0
    assert f.values[4, 0] == -9.0
    assert f.values[2, 3] == 5.0


def test_scalar_field_shape_check():
    with pytest.raises(ValueError, match="does not match grid"):
        ScalarField(grid=Grid2D(h=0.5), values=np.zeros((4, 4)))


def test_laplacian_stencil_layout():
    offsets, coeffs = laplacian_stencil(0.25)
    assert offsets.shape == (5, 2) and coeffs.shape == (5,)
    assert np.array_equal(coeffs * 0.25**2, np.array([-4.0, 1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(offsets[0], [0.0, 0.0])
    assert sorted(map(tuple, offsets[1:])) == [(-0.25, 0.0), (0.0, -0.25),
                                               (0.0, 0.25), (0.25, 0.0)]


def test_laplacian_exact_on_low_degree_monomials():
    # exact Laplacian of x^a y^b is a(a-1) x^{a-2} y^b + b(b-1) x^a y^{b-2};
    # the stencil reproduces it exactly for per-coordinate degree <= 3, and
    # on dyadic nodes even the floating-point arithmetic is exact
    tol = 1e-12
    for h in (1.0 / 8.0, 1.0 / 32.0, 1.0 / 128.0):
        pts = Grid2D(h=h).node_array()
        x, y = pts[:, 0], pts[:, 1]
        for a in range(4):
            for b in range(4):
                got = discrete_laplacian(lambda p: p[:, 0] ** a * p[:, 1] ** b, pts, h)
                want = np.zeros(len(pts))
                if a >= 2:
                    want += a * (a - 1) * x ** (a - 2) * y**b
                if b >= 2:
                    want += b * (b - 1) * x**a * y ** (b - 2)
                assert np.abs(got - want).max() <= tol, (a, b, h)


def test_laplacian_of_squared_radius_is_four():
    for h in (0.5, 1.0 / 16.0, 1.0 / 128.0):
        pts = Grid2D(h=h).node_array()
        got = discrete_laplacian(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, pts, h)
        assert np.abs(got - 4.0).max() <= 1e-12


def test_laplacian_fourth_order_error_term():
    # on x^4 the stencil is not exact: the error is 2 h^2 by Taylor expansion,
    # which pins both the sign convention and the h^2 scaling
    for h in (0.25, 0.125):
        got = discrete_laplacian(lambda p: p[:, 0] ** 4, np.array([0.5, 0.0]), h)
        want_exact = 12 * 0.5**2
        assert abs(got - want_exact - 2 * h**2) < 1e-10


def test_laplacian_single_point_and_batch():
    fn = lambda p: np.sin(p[:, 0]) * p[:, 1]
    single = discrete_laplacian(fn, np.array([0.25, -0.5]), 0.125)
    batch = discrete_laplacian(fn, np.array([[0.25, -0.5], [0.0, 0.0]]), 0.125)
    assert isinstance(single, float)
    assert batch.shape == (2,)
    assert batch[0] == single


def test_laplacian_uses_points_outside_the_square():
    # stencils at the boundary reach outside [-1, 1]^2 and simply evaluate
    # there; a function defined on all of R^2 gives the interior answer
    h = 0.25
    got = discrete_laplacian(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2,
                             np.array([1.0, 1.0]), h)
    assert abs(got - 4.0) < 1e-12


def test_laplacian_field_matches_pointwise():
    # laplacian_field samples fn once on the widened nodes; training reads its
    # values by node in place of discrete_laplacian at the batch's centers, so
    # they must agree bitwise, on the whole grid and on node batches
    cases = [(lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1]), 0.25)]
    cases += [(target_by_name(name), h) for name in ("cone", "circle") for h in (0.25, 1 / 128)]
    rng = np.random.default_rng(0)
    for fn, h in cases:
        g = Grid2D(h=h)
        lf = laplacian_field(fn, g)
        n = g.nodes_per_axis
        assert lf.values.shape == (n, n)
        direct = discrete_laplacian(fn, g.node_array(), g.h).reshape(n, n)
        assert np.array_equal(lf.values, direct)
        for size in (1, 7, 512, 2048):
            k = rng.integers(0, n * n, size=size)
            batch = discrete_laplacian(fn, g.node_array()[k], g.h)
            assert np.array_equal(lf.values.ravel()[k], batch)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_field_csv_round_trip_is_exact(tmp_path):
    g = Grid2D(h=0.25)
    rng = np.random.default_rng(0)
    f = ScalarField(grid=g, values=rng.normal(size=(9, 9)) * 1e-7)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert back.grid == g
    # repr round trip: bitwise equality, not just closeness
    assert np.array_equal(back.values, f.values)


def test_field_csv_header_and_order(tmp_path):
    g = Grid2D(h=1.0)
    f = sample_field(lambda p: p[:, 0] + 10 * p[:, 1], g)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 9
    # first row is the (-1, -1) corner, x varies slowest
    assert lines[1] == "-1.0,-1.0,-11.0"
    assert lines[2] == "-1.0,0.0,-1.0"
    assert lines[4] == "0.0,-1.0,-10.0"


def test_read_field_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_field_csv(path)


def test_read_field_csv_rejects_non_square(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,value\n" + "0.0,0.0,1.0\n" * 3)
    with pytest.raises(ValueError, match="square"):
        read_field_csv(path)


@pytest.mark.parametrize("row", ["-1.0,0.0\n", "-1.0,0.0,-1.0,5.0\n", "-1.0,0.0,abc\n",
                                 "-1.0,0.0,1_0\n", "   \n"],
                         ids=["two-fields", "four-fields", "not-a-number",
                              "python-only-number", "blank-but-spaces"])
def test_read_field_csv_refuses_a_row_that_is_not_three_numbers(tmp_path, row):
    # rows off the grid's node order are the property tests' case
    path = tmp_path / "field.csv"
    write_field_csv(sample_field(lambda p: p[:, 0] + 10 * p[:, 1], Grid2D(h=1.0)), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = row
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="line 3:"):
        read_field_csv(path)
