"""Grids, node exactness, the 5-point stencil, field CSV round trips."""

import numpy as np
import pytest
from helpers import discrete_laplacian

from prodmlp import (
    Grid2D,
    ScalarField,
    laplacian_field,
    read_field_csv,
    target_by_name,
    write_field_csv,
)
from prodmlp.fdgrid import laplacian_stencil

# a 3x3 field whose value at node (x, y) is x + 10 y
LINEAR = ScalarField(grid=Grid2D(h=1.0), values=np.add.outer([-1.0, 0.0, 1.0], [-10.0, 0.0, 10.0]))


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


def test_node_array_widened_layout():
    g = Grid2D(h=0.5)
    for widen in (0, 1, 3):
        nodes = g.node_array(widen)
        side = 5 + 2 * widen
        assert nodes.shape == (side * side, 2)
        # the product of axis(widen) with itself, x outermost: row i * side + j
        # is (-1 + (i - widen) h, -1 + (j - widen) h)
        ax = g.axis(widen)
        assert np.array_equal(nodes.reshape(side, side, 2)[..., 0], np.repeat(ax[:, None], side, 1))
        assert np.array_equal(nodes.reshape(side, side, 2)[..., 1], np.repeat(ax[None], side, 0))
        assert tuple(nodes[0]) == (-1.0 - widen * 0.5,) * 2
        assert tuple(nodes[widen * side + widen]) == (-1.0, -1.0)
    assert np.array_equal(g.node_array(), g.node_array(0))


def test_scalar_field_shape_check():
    with pytest.raises(ValueError, match="does not match grid"):
        ScalarField(grid=Grid2D(h=0.5), values=np.zeros((4, 4)))


def test_laplacian_stencil_layout():
    shifts, coeffs = laplacian_stencil(0.25)
    assert shifts.shape == (5, 2) and coeffs.shape == (5,)
    assert np.issubdtype(shifts.dtype, np.integer)
    assert np.array_equal(coeffs * 0.25**2, np.array([-4.0, 1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(shifts[0], [0, 0])
    assert sorted(map(tuple, shifts[1:].tolist())) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_laplacian_exact_on_low_degree_monomials():
    # exact Laplacian of x^a y^b is a(a-1) x^{a-2} y^b + b(b-1) x^a y^{b-2};
    # the stencil reproduces it exactly for per-coordinate degree <= 3, and
    # on dyadic nodes even the floating-point arithmetic is exact
    tol = 1e-12
    for h in (1.0 / 8.0, 1.0 / 32.0, 1.0 / 128.0):
        g = Grid2D(h=h)
        x, y = g.node_array().T
        for a in range(4):
            for b in range(4):
                got = laplacian_field(lambda p: p[:, 0] ** a * p[:, 1] ** b, g).values.ravel()
                want = np.zeros(len(x))
                if a >= 2:
                    want += a * (a - 1) * x ** (a - 2) * y**b
                if b >= 2:
                    want += b * (b - 1) * x**a * y ** (b - 2)
                assert np.abs(got - want).max() <= tol, (a, b, h)


def test_laplacian_of_squared_radius_is_four():
    for h in (0.5, 1.0 / 16.0, 1.0 / 128.0):
        got = laplacian_field(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, Grid2D(h=h))
        assert np.abs(got.values - 4.0).max() <= 1e-12


def test_laplacian_fourth_order_error_term():
    # on x^4 the stencil is not exact: the error is 2 h^2 by Taylor expansion,
    # which pins both the sign convention and the h^2 scaling; node (0.5, 0)
    # has indices (1.5 / h, 1 / h)
    for h in (0.25, 0.125):
        got = laplacian_field(lambda p: p[:, 0] ** 4, Grid2D(h=h)).values[round(1.5 / h), round(1 / h)]
        want_exact = 12 * 0.5**2
        assert abs(got - want_exact - 2 * h**2) < 1e-10


def test_laplacian_uses_points_outside_the_square():
    # stencils at the boundary reach outside [-1, 1]^2 and simply evaluate
    # there; a function defined on all of R^2 gives the interior answer at
    # the corner node (1, 1)
    got = laplacian_field(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, Grid2D(h=0.25)).values[-1, -1]
    assert abs(got - 4.0) < 1e-12


def test_laplacian_field_evaluates_fn_once():
    # one call on the (M + 3)^2 nodes of the grid widened by one node per side
    for h in (0.5, 1.0 / 128.0):
        g = Grid2D(h=h)
        calls = []

        def fn(p):
            calls.append(len(p))
            return p[:, 0] * p[:, 1]

        laplacian_field(fn, g)
        assert calls == [(g.divisions + 3) ** 2]


def test_laplacian_field_matches_pointwise():
    # training reads laplacian_field's values by node at the batch's stencil
    # centers, so they must equal the 5-point formula evaluated directly at
    # those nodes, bitwise, on the whole grid and on node batches
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
    path = tmp_path / "field.csv"
    write_field_csv(LINEAR, path)
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
    write_field_csv(LINEAR, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = row
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="line 3:"):
        read_field_csv(path)
