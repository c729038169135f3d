"""Uniform grids on [-1, 1]^2, sampled fields, and the 5-point Laplacian.

Grid spacings must divide 2 exactly in floating point (so in practice h is
dyadic, h = 2 / M with M a power of two).  That guarantee makes every node
coordinate -1 + i * h exact, which in turn lets stencil identities that hold
in exact arithmetic hold to machine precision on the grid.

Functions passed in are treated as total on R^2: stencils and shifted
evaluations near the boundary simply evaluate outside [-1, 1]^2 instead of
switching to a one-sided formula.
"""

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid2D",
    "ScalarField",
    "laplacian_stencil",
    "grid_laplacian",
    "laplacian_field",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid with nodes (-1 + i*h, -1 + j*h), 0 <= i, j <= M."""

    h: float

    def __post_init__(self):
        h = float(self.h)
        if not h > 0:
            raise ValueError(f"grid spacing must be positive, got {h}")
        q = 2.0 / h
        # Only M a power of two makes h and every node coordinate exactly
        # representable; near-misses like 0.01 pass a naive 2/h round trip.
        m = int(q) if q == np.floor(q) else 0
        if m < 1 or m & (m - 1) or m * h != 2.0:
            raise ValueError(
                f"grid spacing {h!r} does not divide 2 exactly; "
                "use h = 2 / M with M a power of two"
            )
        object.__setattr__(self, "h", h)

    @property
    def divisions(self) -> int:
        """Cells per axis, M = 2 / h."""
        return round(2.0 / self.h)

    @property
    def nodes_per_axis(self) -> int:
        return self.divisions + 1

    def axis(self, widen: int = 0) -> np.ndarray:
        """Node coordinates -1 + i*h for -widen <= i <= M + widen, exact for dyadic h."""
        return -1.0 + self.h * np.arange(-widen, self.nodes_per_axis + widen)

    def node_array(self, widen: int = 0) -> np.ndarray:
        """The nodes of axis(widen) x axis(widen) as a (k, 2) point list, x-index outermost."""
        ax = self.axis(widen)
        return np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)


@dataclass
class ScalarField:
    """Nodal values on a Grid2D; values[i, j] lives at (-1 + i*h, -1 + j*h)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.nodes_per_axis
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (n, n):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid ({n}, {n})"
            )


def laplacian_stencil(h: float):
    """Node shifts (5, 2) and matching coefficients (5,) of the 5-point Laplacian at spacing h."""
    shifts = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.intp)
    return shifts, np.array([-4.0, 1.0, 1.0, 1.0, 1.0]) / float(h) ** 2


def grid_laplacian(wide: np.ndarray, h: float, margin: int = 1) -> np.ndarray:
    """The 5-point Laplacian at the nodes of a grid of spacing h, from an array of values
    on that grid widened by margin >= 1 nodes per side: the stencil's coefficients times
    the shifted node blocks, summed in stencil order.  Exact on per-coordinate cubics."""
    n = len(wide) - 2 * margin
    shifts, coeffs = laplacian_stencil(h)
    return sum(c * wide[margin + i : margin + i + n, margin + j : margin + j + n]
               for (i, j), c in zip(shifts, coeffs))


def laplacian_field(fn, grid: Grid2D) -> ScalarField:
    """Discrete Laplacian of fn on every node, spacing grid.h, from one evaluation of fn
    on the nodes of the grid widened by one."""
    side = grid.nodes_per_axis + 2
    wide = np.asarray(fn(grid.node_array(1)), dtype=float).reshape(side, side)
    return ScalarField(grid=grid, values=grid_laplacian(wide, grid.h))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------
# repr() of a float is the shortest string that parses back to the same
# double, so writing with repr makes the round trip exact.


@contextmanager
def _atomic_text(path):
    """A stream to a temp file that replaces path only if the block completes."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _line_error(path, columns: int, row: int = -1, complaint: str = "") -> ValueError:
    """A ValueError naming the line of a CSV artifact's data row `row`, or by default of
    its first row that np.loadtxt, reading the line alone, refuses as `columns` numbers."""
    with open(path, encoding="utf-8") as fh:
        rows = [(k, ln.rstrip("\n")) for k, ln in enumerate(fh, start=1) if k > 1 and ln != "\n"]
    for r, (k, line) in enumerate(rows):
        try:
            ok = np.loadtxt([line], delimiter=",", comments=None, ndmin=2).shape == (1, columns)
        except ValueError:
            ok = False
        if r == row or not ok:
            return ValueError(f"CSV {path} line {k}: {line!r} "
                              f"{complaint or f'is not {columns} comma-separated numbers'}")
    return ValueError(f"CSV {path} is not a table of {columns} columns")


def _read_table(path, header: str, columns: int) -> np.ndarray:
    """The rows under a CSV artifact's header line as a (rows, columns) float array read
    by np.loadtxt; a file that it refuses raises _line_error."""
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # a file of no rows
        head = fh.readline().strip()
        if head != header:
            raise ValueError(f"unexpected CSV header {head!r} in {path}, expected {header!r}")
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            raise _line_error(path, columns) from None
    if table.size and table.shape[1] != columns:
        raise _line_error(path, columns)
    return table.reshape(-1, columns)


def write_field_csv(field: ScalarField, path) -> None:
    """Write `x,y,value` rows in node order (x varies slowest), one batch of
    lines per grid row; each axis value is formatted once."""
    ax = [repr(float(a)) for a in field.grid.axis()]
    with _atomic_text(path) as fh:
        fh.write("x,y,value\n")
        for x, row in zip(ax, field.values):
            fh.write("".join([f"{x},{y},{float(v)!r}\n" for y, v in zip(ax, row.tolist())]))


def read_field_csv(path) -> ScalarField:
    """Read a field CSV whose x,y columns are a grid's nodes in node order
    (x varies slowest); any other row raises a ValueError naming its line."""
    table = _read_table(path, "x,y,value", 3)
    n = round(np.sqrt(len(table)))
    if n < 2 or n * n != len(table):
        raise ValueError(f"field CSV {path} has {len(table)} rows, not a square grid")
    grid = Grid2D(h=2.0 / (n - 1))
    nodes = grid.node_array()
    # node coordinates are dyadic, so the written ones compare exactly
    off = np.flatnonzero(np.any(table[:, :2] != nodes, axis=1))
    if off.size:
        raise _line_error(path, 3, off[0], f"is not at node {tuple(nodes[off[0]].tolist())!r}")
    return ScalarField(grid=grid, values=table[:, 2].reshape(n, n).copy())
