"""Regularity-sensitive error metrics.

Plain L2 distance barely notices whether an approximation error is smooth or
concentrated at a singular set.  The metrics here do: a discrete Zygmund-type
seminorm built from second differences, an H^2-type error that adds a
discrete-Laplacian mismatch to the L2 term, and a localization ratio that
measures how much of the squared error mass piles up in a chosen region.

The L2, H^2-type and Zygmund errors all come from one evaluation of F - f on
the metric grid widened by the Zygmund margin; each reads shifted slices of
that one array.
"""

from dataclasses import dataclass

import numpy as np

from .fdgrid import Grid2D, ScalarField, laplacian_stencil, sample_field

__all__ = [
    "ZygmundSpec",
    "zygmund_seminorm",
    "h2_error",
    "error_field",
    "localization_ratio",
    "disk_region",
    "annulus_region",
    "MetricConfig",
    "MetricReport",
    "approximation_report",
]


@dataclass(frozen=True)
class ZygmundSpec:
    """Parameters of the discrete Zygmund-type seminorm.

    The seminorm of u at smoothness order alpha is

        max over grid nodes x and increments v of
            |u(x + v) + u(x - v) - 2 u(x)| / |v| ** alpha

    with increments v = k * h_z * e for k = 1..k_max along the coordinate
    axes (plus the two diagonal directions when include_diagonals is set;
    |v| is the Euclidean length, so diagonal increments are longer by
    sqrt(2)).  h_z defaults to the spacing of the evaluation grid and must be
    an integer multiple of it.

    denominator_exponent overrides the power of |v| in the quotient (it
    defaults to alpha); setting it to 1 + alpha measures oscillations on the
    first-derivative scale instead.
    """

    alpha: float = 0.8
    h_z: float | None = None
    k_max: int = 8
    include_diagonals: bool = False
    denominator_exponent: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.h_z is not None and not self.h_z > 0:
            raise ValueError(f"h_z must be positive, got {self.h_z}")

    def resolved_h(self, grid: Grid2D) -> tuple[float, int]:
        """Increment spacing and its stride in grid nodes."""
        if self.h_z is None:
            return grid.h, 1
        stride = self.h_z / grid.h
        if abs(stride - round(stride)) > 1e-12 or round(stride) < 1:
            raise ValueError(
                f"h_z={self.h_z} must be a positive integer multiple of the "
                f"grid spacing {grid.h}"
            )
        return self.h_z, round(stride)


def zygmund_seminorm(u, spec: ZygmundSpec, grid: Grid2D) -> float:
    """Discrete Zygmund-type seminorm of a callable u over the grid.

    u is evaluated wherever the increments land, including outside
    [-1, 1]^2 near the boundary; no increment is dropped.
    """
    return _widened_report(u, grid, spec).zygmund_error


def h2_error(F, f, grid: Grid2D) -> float:
    """H^2-type distance between two callables over the grid nodes:

    sqrt( mean |F - f|^2  +  mean |lap_h F - lap_h f|^2 )

    with lap_h the 5-point discrete Laplacian at the grid spacing.
    """
    # k_max = 1 widens the grid by the one node the stencil needs
    return approximation_report(F, f, MetricConfig(grid, ZygmundSpec(k_max=1))).h2_error


def error_field(F, f, grid: Grid2D) -> ScalarField:
    """Pointwise absolute error |F - f| sampled on the grid."""
    return sample_field(lambda x: np.abs(np.asarray(F(x)) - np.asarray(f(x))), grid)


def disk_region(radius: float):
    """Predicate: |x| < radius."""
    return lambda x: np.hypot(x[..., 0], x[..., 1]) < radius


def annulus_region(r0: float, halfwidth: float):
    """Predicate: | |x| - r0 | < halfwidth."""
    return lambda x: np.abs(np.hypot(x[..., 0], x[..., 1]) - r0) < halfwidth


def localization_ratio(field: ScalarField, region) -> float | None:
    """Squared-mass share of a region divided by its node share.

    ratio = (sum of values^2 inside / total sum of values^2)
            / (nodes inside / total nodes)

    1 means the error ignores the region, > 1 means it concentrates there.
    Returns None when the field is identically zero (no error mass to
    localize).  The region must contain some nodes but not all of them.
    """
    mask = np.asarray(region(field.grid.node_array()), dtype=bool).reshape(field.values.shape)
    n_in = int(mask.sum())
    n_tot = mask.size
    if n_in == 0 or n_in == n_tot:
        raise ValueError(
            f"region covers {n_in} of {n_tot} nodes; need a proper nonempty subset"
        )
    sq = field.values**2
    total = float(sq.sum())
    if total == 0.0:
        return None
    return (float(sq[mask].sum()) / total) / (n_in / n_tot)


# ---------------------------------------------------------------------------
# bundled evaluation used by training checkpoints and the harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricConfig:
    grid: Grid2D = Grid2D(h=1.0 / 128.0)
    zygmund: ZygmundSpec = ZygmundSpec()


@dataclass(frozen=True)
class MetricReport:
    l2_error: float
    h2_error: float
    zygmund_error: float


def _widened_report(u, grid: Grid2D, spec: ZygmundSpec) -> MetricReport:
    """L2, H^2-type and Zygmund values of u from one evaluation of u on the
    grid widened by spec's margin of k_max * stride nodes per side.

    Every node, stencil point and increment is a node of the widened grid, and
    node arithmetic is dyadic, so slicing reproduces direct evaluation bitwise.
    """
    h_z, stride = spec.resolved_h(grid)
    margin = spec.k_max * stride
    n = grid.nodes_per_axis
    ext_ax = -1.0 + grid.h * np.arange(-margin, grid.divisions + margin + 1)
    gx, gy = np.meshgrid(ext_ax, ext_ax, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    v = np.asarray(u(pts), dtype=float).reshape(len(ext_ax), len(ext_ax))

    def block(di: int = 0, dj: int = 0) -> np.ndarray:
        return v[margin + di : margin + di + n, margin + dj : margin + dj + n]

    # the 5-point Laplacian as coefficient-weighted shifted slices
    offsets, coeffs = laplacian_stencil(grid.h)
    lap = sum(c * block(*np.rint(o / grid.h).astype(int)) for o, c in zip(offsets, coeffs))
    sq, lap_sq = float(np.mean(block() ** 2)), float(np.mean(lap**2))

    expo = spec.alpha if spec.denominator_exponent is None else spec.denominator_exponent
    best = 0.0
    for k in range(1, spec.k_max + 1):
        d = k * stride
        length = k * h_z
        shifts = [((d, 0), length), ((0, d), length)]
        if spec.include_diagonals:
            shifts += [((d, d), length * np.sqrt(2.0)), ((d, -d), length * np.sqrt(2.0))]
        for (di, dj), vlen in shifts:
            second = block(di, dj) + block(-di, -dj) - 2.0 * block()
            # np.maximum, unlike a comparison, carries a NaN through
            best = float(np.maximum(best, np.abs(second).max() / vlen**expo))
    return MetricReport(l2_error=float(np.sqrt(sq)), h2_error=float(np.sqrt(sq + lap_sq)),
                        zygmund_error=best)


def approximation_report(F, f, mc: MetricConfig) -> MetricReport:
    """L2, H^2-type and Zygmund errors of F against f on the metric grid.

    All three come from one evaluation of F - f on the metric grid widened by
    the Zygmund margin: L2 from the node slice, the Laplacian mismatch from
    five shifted slices, and the Zygmund entry, the seminorm of the error
    function F - f, from the increment slices.
    """
    diff = lambda x: np.asarray(F(x), dtype=float) - np.asarray(f(x), dtype=float)
    return _widened_report(diff, mc.grid, mc.zygmund)
