"""Regularity-sensitive error metrics.

Plain L2 distance barely notices whether an approximation error is smooth or
concentrated at a singular set.  The metrics here do: a discrete Zygmund-type
seminorm built from second differences, an H^2-type error that adds a
discrete-Laplacian mismatch to the L2 term, and a localization ratio that
measures how much of the squared error mass piles up in a chosen region.

Every metric reads one array, F - f on the metric grid widened by the
Zygmund margin: the L2, H^2-type and Zygmund errors are shifted slices of
it, and the error field is |F - f| on its block of metric-grid nodes.
network.grid_values fills it for a network, sample_widened for a callable.
"""

from dataclasses import dataclass

import numpy as np

from .fdgrid import Grid2D, ScalarField, grid_laplacian

__all__ = [
    "ZygmundSpec",
    "zygmund_seminorm",
    "h2_error",
    "widened_axis",
    "sample_widened",
    "node_error_field",
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

    with increments v = k * h * e for k = 1..k_max, h the spacing of the
    evaluation grid and e a coordinate axis (plus the two diagonal directions
    when include_diagonals is set; |v| is the Euclidean length, so diagonal
    increments are longer by sqrt(2)).
    """

    alpha: float = 0.8
    k_max: int = 8
    include_diagonals: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


def zygmund_seminorm(u, spec: ZygmundSpec, grid: Grid2D) -> float:
    """Discrete Zygmund-type seminorm of a callable u over the grid.

    u is evaluated wherever the increments land, including outside
    [-1, 1]^2 near the boundary; no increment is dropped.
    """
    mc = MetricConfig(grid, spec)
    return approximation_report(sample_widened(u, mc), mc).zygmund_error


def h2_error(F, f, grid: Grid2D) -> float:
    """H^2-type distance between two callables over the grid nodes:

    sqrt( mean |F - f|^2  +  mean |lap_h F - lap_h f|^2 )

    with lap_h the 5-point discrete Laplacian at the grid spacing.
    """
    # k_max = 1 widens the grid by the one node the stencil needs
    mc = MetricConfig(grid, ZygmundSpec(k_max=1))
    return approximation_report(sample_widened(F, mc) - sample_widened(f, mc), mc).h2_error


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


def widened_axis(mc: MetricConfig) -> np.ndarray:
    """Per-axis nodes of the metric grid widened by k_max nodes per side: they
    hold every node, stencil point and increment of the metrics, and node
    arithmetic is dyadic, so slicing reproduces direct evaluation."""
    return mc.grid.axis(mc.zygmund.k_max)


def sample_widened(u, mc: MetricConfig) -> np.ndarray:
    """A vectorized callable u of points (k, 2), sampled on the widened grid."""
    side = len(widened_axis(mc))
    return np.asarray(u(mc.grid.node_array(mc.zygmund.k_max)), dtype=float).reshape(side, side)


def _blocks(err: np.ndarray, mc: MetricConfig):
    """block(di, dj): the metric-grid nodes' block of err shifted by (di, dj) nodes."""
    n, side = mc.grid.nodes_per_axis, len(widened_axis(mc))
    margin = (side - n) // 2
    if np.shape(err) != (side, side):
        raise ValueError(f"error array has shape {np.shape(err)}, not the widened grid's")
    return lambda di=0, dj=0: err[margin + di : margin + di + n, margin + dj : margin + dj + n]


def node_error_field(err: np.ndarray, mc: MetricConfig) -> ScalarField:
    """|F - f| at the metric-grid nodes, from the widened F - f array."""
    return ScalarField(grid=mc.grid, values=np.abs(_blocks(err, mc)()))


def approximation_report(err: np.ndarray, mc: MetricConfig) -> MetricReport:
    """L2, H^2-type and Zygmund errors from the widened F - f array: L2 from
    the node block, the Laplacian mismatch from fdgrid.grid_laplacian with
    the Zygmund margin, and the Zygmund entry, the seminorm of the error
    function F - f, from the increment blocks."""
    block = _blocks(err, mc)
    grid, spec = mc.grid, mc.zygmund
    lap = grid_laplacian(err, grid.h, spec.k_max)
    sq, lap_sq = float(np.mean(block() ** 2)), float(np.mean(lap**2))

    best = 0.0
    two = 2.0 * block()
    second = np.empty_like(two)
    for k in range(1, spec.k_max + 1):
        length = k * grid.h
        shifts = [((k, 0), length), ((0, k), length)]
        if spec.include_diagonals:
            shifts += [((k, k), length * np.sqrt(2.0)), ((k, -k), length * np.sqrt(2.0))]
        for (di, dj), vlen in shifts:
            np.add(block(di, dj), block(-di, -dj), out=second)
            second -= two
            # np.maximum, unlike a comparison, carries a NaN through
            best = float(np.maximum(best, np.abs(second, out=second).max() / vlen**spec.alpha))
    return MetricReport(l2_error=float(np.sqrt(sq)), h2_error=float(np.sqrt(sq + lap_sq)),
                        zygmund_error=best)
