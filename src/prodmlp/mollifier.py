"""Product-form mollifiers built from an integrable activation.

A decaying activation sigma induces a normalized product kernel on R^m,

    xi(x) = ||sigma||_L1^{-m} * prod_i sigma(x_i),
    xi_eps(x) = eps^{-m} * xi(x / eps),

which integrates to 1 for every eps and concentrates as eps -> 0, so
convolving with xi_eps is an approximate identity.  Because the kernel is a
product of one-dimensional activations, xi_eps(. - y) is exactly one
multiplicative network block: factor weights 1/eps, biases -y_i/eps, outer
coefficient eps^{-m} / ||sigma||_L1^m.

All integrals use composite trapezoid quadrature on a window wide enough
that the activation tail is below 1e-16.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fdgrid import Grid2D
from .network import Activation, MmlpParams, _as_batch

__all__ = [
    "MollifierKernel",
    "build_kernel",
    "kernel_value",
    "kernel_as_block",
    "mollify",
    "ConvergenceRow",
    "convergence_report",
]

TAIL_CUTOFF = 1e-16
DEFAULT_QUAD_POINTS = 129
# (point, quadrature node) pairs per f call in mollify, which takes
# max(1, _PAIRS_PER_CALL // q^m) points a call: 16 at the default in 2-D
_PAIRS_PER_CALL = 16 * DEFAULT_QUAD_POINTS**2


def _window_radius(act: Activation) -> float:
    """Smallest tested radius R with |sigma(+-R)| below the tail cutoff.

    Grows R geometrically; activations that do not decay (tanh) never get
    under the cutoff and are rejected.
    """
    r = 1.0
    while max(abs(float(act.f(np.array(r)))), abs(float(act.f(np.array(-r))))) >= TAIL_CUTOFF:
        r *= 1.5
        if r > 1e6:
            raise ValueError(
                f"activation {act.name!r} does not decay below {TAIL_CUTOFF} "
                "on any bounded window; cannot build an integrable kernel"
            )
    return r


def _quad_axis(radius: float, points: int):
    """Trapezoid nodes and weights on [-radius, radius]."""
    if points < 3:
        raise ValueError(f"need at least 3 quadrature points, got {points}")
    t = np.linspace(-radius, radius, points)
    w = np.full(points, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


@dataclass(frozen=True)
class MollifierKernel:
    act: Activation
    m: int
    eps: float
    l1_norm: float         # 1D L1 norm of the activation over its window
    window_radius: float   # window half-width at unit scale
    quad_points: int

    def support_radius(self) -> float:
        """Half-width of the scaled window outside which the kernel is dust."""
        return self.window_radius * self.eps


def build_kernel(act: Activation, m: int, eps: float,
                 quad_points: int = DEFAULT_QUAD_POINTS) -> MollifierKernel:
    """Construct the normalized product kernel for one activation and scale.

    quad_points trapezoid nodes per axis give the L1 norm and every mollify
    with this kernel.
    """
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    radius = _window_radius(act)
    t, w = _quad_axis(radius, quad_points)
    l1 = float(w @ np.abs(act.f(t)))
    if l1 <= 0.0:
        raise ValueError(f"activation {act.name!r} has vanishing L1 norm")
    return MollifierKernel(act=act, m=m, eps=eps, l1_norm=l1,
                           window_radius=radius, quad_points=quad_points)


def kernel_value(kern: MollifierKernel, x: np.ndarray):
    """Evaluate xi_eps at x of shape (m,) or (batch, m)."""
    xb, single = _as_batch(x, kern.m)
    base = np.prod(kern.act.f(xb / kern.eps), axis=1) / kern.l1_norm**kern.m
    out = kern.eps ** (-kern.m) * base
    return float(out[0]) if single else out


def kernel_as_block(kern: MollifierKernel, center: np.ndarray | None = None) -> MmlpParams:
    """Render xi_eps(. - center) as a single multiplicative network block:
    each factor is sigma(x_i / eps - center_i / eps) = sigma((x - center)_i / eps).
    """
    y = np.zeros(kern.m) if center is None else np.asarray(center, dtype=float)
    if y.shape != (kern.m,):
        raise ValueError(f"center must have shape ({kern.m},), got {y.shape}")
    w = np.full((1, kern.m), 1.0 / kern.eps)
    b = (-y / kern.eps)[None, :]
    alpha = np.array([kern.eps ** (-kern.m) / kern.l1_norm**kern.m])
    return MmlpParams(w=w, b=b, alpha=alpha, c=0.0)


def mollify(kern: MollifierKernel, f, x: np.ndarray):
    """(f * xi_eps)(x) by tensor-product trapezoid quadrature, kern.quad_points
    nodes per axis.

    The weighted kernel is the m-fold outer product of one per-axis vector
    w_t * sigma(t / eps) / (eps * ||sigma||_L1).  f must accept arrays of
    shape (k, m).  x may be one point (m,) or a batch (n, m); batches are
    processed in chunks to bound memory.
    """
    xb, single = _as_batch(x, kern.m)
    t, w = _quad_axis(kern.support_radius(), kern.quad_points)
    factor = w * kern.act.f(t / kern.eps) / (kern.eps * kern.l1_norm)
    weighted_kernel = reduce(np.multiply.outer, [factor] * kern.m).ravel()   # (q^m,)
    z = np.stack(np.meshgrid(*([t] * kern.m), indexing="ij"), axis=-1).reshape(-1, kern.m)

    chunk_size = max(1, _PAIRS_PER_CALL // len(z))
    out = np.empty(len(xb))
    for lo in range(0, len(xb), chunk_size):
        chunk = xb[lo : lo + chunk_size]
        shifted = chunk[:, None, :] - z[None, :, :]             # (c, q^m, m)
        vals = np.asarray(f(shifted.reshape(-1, kern.m)), dtype=float)
        out[lo : lo + chunk_size] = vals.reshape(len(chunk), -1) @ weighted_kernel
    return float(out[0]) if single else out


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    sup_error: float
    l2_error: float


def convergence_report(act: Activation, eps_list, f, grid: Grid2D,
                       quad_points: int = DEFAULT_QUAD_POINTS) -> list[ConvergenceRow]:
    """Mollification error of f on the grid nodes for a decreasing eps list.

    For each eps: sup and root-mean-square node error of f * xi_eps against
    f.  The eps list must be finite, positive and strictly decreasing so the rows
    read as a convergence table.
    """
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise ValueError("eps list is empty")
    if not all(0 < e < np.inf for e in eps_arr):
        raise ValueError(f"eps values must be finite and positive, got {eps_arr}")
    if any(a <= b for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError(f"eps values must be strictly decreasing, got {eps_arr}")

    nodes = grid.node_array()
    exact = np.asarray(f(nodes), dtype=float)
    rows = []
    for eps in eps_arr:
        err = mollify(build_kernel(act, 2, eps, quad_points), f, nodes) - exact
        rows.append(ConvergenceRow(
            eps=eps,
            sup_error=float(np.abs(err).max()),
            l2_error=float(np.sqrt(np.mean(err**2))),
        ))
    return rows


def write_convergence_csv(rows: list[ConvergenceRow], fh) -> None:
    """Write `eps,sup_error,l2_error` rows to an open text stream."""
    fh.write("eps,sup_error,l2_error\n")
    for r in rows:
        fh.write(f"{r.eps!r},{r.sup_error!r},{r.l2_error!r}\n")
