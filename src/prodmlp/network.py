"""Shallow additive and multiplicative scalar networks.

Two single-hidden-layer families approximate functions R^m -> R:

* additive (``MlpArch``):

      G(x) = c + sum_j alpha_j * sigma(w_j . x + b_j)

  with n ridge units, parameter count (m + 2) * n + 1.

* multiplicative (``MmlpArch``):

      F(x) = c + sum_j alpha_j * prod_i sigma(w_ij * x_i + b_ij)

  with n_b product blocks whose factors are axis-aligned (each factor sees a
  single coordinate through a scalar weight), parameter count
  (2 * m + 1) * n_b + 1.

For m = 2 the two counts match along 4 n = 5 n_b, which is how the
parameter-matched comparison pairs are built.

Flat parameter layout (used by the optimizer and by checkpoints):

    additive:       [w row-major (n, m) | b (n) | alpha (n) | c]
    multiplicative: [w row-major (n_b, m) | b row-major (n_b, m) | alpha (n_b) | c]

On a batch both families are planes of an [x | 1] stack against a [w; b]
stack: one plane of m + 1 coordinates for ridge units, m planes of 2 for
product blocks.  With the gaussian activation the log of every hidden feature
is minus the sum over planes of a squared dot product, a quadratic form in the
[x | 1] stack, so the hidden layer is exp(Phi @ Q) with Phi the quadratic
monomials of the stack and Q their coefficients: one GEMM in, and the
parameter gradient one GEMM out.  Any other activation takes the generic path
through sigma and sigma' of the pre-activations.  Phi, or the stack itself, is
a batch's parameter-free features: it depends on the points alone, so training
builds it once for its sample pool and gathers each batch's rows.
"""

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import product
from typing import Callable

import numpy as np

from ._seeds import ROLE_INIT, stream
from .fdgrid import Grid2D, laplacian_stencil

__all__ = [
    "Activation",
    "TANH",
    "GAUSSIAN_BUMP",
    "activation_by_name",
    "MlpArch",
    "MmlpArch",
    "MlpParams",
    "MmlpParams",
    "param_count",
    "matched_additive_width",
    "init_params",
    "pack_params",
    "unpack_params",
    "forward",
    "grid_values",
    "weighted_grad_sum",
    "near_zero_factor_weights",
]


@dataclass(frozen=True)
class Activation:
    """Scalar activation with its exact derivative.

    df_from_f recovers the derivative from z and the already-computed value
    sigma(z), sparing a second transcendental evaluation in hot loops; it must
    agree with df bitwise.  f and df_from_f take an optional out= like ufuncs.
    """

    name: str
    f: Callable[..., np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    df_from_f: Callable[..., np.ndarray]


TANH = Activation(
    "tanh",
    np.tanh,
    lambda z: 1.0 - np.tanh(z) ** 2,
    lambda z, s, out=None: np.subtract(1.0, np.square(s, out=out), out=out),
)
# smooth, even, rapidly decaying bump; integrable on the line unlike tanh
GAUSSIAN_BUMP = Activation(
    "gaussian",
    lambda z, out=None: np.exp(np.negative(np.square(z, out=out), out=out), out=out),
    lambda z: -2.0 * z * np.exp(-(z * z)),
    lambda z, s, out=None: np.multiply(np.multiply(-2.0, z, out=out), s, out=out),
)

_ACTIVATIONS = {a.name: a for a in (TANH, GAUSSIAN_BUMP)}


def activation_by_name(name: str) -> Activation:
    try:
        return _ACTIVATIONS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(_ACTIVATIONS)}")


# ---------------------------------------------------------------------------
# architectures and parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpArch:
    """Additive architecture: n ridge units on R^m."""

    n: int
    m: int = 2

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")


@dataclass(frozen=True)
class MmlpArch:
    """Multiplicative architecture: n_b product blocks on R^m."""

    n_b: int
    m: int = 2

    def __post_init__(self):
        if self.n_b < 1 or self.m < 1:
            raise ValueError(f"need n_b >= 1 and m >= 1, got n_b={self.n_b}, m={self.m}")


@dataclass
class MlpParams:
    w: np.ndarray      # (n, m)
    b: np.ndarray      # (n,)
    alpha: np.ndarray  # (n,)
    c: float

    @property
    def arch(self) -> MlpArch:
        return MlpArch(n=self.w.shape[0], m=self.w.shape[1])


@dataclass
class MmlpParams:
    w: np.ndarray      # (n_b, m)
    b: np.ndarray      # (n_b, m)
    alpha: np.ndarray  # (n_b,)
    c: float

    @property
    def arch(self) -> MmlpArch:
        return MmlpArch(n_b=self.w.shape[0], m=self.w.shape[1])


Arch = MlpArch | MmlpArch
NetworkParams = MlpParams | MmlpParams


def param_count(arch: Arch) -> int:
    """Number of trainable scalars."""
    if isinstance(arch, MlpArch):
        return (arch.m + 2) * arch.n + 1
    if isinstance(arch, MmlpArch):
        return (2 * arch.m + 1) * arch.n_b + 1
    raise TypeError(f"not an architecture descriptor: {arch!r}")


def matched_additive_width(n_b: int, m: int = 2) -> int:
    """Additive width n with the same parameter count as n_b product blocks.

    Solves (m + 2) n = (2 m + 1) n_b; raises if no integer solution exists.
    """
    num = (2 * m + 1) * n_b
    if num % (m + 2) != 0:
        raise ValueError(
            f"no parameter-matched additive width for n_b={n_b}, m={m}: "
            f"{2 * m + 1} * n_b must be divisible by {m + 2}"
        )
    return num // (m + 2)


def init_params(arch: Arch, seed: int) -> NetworkParams:
    """Deterministic random initialization.

    Hidden weights and biases are uniform on [-1, 1]; outer coefficients are
    uniform on [-1, 1] scaled by 1/sqrt(units) so the initial output stays
    O(1) regardless of width; the constant offset starts at 0.  Draw order is
    fixed (w, then b, then alpha), so the values are a pure function of
    (arch, seed).
    """
    rng = stream(seed, ROLE_INIT)
    if isinstance(arch, MlpArch):
        w = rng.uniform(-1.0, 1.0, size=(arch.n, arch.m))
        b = rng.uniform(-1.0, 1.0, size=arch.n)
        alpha = rng.uniform(-1.0, 1.0, size=arch.n) / np.sqrt(arch.n)
        return MlpParams(w=w, b=b, alpha=alpha, c=0.0)
    if isinstance(arch, MmlpArch):
        w = rng.uniform(-1.0, 1.0, size=(arch.n_b, arch.m))
        b = rng.uniform(-1.0, 1.0, size=(arch.n_b, arch.m))
        alpha = rng.uniform(-1.0, 1.0, size=arch.n_b) / np.sqrt(arch.n_b)
        return MmlpParams(w=w, b=b, alpha=alpha, c=0.0)
    raise TypeError(f"not an architecture descriptor: {arch!r}")


def pack_params(p: NetworkParams) -> np.ndarray:
    """Flatten to the documented layout (copy)."""
    return np.concatenate([p.w.ravel(), p.b.ravel(), p.alpha.ravel(), [p.c]])


def unpack_params(arch: Arch, vec: np.ndarray) -> NetworkParams:
    vec = np.asarray(vec, dtype=float)
    expected = param_count(arch)
    if vec.shape != (expected,):
        raise ValueError(
            f"parameter vector has shape {vec.shape}, expected ({expected},) for {arch}"
        )
    if isinstance(arch, MlpArch):
        n, m = arch.n, arch.m
        w = vec[: n * m].reshape(n, m)
        b = vec[n * m : n * m + n]
        alpha = vec[n * m + n : n * m + 2 * n]
        return MlpParams(w=w, b=b, alpha=alpha, c=float(vec[-1]))
    n, m = arch.n_b, arch.m
    w = vec[: n * m].reshape(n, m)
    b = vec[n * m : 2 * n * m].reshape(n, m)
    alpha = vec[2 * n * m : 2 * n * m + n]
    return MmlpParams(w=w, b=b, alpha=alpha, c=float(vec[-1]))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _as_batch(x: np.ndarray, m: int):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != m:
        raise ValueError(f"points must have shape ({m},) or (n, {m}), {m} coordinates "
                         f"each; got {x.shape}")
    return x, single


def _work(buffers: dict | None, name: str, shape: tuple) -> np.ndarray:
    """An uninitialised (..., rows, units) array: fresh without a buffer set,
    else a leading-row view of the set's array of that name and shape, which
    grows to the largest row count asked for."""
    if buffers is None:
        return np.empty(shape)
    key = (name, *shape[:-2], shape[-1])
    if key not in buffers or buffers[key].shape[-2] < shape[-2]:
        buffers[key] = np.empty(shape)
    return buffers[key][..., : shape[-2], :]


def _stack(p: NetworkParams, xb: np.ndarray, buffers=None) -> np.ndarray:
    """The [x | 1] stack of a batch as planes: one plane (1, batch, m + 1) for
    ridge units, m contiguous per-coordinate planes (m, batch, 2) for product
    blocks."""
    rows, m = xb.shape
    if isinstance(p, MlpParams):
        xz = _work(buffers, "x1", (1, rows, m + 1))
        xz[0, :, :m] = xb
    else:
        xz = _work(buffers, "x1", (m, rows, 2))
        xz[..., 0] = xb.T
    xz[..., -1] = 1.0
    return xz


def _weights(p: NetworkParams, buffers=None) -> np.ndarray:
    """The [w; b] planes wb whose product with _stack's is sigma's argument z:
    one plane (1, m + 1, n) for ridge units, m planes (m, 2, n_b) for product
    blocks."""
    n, m = p.w.shape
    if isinstance(p, MlpParams):
        wb = _work(buffers, "wb", (1, m + 1, n))
        wb[0, :m], wb[0, m] = p.w.T, p.b
    elif isinstance(p, MmlpParams):
        wb = _work(buffers, "wb", (m, 2, n))
        wb[:, 0], wb[:, 1] = p.w.T, p.b.T
    else:
        raise TypeError(f"not a parameter container: {p!r}")
    return wb


def _preactivations(xz: np.ndarray, wb: np.ndarray, buffers=None, name="z") -> np.ndarray:
    """z = xz @ wb for [x | 1] planes xz and [w; b] planes wb, one GEMM per plane,
    in the buffer set's array of that name."""
    return np.matmul(xz, wb, out=_work(buffers, name, (*xz.shape[:-1], wb.shape[-1])))


@cache
def _monomials(planes: int, d: int):
    """The feature layout of Phi for planes of d-coordinate [x | 1] stacks x~: the
    index pairs ia <= ib of a plane's monomials x~_a x~_b without the 1 * 1, which
    all planes share, their factors -(2 - delta_ab) in Q, and the (planes, d, d)
    feature of each x~_a x~_b: each plane's pairs in turn, then the shared 1 * 1.
    Read-only arrays, built once per shape."""
    ia, ib = (i[:-1] for i in np.triu_indices(d))
    k = len(ia)
    feature = np.full((planes, d, d), planes * k)
    feature[:, ia, ib] = feature[:, ib, ia] = np.arange(planes)[:, None] * k + np.arange(k)
    layout = ia, ib, np.where(ia == ib, -1.0, -2.0)[:, None], feature
    for a in layout:
        a.flags.writeable = False
    return layout


def _features(p: NetworkParams, act: Activation, xb: np.ndarray, buffers=None) -> np.ndarray:
    """A batch's parameter-free features, which _values_vjp consumes.  For the
    gaussian, Phi (batch, features): the monomials x~_a x~_b of each plane's
    [x | 1] stack x~ in _monomials' layout, then the shared 1 * 1, filled column
    by column from x with no batch-sized temporary, so that train can build Phi
    once for its whole sample pool.  For any other activation, _stack's planes."""
    if act is not GAUSSIAN_BUMP:
        return _stack(p, xb, buffers)
    rows, m = xb.shape
    ridge = isinstance(p, MlpParams)
    planes, d = (1, m + 1) if ridge else (m, 2)
    ia, ib, _, _ = _monomials(planes, d)
    phi = _work(buffers, "phi", (rows, planes * len(ia) + 1))
    for col, (i, (a, b)) in enumerate(product(range(planes), zip(ia, ib))):
        xa = xb[:, a if ridge else i]                       # a < d - 1: no 1 * 1 here
        if b < d - 1:
            np.multiply(xa, xb[:, b if ridge else i], out=phi[:, col])
        else:
            phi[:, col] = xa                                # x~_a * 1
    phi[:, -1] = 1.0
    return phi


def _coefficients(wb: np.ndarray, buffers=None) -> np.ndarray:
    """Q (features, units), the coefficients of Phi's monomials in the gaussian's
    exponent -sum over planes of (x~ . v~)^2, for planes of [w; b] stacks wb
    (planes, d, units): -(2 - delta_ab) v~_a v~_b for x~_a x~_b, and minus the
    planes' sum of v~_{d-1}^2 for the shared 1 * 1."""
    planes, d, units = wb.shape
    ia, ib, factor, _ = _monomials(planes, d)
    k = len(ia)
    q = _work(buffers, "Q", (planes * k + 1, units))
    np.multiply(wb[:, ia] * wb[:, ib], factor, out=q[:-1].reshape(planes, k, units))
    np.negative(np.square(wb[:, -1]).sum(axis=0), out=q[-1])
    return q


def _flat_grad(p: NetworkParams, g: np.ndarray, d_alpha, d_c) -> np.ndarray:
    """The documented flat layout of a gradient g with respect to the [w; b] planes."""
    d_w, d_b = (g[0, :-1].T, g[0, -1]) if isinstance(p, MlpParams) else (g[:, 0].T, g[:, 1].T)
    return np.concatenate([d_w.ravel(), d_b.ravel(), d_alpha, [d_c]])


def _hidden_weights(p: NetworkParams, act: Activation, buffers=None):
    """The parameter side of the hidden layer, (wb, q): the [w; b] planes
    (_weights) and, for the gaussian, Q (_coefficients) of them; q is None for
    any other activation."""
    wb = _weights(p, buffers)
    return wb, _coefficients(wb, buffers) if act is GAUSSIAN_BUMP else None


def _hidden(act: Activation, feats: np.ndarray, wb: np.ndarray, q, buffers=None):
    """The hidden layer on _features' feats with _hidden_weights' (wb, q), as
    (z, s, h): the per-plane pre-activations and activations, and the (batch,
    units) features that alpha weighs, the product over planes of s.  For the
    gaussian h = exp(Phi @ Q), one GEMM and one exponential per sample and unit,
    and z = s = None: no pre-activation, factor or block product is formed."""
    if q is not None:
        h = np.matmul(feats, q, out=_work(buffers, "h", (len(feats), q.shape[1])))
        return None, None, np.exp(h, out=h)
    z = _preactivations(feats, wb, buffers)
    s = act.f(z, out=_work(buffers, "s", z.shape))
    return z, s, s[0] if len(s) == 1 else reduce(
        partial(np.multiply, out=_work(buffers, "h", s[0].shape)), s)


def _values_vjp(p: NetworkParams, act: Activation, feats: np.ndarray, buffers=None):
    """F at the points of _features' feats, and its vjp coef -> coef @ dF/dtheta
    over them, a closure over the hidden layer, so a step evaluates each
    transcendental once, in a buffer set's arrays if given: _vjp_sums reduces
    the batch, and _vjp_grad maps the sums to the flat gradient."""
    wb, q = _hidden_weights(p, act, buffers)
    hidden = _hidden(act, feats, wb, q, buffers)
    return hidden[2] @ p.alpha + p.c, lambda coef: _vjp_grad(
        p, wb, q, *_vjp_sums(act, feats, hidden, coef, buffers), coef.sum(), buffers)


def _vjp_sums(act: Activation, feats: np.ndarray, hidden, coef: np.ndarray, buffers=None):
    """The batch reduction of the vjp on _features' feats and _hidden's (z, s, h),
    as (g, d_alpha), with d_c = sum(coef): each is a sum over the rows, so blocks
    of rows add.

    dF/d[w; b] is [x | 1]^T sigma'(z) alpha per sample, so per plane g is one GEMM
    of C = coef [x | 1] against sigma'(z), times the plane's leave-one-out
    product, and d_alpha = coef @ h.  For the gaussian g is the one GEMM
    G = (coef Phi)^T h for all planes, and d_alpha its 1 * 1 row."""
    z, s, h = hidden
    c = np.multiply(feats, coef[:, None], out=_work(buffers, "C", feats.shape))
    if z is None:
        g = np.matmul(c.T, h, out=_work(buffers, "G", (c.shape[1], h.shape[1])))
        return g, g[-1]
    m = len(z)
    g = _work(buffers, "g", (m, c.shape[-1], h.shape[1]))
    t = _work(buffers, "t", h.shape)
    # a plain leave-one-out product with no division, so factors that are
    # exactly zero stay exact
    loo = partial(np.multiply, out=_work(buffers, "loo", h.shape) if m > 2 else None)
    for i in range(m):
        act.df_from_f(z[i], s[i], out=t)
        if m > 1:
            t *= reduce(loo, [s[j] for j in range(m) if j != i])
        np.matmul(c[i].T, t, out=g[i])
    return g, coef @ h


def _vjp_grad(p: NetworkParams, wb: np.ndarray, q, g: np.ndarray, d_alpha, d_c,
              buffers=None) -> np.ndarray:
    """The flat gradient from _vjp_sums' sums, with _hidden_weights' (wb, q): alpha
    scales the small (., units) sums, g in place where q is None.  For the
    gaussian, with G_ab the row of the monomial x~_a x~_b, read symmetrically in
    a and b, a plane's [w; b] stack v~ gets d/dv~_a = -2 alpha sum_b G_ab v~_b."""
    if q is None:
        g *= p.alpha
        return _flat_grad(p, g, d_alpha, d_c)
    feature = _monomials(*wb.shape[:2])[3]
    gab = np.take(g, feature, axis=0, out=_work(buffers, "Gab", (*feature.shape, g.shape[1])),
                  mode="clip")                             # feature is in range
    gv = np.einsum("pabj,pbj->paj", gab, wb, out=_work(buffers, "gv", wb.shape))
    gv *= -2.0 * p.alpha
    return _flat_grad(p, gv, d_alpha, d_c)


def _mismatch(v, vjp, data, weight):
    """One loss term, weight * mean |r|^2 with r = v - data, and its exact gradient,
    one vector-Jacobian product, since r is linear in the network's values v.  The
    array v, fresh for each term, holds r and then the vjp's weights."""
    r = np.subtract(v, data, out=v)
    loss = weight * float(np.mean(r * r))
    r *= 2.0 * weight / r.size
    return loss, vjp(r)


def _planes(axis) -> np.ndarray:
    """The [u | 1] planes (2, len(u), 2) of product blocks on the square grid of axis u."""
    return np.stack([axis, np.ones(len(axis))], axis=-1)[None].repeat(2, axis=0)


def _product_table(p: MmlpParams, act: Activation, planes: np.ndarray, buffers=None):
    """Product blocks on the square grid of _planes' planes, as (s, P): the
    per-axis sigma tables (2, len(u), n_b), written over the pre-activations,
    and P = (s_x alpha) s_y^T, F - c at the grid's nodes, one GEMM of inner
    dimension n_b."""
    s = _preactivations(planes, _weights(p, buffers), buffers)
    act.f(s, out=s)
    sa = np.multiply(s[0], p.alpha, out=_work(buffers, "sa", s[0].shape))
    return s, np.matmul(sa, s[1].T, out=_work(buffers, "P", (len(sa), len(sa))))


@cache
def _stencil(h: float):
    """laplacian_stencil(h), the axis u of Grid2D(h) widened by one node, the
    stencil's shifts as offsets into a flat (len(u), len(u)) table, and the
    [u | 1] planes of u: read-only arrays, built once per spacing."""
    shifts, coeffs = laplacian_stencil(h)
    u = Grid2D(h).axis(1)
    tables = shifts, coeffs, u, shifts @ [len(u), 1], _planes(u)
    for a in tables:
        a.flags.writeable = False
    return tables


def _product_laplacian_vjp(p: MmlpParams, act: Activation, h: float, nodes, buffers=None):
    """The 5-point Laplacian of product blocks' F at the Grid2D(h) nodes with index
    pairs nodes, and its vjp, as _values_vjp.  Product blocks separate: lap_h F is
    the stencil of _product_table's P on the axis widened by one node, read at the
    flat indices of the centres' five points: the stencil of values that
    fdgrid.grid_laplacian takes.  The vjp spreads its weights by the stencil over
    P's grid, at the same indices, and forms the tables' pre-activations again, by
    the same GEMM, for sigma'."""
    _, coeffs, u, offsets, xz = _stencil(h)
    size = len(u)
    at = np.add.outer(offsets, (nodes[:, 0] + 1) * size + nodes[:, 1] + 1)    # (5, k)
    s, table = _product_table(p, act, xz, buffers)

    def vjp(coef):
        w = np.bincount(at.ravel(), np.multiply.outer(coeffs, coef).ravel(),
                        size * size).reshape(size, size)
        adj = _work(buffers, "adj", s.shape)
        np.matmul(w, s[1], out=adj[0])
        np.matmul(w.T, s[0], out=adj[1])
        d_alpha = np.einsum("rj,rj->j", s[0], adj[0])
        dz = _preactivations(xz, _weights(p, buffers), buffers, "dz")  # "z" holds s
        adj *= act.df_from_f(dz, s, out=dz)
        g = np.matmul(xz.transpose(0, 2, 1), adj)               # d/d[w_i; b_i] over the tables
        g *= p.alpha
        return _flat_grad(p, g, d_alpha, 0.0)

    return coeffs @ np.take(table, at), vjp


# bytes of one block's hidden features, in grid_values and the ridge curvature
# term: well inside a core's L2 cache (2 MB on the machine this was tuned on,
# where 0.5-1 MB blocks ran alike and 1.5 MB ones a third slower), so that exp,
# or sigma, h @ alpha and the vjp's GEMM read h from cache
_BLOCK_BYTES = 3 << 18


def _block_items(items: int, rows: int, units: int) -> int:
    """Items per block, for items of rows points with units hidden features each:
    as many as take at most _BLOCK_BYTES of features, at least one, at most all."""
    return max(1, min(items, _BLOCK_BYTES // max(8 * units * rows, 1)))


def _laplacian_mismatch(p: NetworkParams, act: Activation, h: float, nodes, lap_y, weight,
                        buffers=None):
    """The curvature term weight * mean |lap_h F - lap_y|^2, with lap_h F the 5-point
    Laplacian of F at the Grid2D(h) nodes with index pairs nodes, and its gradient,
    as _mismatch.  Product blocks take _product_laplacian_vjp.  Ridge units make one
    pass over blocks of whole centres, as many as _block_items allows: a block lays
    out its centres' five stencil points centre-major and forms their features,
    hidden layer and F - c, then lap_h F, the residual and _vjp_sums while h is in
    cache.  The blocks add the sums and _vjp_grad maps them once, so memory is
    bounded by one block.  lap_h F does not depend on c."""
    if isinstance(p, MmlpParams):
        return _mismatch(*_product_laplacian_vjp(p, act, h, nodes, buffers), lap_y, weight)
    shifts, coeffs, u, _, _ = _stencil(h)
    wb, q = _hidden_weights(p, act, buffers)
    r = np.empty(len(nodes))
    scale = 2.0 * weight / r.size
    sums = 0.0, 0.0
    step = _block_items(r.size, len(coeffs), len(p.alpha))
    for lo in range(0, r.size, step):
        block = slice(lo, lo + step)
        feats = _features(p, act, u[nodes[block, None] + shifts + 1].reshape(-1, 2), buffers)
        hidden = _hidden(act, feats, wb, q, buffers)
        rb = np.matmul((hidden[2] @ p.alpha).reshape(-1, len(coeffs)), coeffs, out=r[block])
        rb -= lap_y[block]
        coef = np.multiply.outer(rb * scale, coeffs).reshape(-1)
        sums = [t + part for t, part in zip(sums, _vjp_sums(act, feats, hidden, coef, buffers))]
    return weight * float(np.mean(r * r)), _vjp_grad(p, wb, q, *sums, 0.0, buffers)


def grid_values(p: NetworkParams, act: Activation, axis) -> np.ndarray:
    """F at the nodes (axis[i], axis[j]) of the square grid of axis, a
    (len(axis), len(axis)) array.

    Product blocks form _product_table's rank-n_b matrix P, and F = P + c.
    Ridge units run the training step's kernel (_features, then _hidden) on
    blocks of whole grid rows, as many as _block_items allows, with Q, or the
    [w; b] plane, formed once per call; a block writes its rows' x into a
    reused node buffer and h @ alpha into its output rows, so memory is bounded
    by one block, not by the grid's area."""
    if p.w.shape[1] != 2:
        raise ValueError(f"grid_values needs a network on R^2, got m={p.w.shape[1]}")
    axis = np.asarray(axis, dtype=float)
    if isinstance(p, MmlpParams):
        _, table = _product_table(p, act, _planes(axis))
        return np.add(table, p.c, out=table)
    n = len(axis)
    rows = _block_items(n, n, len(p.alpha))
    wb, q = _hidden_weights(p, act)
    nodes = np.empty((rows, n, 2))
    nodes[..., 1] = axis
    out = np.empty((n, n))
    buffers = {}
    for lo in range(0, n, rows):
        block = nodes[: min(rows, n - lo)]
        block[..., 0] = axis[lo : lo + len(block), None]
        feats = _features(p, act, block.reshape(-1, 2), buffers)
        _, _, h = _hidden(act, feats, wb, q, buffers)
        np.matmul(h, p.alpha, out=out[lo : lo + len(block)].reshape(-1))
    return np.add(out, p.c, out=out)


def forward(p: NetworkParams, act: Activation, x: np.ndarray):
    """Evaluate the network at x of shape (m,) or (batch, m)."""
    xb, single = _as_batch(x, p.w.shape[1])
    out = _values_vjp(p, act, _features(p, act, xb))[0]
    return float(out[0]) if single else out


def weighted_grad_sum(p: NetworkParams, act: Activation, x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] * d F(x[k]) / d theta, flat in the documented layout.

    The public vector-Jacobian product of F over a batch of points: the
    parameter gradient of sum_k coef[k] * F(x[k]).
    """
    xb, _ = _as_batch(x, p.w.shape[1])
    coef = np.asarray(coef, dtype=float)
    if coef.shape != (xb.shape[0],):
        raise ValueError(f"coef must have shape ({xb.shape[0]},), got {coef.shape}")
    return _values_vjp(p, act, _features(p, act, xb))[1](coef)


def near_zero_factor_weights(p: NetworkParams, tol: float = 1e-6) -> int:
    """Count hidden weights with |w| < tol.

    Multiplicative blocks with a near-zero factor weight degenerate toward a
    function constant in that coordinate; the library reports the count but
    never rejects such parameters.
    """
    return int(np.count_nonzero(np.abs(p.w) < tol))
