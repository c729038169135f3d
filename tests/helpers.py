"""Shared oracles for the test suite.

Central finite differences double-check every analytic gradient, and a
handful of tiny brute-force evaluators re-derive the vectorized code paths
with plain Python loops.
"""

import tracemalloc

import numpy as np

from prodmlp import MlpParams, MmlpParams, pack_params, unpack_params


def fd_gradient(fn, theta, step=6e-6):
    """Central finite-difference gradient of a scalar function of a vector.

    The step is near the cube root of machine epsilon, which balances the
    O(step^2) truncation error against roundoff amplification.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return g


def relative_error(a, b, floor=1e-12):
    """Scale-free distance between two gradient vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return np.linalg.norm(a - b) / scale


def naive_forward(p, act, x):
    """Network value at a single point via explicit loops."""
    x = np.asarray(x, dtype=float)
    total = p.c
    if isinstance(p, MlpParams):
        for j in range(p.w.shape[0]):
            total += p.alpha[j] * act.f(float(p.w[j] @ x + p.b[j]))
        return float(total)
    assert isinstance(p, MmlpParams)
    for j in range(p.w.shape[0]):
        block = 1.0
        for i in range(p.w.shape[1]):
            block *= act.f(float(p.w[j, i] * x[i] + p.b[j, i]))
        total += p.alpha[j] * block
    return float(total)


def discrete_laplacian(fn, x, h):
    """5-point discrete Laplacian of fn at the points x, spacing h, evaluated directly
    wherever the stencil lands:

        (-4 fn(x) + fn(x + h e1) + fn(x - h e1) + fn(x + h e2) + fn(x - h e2)) / h^2
    """
    x = np.asarray(x, dtype=float)
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    return (-4.0 * fn(x) + fn(x + e1) + fn(x - e1) + fn(x + e2) + fn(x - e2)) / h**2


def zygmund_oracle(u, spec, grid):
    """Discrete Zygmund seminorm by exhaustive loops: u is evaluated afresh, one
    point at a time, at every node and every increment k * h along the axes (and
    the diagonals when spec.include_diagonals is set)."""
    at = lambda p: float(np.ravel(u(p[None, :]))[0])
    best = 0.0
    for node in grid.node_array():
        for k in range(1, spec.k_max + 1):
            d = k * grid.h
            dirs = [(d, 0.0), (0.0, d)] + ([(d, d), (d, -d)] if spec.include_diagonals else [])
            for v in map(np.array, dirs):
                second = at(node + v) + at(node - v) - 2.0 * at(node)
                best = max(best, abs(second) / float(np.hypot(*v)) ** spec.alpha)
    return best


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak, in bytes, of the memory that Python's
    allocators, numpy's among them, traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_params(arch, rng, scale=1.0):
    """Random parameter vector for gradient sweeps, away from special points."""
    from prodmlp import param_count

    vec = rng.normal(0.0, scale, size=param_count(arch))
    return unpack_params(arch, vec)


def perturbed(p, rng, scale=0.1):
    vec = pack_params(p) + rng.normal(0.0, scale, size=pack_params(p).size)
    return unpack_params(p.arch, vec)


# The acceptance suite records one verdict line per criterion here; the
# conftest hook prints the whole block after the run so the lines survive
# output capturing.
CRITERION_LINES = []


def record_criterion(number, label, ok, detail="", soft=False):
    verdict = "PASS" if ok else ("SOFT FAIL" if soft else "FAIL")
    line = f"criterion {number} [{label}]: {verdict}"
    if detail:
        line += f" -- {detail}"
    CRITERION_LINES.append(line)
    print(line)
    return ok
