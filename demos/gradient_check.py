"""Check the closed-form parameter gradients against finite differences.

Both network families ship with exact gradients (no autodiff anywhere in the
package).  This script perturbs every parameter of a small instance of each
family and compares the analytic gradient of the training objective (the
sum of its loss terms) with a central difference quotient.
"""

import numpy as np

from prodmlp import (
    GAUSSIAN_BUMP,
    TANH,
    Grid2D,
    MlpArch,
    MmlpArch,
    RadialCone,
    h2_loss,
    l2_loss,
    laplacian_field,
    objective,
    pack_params,
    param_count,
    unpack_params,
)

STEP = 6e-6


def fd_grad(fn, theta):
    g = np.empty_like(theta)
    for i in range(theta.size):
        hi, lo = theta.copy(), theta.copy()
        hi[i] += STEP
        lo[i] -= STEP
        g[i] = (fn(hi) - fn(lo)) / (2 * STEP)
    return g


rng = np.random.default_rng(42)
target = RadialCone()
x = rng.uniform(-1, 1, size=(32, 2))

for arch in (MlpArch(n=10), MmlpArch(n_b=8)):
    for act in (TANH, GAUSSIAN_BUMP):
        for spec in (l2_loss(), h2_loss(lam=0.05, h=1.0 / 32.0)):
            theta = rng.normal(0, 0.6, size=param_count(arch))
            p = unpack_params(arch, theta)

            # the objective takes data: values at x, and random nodes of the
            # loss grid as stencil centers with the target's discrete Laplacian
            # there, read off laplacian_field as training reads it
            grid = Grid2D(spec.h)
            k = rng.integers(0, grid.nodes_per_axis**2, size=len(x))
            data = (target(x), grid.node_array()[k], laplacian_field(target, grid).values.ravel()[k])
            fn = lambda t: sum(objective(unpack_params(arch, t), act, spec, x, *data)[0])

            _, analytic = objective(p, act, spec, x, *data)
            numeric = fd_grad(fn, pack_params(p))
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            print(f"{arch!r:16} {act.name:9} {spec.kind:3}  relative gap {rel:.2e}")
