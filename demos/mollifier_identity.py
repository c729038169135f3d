"""Mollification as an approximate identity, and the kernel as a network.

The normalized gaussian-bump product kernel integrates to one, so smoothing
against it reproduces constants and affine functions and shifts a parabola
by exactly eps^2/2.  Shrinking eps drives the smoothed circle back to the
original.  The same kernel is expressible as a single multiplicative
network block, which this script verifies pointwise.
"""

import numpy as np

from prodmlp import (
    GAUSSIAN_BUMP,
    Grid2D,
    MollifiedCircle,
    build_kernel,
    convergence_report,
    forward,
    kernel_as_block,
    kernel_value,
    mollify,
)

kern = build_kernel(GAUSSIAN_BUMP, m=1, eps=0.3, quad_points=257)
print(f"1D activation mass {kern.l1_norm:.12f} (sqrt(pi) = {np.sqrt(np.pi):.12f})")

xs = np.array([[-0.5], [0.0], [0.8]])
smoothed = mollify(kern, lambda x: x[..., 0] ** 2, xs)
print("\nsmoothing x^2 with eps = 0.3 adds eps^2/2 = 0.045 everywhere:")
for x, v in zip(xs[:, 0], smoothed):
    print(f"  x = {x:+.1f}   smoothed {v:.9f}   x^2 + 0.045 = {x**2 + 0.045:.9f}")

print("\napproximate identity on the mollified circle, 17x17 grid:")
rows = convergence_report(GAUSSIAN_BUMP, [0.4, 0.2, 0.1, 0.05],
                          MollifiedCircle(), Grid2D(h=1.0 / 8.0), quad_points=65)
print("  eps     sup error   l2 error")
for row in rows:
    print(f"  {row.eps:4.2f}   {row.sup_error:9.5f}   {row.l2_error:8.5f}")

kern2 = build_kernel(GAUSSIAN_BUMP, m=2, eps=0.25)
center = np.array([0.3, -0.1])
block = kernel_as_block(kern2, center)
pts = np.random.default_rng(0).uniform(-1, 1, size=(400, 2))
gap = np.max(np.abs(forward(block, GAUSSIAN_BUMP, pts)
                    - kernel_value(kern2, pts - center)))
print(f"\nkernel rendered as one multiplicative block: max gap {gap:.2e} "
      "over 400 points")
