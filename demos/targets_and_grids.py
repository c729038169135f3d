"""Evaluate the two benchmark targets and look at their rough spots.

The mollified circle is a smoothed disk indicator with a thin transition
layer around |x| = 0.5.  The radial cone (1 - |x|)_+^1.8 is C^1 but not C^2
at the origin.  Both are plain callables on (n, 2) arrays of points in the
square [-1, 1]^2.
"""

import numpy as np

from prodmlp import Grid2D, MollifiedCircle, RadialCone, ScalarField, write_field_csv

circle = MollifiedCircle()
cone = RadialCone()

print("values along the positive x axis")
print("  r      circle        cone")
rs = np.array([0.0, 0.25, 0.45, 0.5, 0.55, 0.75, 1.0])
pts = np.stack([rs, np.zeros_like(rs)], axis=-1)
for r, c, k in zip(rs, circle(pts), cone(pts)):
    print(f"  {r:4.2f}   {c:10.6f}   {k:9.6f}")

# The cone profile (1 - r)^1.8 has curvature (1 - r)^(-0.2) up to a
# constant, which blows up toward the support edge r = 1.  A one-sided
# second difference just inside the rim grows like h^(-0.2) accordingly.
print("\none-sided second difference of the cone inside the rim r = 1")
for h in (1e-1, 1e-2, 1e-3):
    on_axis = cone(np.array([[1 - 2 * h, 0.0], [1 - h, 0.0], [1.0, 0.0]]))
    d2 = (on_axis[0] - 2 * on_axis[1] + on_axis[2]) / h**2
    print(f"  h = {h:5.0e}   second difference = {d2:10.4f}")

grid = Grid2D(h=1.0 / 32.0)
n = grid.nodes_per_axis
field = ScalarField(grid=grid, values=circle(grid.node_array()).reshape(n, n))
write_field_csv(field, "circle_field.csv")
print(f"\nwrote the circle on a {grid.nodes_per_axis}x{grid.nodes_per_axis} "
      "grid to circle_field.csv")
