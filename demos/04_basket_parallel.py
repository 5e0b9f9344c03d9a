"""
Two-asset basket puts and embarrassingly parallel solves
========================================================

The same transform-and-invert pipeline prices a put on the maximum of
two correlated assets: each contour node now requires one complex sparse
solve on a triangulated grid.  The nodes are completely independent, so
they fan out over a process pool, one contiguous chunk of nodes per
worker; the pool returns the rows in node order and the sum runs in a
fixed order, making the price bitwise identical for any worker count.
"""

import numpy as np

from lapbs import Basket2D, EdgeSpec, Mesh2D, invert_at, relative_l2
from lapbs import MarchConfig, march2d
from lapbs.experiments import EX3_CONTOUR
from lapbs.parallel import ProblemSpec, solve_ensemble

basket = Basket2D(r=0.05, a11=0.09, a22=0.09, a12=-0.018,
                  strike=100.0, maturity=1.0, L1=300.0, L2=300.0)

##############################################################################
# Price on a 64 x 64 grid and sanity-check against Crank-Nicolson time
# stepping on the identical spatial discretization.
m = 64
spec = ProblemSpec("basket2d", basket, m, edges=EdgeSpec())
ensemble, timing = solve_ensemble(spec, EX3_CONTOUR, workers=1)
price = invert_at(ensemble, basket.maturity)
mesh = Mesh2D(basket.L1, basket.L2, m, m)

cn_price = march2d(mesh, basket, MarchConfig(200))
gap = np.linalg.norm(price - cn_price) / np.linalg.norm(cn_price)
print(f"{EX3_CONTOUR.n} transform solves on {m}x{m}: "
      f"{timing.wall_time:.2f} s")
print(f"relative gap to Crank-Nicolson on the same grid: {gap:.2e}")

surface = price.reshape(m + 1, m + 1)
print("\nprice at a few (x1, x2) nodes:")
for s1, s2 in ((50.0, 50.0), (100.0, 100.0), (100.0, 50.0)):
    i, j = int(s1 / mesh.h1), int(s2 / mesh.h2)
    print(f"  ({s1:>5.0f}, {s2:>5.0f}): {surface[j, i]:>10.4f}")

##############################################################################
# Determinism across worker counts: the ensembles (and hence the price)
# must agree bit for bit.
for workers in (2, 4):
    other, row = solve_ensemble(spec, EX3_CONTOUR, workers=workers,
                                baseline_time=timing.wall_time)
    same = np.array_equal(other.values, ensemble.values)
    print(f"\n{workers} workers: wall {row.wall_time:.2f} s, "
          f"speedup {row.speedup:.2f}, bitwise identical: {same}")
