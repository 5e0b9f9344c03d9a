"""P1 triangle elements for the Laplace-transformed two-asset equation.

The rectangle [0,L1] x [0,L2] carries a uniform tensor grid, each cell
split along the (i,j)-(i+1,j+1) diagonal.  All variable-coefficient
integrands are quadratic per triangle, so the edge-midpoint rule
integrates them exactly.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu

from .fem1d import (RIGHT_BCS, Pencil, _require_count, _require_positive,
                    _robin_term)

__all__ = [
    "Basket2D",
    "Mesh2D",
    "EdgeSpec",
    "payoff_basket_maxput",
    "build_matrices",
    "pencil",
    "nested_dissection",
    "factor",
    "solve2d",
    "solve_shifts",
    "interpolate_p1",
    "relative_l2",
]

_LOG = logging.getLogger(__name__)
_RESIDUAL_TOL = 1e-10   # relative residual guard of every 2D solve
_MAX_STEPS = 30         # Krylov steps per Dirichlet group before direct solves


@dataclass(frozen=True)
class Basket2D:
    r: float
    a11: float
    a22: float
    a12: float
    strike: float
    maturity: float
    L1: float
    L2: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        _require_positive(self, "a11", "a22", "strike", "maturity", "L1", "L2")
        if not self.a12 * self.a12 < self.a11 * self.a22:
            raise ValueError("diffusion matrix must be positive definite")


class Mesh2D:
    """Uniform (m1+1) x (m2+1) tensor grid, node k = j*(m1+1) + i."""

    def __init__(self, L1, L2, m1, m2):
        _require_count("m1", m1, 1, "element per side")
        _require_count("m2", m2, 1, "element per side")
        self.L1, self.L2 = float(L1), float(L2)
        _require_positive(self, "L1", "L2")
        self.m1, self.m2 = int(m1), int(m2)
        self.h1 = self.L1 / self.m1
        self.h2 = self.L2 / self.m2
        self.x1 = np.linspace(0.0, self.L1, self.m1 + 1)
        self.x2 = np.linspace(0.0, self.L2, self.m2 + 1)
        self.x1g, self.x2g = np.meshgrid(self.x1, self.x2)

    @property
    def n_nodes(self):
        return (self.m1 + 1) * (self.m2 + 1)


@dataclass(frozen=True)
class EdgeSpec:
    """The condition at each far edge, x1 = L1 and x2 = L2, named from
    ``fem1d.RIGHT_BCS`` like the put's right end.  The edges x1 = 0 and
    x2 = 0 always keep the natural zero-flux condition."""

    x1_far: str = "dirichlet0"
    x2_far: str = "dirichlet0"

    def __post_init__(self):
        for edge in ("x1_far", "x2_far"):
            if getattr(self, edge) not in RIGHT_BCS:
                raise ValueError(f"{edge} must be one of {RIGHT_BCS}, "
                                 f"got {getattr(self, edge)!r}")


def payoff_basket_maxput(x1, x2, strike):
    """Put-on-maximum payoff (K - max(x1, x2))_+."""
    return np.maximum(strike - np.maximum(x1, x2), 0.0)


def _triangles(mesh):
    """Vertex index triplets, both orientations CCW."""
    m1, m2 = mesh.m1, mesh.m2
    ii, jj = np.meshgrid(np.arange(m1), np.arange(m2))
    n00 = (jj * (m1 + 1) + ii).ravel()
    n10 = n00 + 1
    n01 = n00 + (m1 + 1)
    n11 = n01 + 1
    lower = np.stack([n00, n10, n11], axis=1)
    upper = np.stack([n00, n11, n01], axis=1)
    return np.vstack([lower, upper])


def build_matrices(mesh, basket, u0):
    """z-independent pieces: (spatial matrix, mass matrix, load vector).

    The spatial matrix is the weak form of the transformed operator minus
    its z-mass part; boundary rows are untouched here.
    """
    tris = _triangles(mesh)
    coords = np.stack([mesh.x1g.ravel(), mesh.x2g.ravel()], axis=1)
    p = coords[tris]  # (nt, 3, 2)
    nt = len(tris)

    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    # constant P1 gradients: grad lambda_k = perp(p_{k+1} - p_{k+2}) / (2A)
    # with perp(d) = (d_y, -d_x), so that grad lambda_k points toward p_k
    g = np.empty((nt, 3, 2))
    for k in range(3):
        d = p[:, (k + 1) % 3] - p[:, (k + 2) % 3]
        g[:, k, 0] = d[:, 1]
        g[:, k, 1] = -d[:, 0]
    g /= (2.0 * area)[:, None, None]

    # edge midpoints; weights A/3; exact for quadratics
    mids = 0.5 * (p[:, [0, 1, 2]] + p[:, [1, 2, 0]])  # (nt, 3, 2)
    lam = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    wq = (area / 3.0)[:, None]

    q1, q2 = mids[:, :, 0], mids[:, :, 1]
    m11 = np.sum(wq * q1 * q1, axis=1)
    m22 = np.sum(wq * q2 * q2, axis=1)
    m12 = np.sum(wq * q1 * q2, axis=1)
    # int x_i * lambda_k over the triangle
    ix1 = (wq * q1) @ lam  # (nt, 3)
    ix2 = (wq * q2) @ lam

    a11, a22, a12, r = basket.a11, basket.a22, basket.a12, basket.r
    c1 = a11 + 0.5 * a12 - r
    c2 = a22 + 0.5 * a12 - r

    el = np.zeros((nt, 3, 3))
    # diffusion, symmetric split of the cross term
    el += 0.5 * a11 * m11[:, None, None] * np.einsum("ti,tj->tij", g[:, :, 0], g[:, :, 0])
    el += 0.5 * a22 * m22[:, None, None] * np.einsum("ti,tj->tij", g[:, :, 1], g[:, :, 1])
    el += 0.5 * a12 * m12[:, None, None] * (
        np.einsum("ti,tj->tij", g[:, :, 1], g[:, :, 0])
        + np.einsum("ti,tj->tij", g[:, :, 0], g[:, :, 1])
    )
    # convection: rows are test functions, columns trial
    el += c1 * np.einsum("ti,tj->tij", ix1, g[:, :, 0])
    el += c2 * np.einsum("ti,tj->tij", ix2, g[:, :, 1])
    # r * mass
    mass_el = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    el += r * mass_el

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = mesh.n_nodes
    spatial = coo_matrix((el.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mass = coo_matrix((mass_el.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    f_el = (wq * u0(q1, q2)) @ lam
    load = np.zeros(n)
    np.add.at(load, tris.ravel(), f_el.ravel())
    return spatial, mass, load


def _far_nodes(mesh):
    """Node indices along each far edge, keyed by the ``EdgeSpec`` field."""
    m1, m2 = mesh.m1, mesh.m2
    return {"x1_far": np.arange(m2 + 1) * (m1 + 1) + m1,
            "x2_far": m2 * (m1 + 1) + np.arange(m1 + 1)}


def _edge_mass(indices, h, n):
    """1D P1 mass matrix of a boundary line, scattered into the 2D system."""
    seg = np.stack([indices[:-1], indices[1:]], axis=1)
    el = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    data = np.tile(el.ravel(), len(seg))
    rows = np.repeat(seg, 2, axis=1).ravel()
    cols = np.tile(seg, (1, 2)).ravel()
    return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def pencil(mesh, basket, edges):
    """The basket's :class:`~lapbs.fem1d.Pencil`, in CSC, on the mesh's
    domain (the basket's L1 and L2 are not read), loaded with the
    put-on-maximum payoff: on each far edge either 0 ("dirichlet0") or the
    transparent Robin term ("transparent").  Its unknowns are the nodes not
    held at 0, in their ``nested_dissection`` order, built here before any
    worker forks.  Swap-symmetric data (m1 = m2, L1 = L2, a11 = a22, one
    condition on both far edges) give u(x1, x2) = u(x2, x1), so only the
    nodes with i >= j are kept, and each column of ``expand`` (nodes x
    unknowns) holds 1/sqrt(2) at a node and at its mirror (j, i), or 1 at
    a node on the diagonal, so its columns are orthonormal; other data
    keep one node, at 1, a column.  The pencil is expand^T S expand,
    expand^T M expand, expand^T B_k expand with load expand^T b; expand
    times its solution solves the whole grid."""
    u0 = lambda x1, x2: payoff_basket_maxput(x1, x2, basket.strike)
    spatial, mass, load = build_matrices(mesh, basket, u0)
    n = mesh.n_nodes
    nodes = _far_nodes(mesh)
    free = np.ones(n, dtype=bool)
    for edge, idx in nodes.items():
        free[idx] &= getattr(edges, edge) != "dirichlet0"
    grid = np.arange(n).reshape(mesh.m2 + 1, mesh.m1 + 1)   # rows j
    keep, mirror = free.reshape(grid.shape), grid
    if (mesh.m1 == mesh.m2 and mesh.L1 == mesh.L2
            and basket.a11 == basket.a22 and edges.x1_far == edges.x2_far):
        keep, mirror = np.triu(keep), grid.T   # (j, i) joins (i, j), i > j
    unknowns = nested_dissection(keep)
    twins = mirror.ravel()[unknowns]
    pair = twins != unknowns
    rows = np.r_[unknowns, twins[pair]]
    cols = np.r_[np.arange(len(unknowns)), np.flatnonzero(pair)]
    weight = np.where(pair, np.sqrt(0.5), 1.0)   # orthonormal columns
    expand = csc_matrix((np.r_[weight, weight[pair]], (rows, cols)),
                        shape=(n, len(unknowns)))
    restrict = lambda x: (expand.T @ x @ expand).tocsc()
    robin = tuple(
        (_robin_term(basket.r, a, L), restrict(_edge_mass(nodes[edge], h, n)))
        for edge, a, L, h in (("x1_far", basket.a11, mesh.L1, mesh.h2),
                              ("x2_far", basket.a22, mesh.L2, mesh.h1))
        if getattr(edges, edge) == "transparent")
    return Pencil(restrict(spatial), restrict(mass), expand.T @ load,
                  np.empty(0, dtype=int), lambda z: 0.0, robin, expand)


def nested_dissection(keep):
    """Geometric nested-dissection order (George, SIAM J. Numer. Anal. 10,
    1973) of the nodes marked in ``keep``, a boolean node grid (rows j,
    columns i): bisect the set's bounding box along its longer side at the
    median grid line, which no triangle edge crosses, order the two halves
    recursively and put the separator last; sets of at most 4 nodes keep
    ascending order.  On a whole grid this is the box recursion.  Cached
    per grid shape and kept set, so the array is read-only."""
    keep = np.asarray(keep, dtype=bool)
    return _nested_dissection(keep.shape, keep.tobytes())


@functools.lru_cache(maxsize=None)
def _nested_dissection(shape, keep):
    def split(k):   # node indices, ascending
        if len(k) <= 4:
            return [k]
        i, j = k % shape[1], k // shape[1]
        key = i if np.ptp(i) >= np.ptp(j) else j
        line = np.partition(key, len(k) // 2)[len(k) // 2]
        return split(k[key < line]) + split(k[key > line]) + [k[key == line]]

    order = np.concatenate(split(np.flatnonzero(np.frombuffer(keep, bool))))
    order.flags.writeable = False
    return order


def factor(a):
    """Sparse LU of a pencil at one shift, a CSC matrix in the pencil's
    unknowns: they are in nested-dissection order and the matrix is
    structurally symmetric, so the LU takes no further column ordering
    and symmetric mode keeps every diagonal pivot."""
    return splu(a, permc_spec="NATURAL", options={"SymmetricMode": True})


def solve2d(system):
    """Direct sparse solve of ``Pencil.at(z)``'s (matrix, rhs), in the
    pencil's unknowns, with a relative residual guard."""
    a, rhs = system
    sol = factor(a).solve(rhs)
    res = np.linalg.norm(a @ sol - rhs)
    scale = np.linalg.norm(rhs)
    if not math.isfinite(res):
        raise RuntimeError(f"sparse solve residual is {res:g}")
    if scale > 0 and res > _RESIDUAL_TOL * scale:
        raise RuntimeError(f"sparse solve relative residual {res/scale:g}")
    return sol


def solve_shifts(pencil, zs):
    """``solve2d(pencil.at(z))`` for each z in ``zs``, from one LU.

    b does not depend on z (2D Dirichlet data are 0), so with A(z0) factored
    at the middle shift z0, GMRES solves (I + (z - z0)*M*A(z0)^-1)*y = b for
    every other shift from one shared basis, keeping W = A(z0)^-1*V: x = W*y
    costs no solve.  A Robin term c(z)*B breaks that shift structure, so a
    pencil with a transparent edge, like zero data, is solved node by node
    by ``solve2d``.  A real shift keeps Re(x), exact for real data.  A row
    is kept once its true residual passes ``solve2d``'s guard; one short
    after ``_MAX_STEPS`` steps goes to ``solve2d``, with a warning.  The
    guard, like ``solve2d``'s, reads the residual in the pencil's unknowns.
    Folded, that is expand^T r for the node residual r = A*(expand x) - b,
    which is swap-symmetric like b; expand's columns are orthonormal, so
    ||expand^T r|| = ||r||, and the same holds for b.
    """
    anchor = len(zs) // 2
    z0 = zs[anchor]
    a0, b = pencil.at(z0)
    beta = np.linalg.norm(b)
    if pencil.robin or not beta > 0:
        return [solve2d(pencil.at(z)) for z in zs]
    rows, reached = [None] * len(zs), [math.inf] * len(zs)

    def keep(k, x):
        x = x.real if zs[k].imag == 0 else x   # A(z) and b real at real z
        res = pencil.S @ x + zs[k] * (pencil.M @ x) - b
        reached[k] = np.linalg.norm(res) / beta
        if reached[k] <= _RESIDUAL_TOL:
            rows[k] = x

    lu = factor(a0)
    direct = lu.solve(b)
    keep(anchor, direct)
    h = np.zeros((_MAX_STEPS + 1, _MAX_STEPS), dtype=complex)
    basis, solved = [b / beta], [direct / beta]
    for m in range(1, _MAX_STEPS + 1):
        v = pencil.M @ solved[-1]
        for _ in range(2):   # modified Gram-Schmidt, repeated once
            for i, u in enumerate(basis):
                c = np.vdot(u, v)
                h[i, m - 1] += c
                v -= c * u
        h[m, m - 1] = np.linalg.norm(v)
        e1 = beta * np.eye(m + 1)[0]
        for k in [k for k, x in enumerate(rows) if x is None]:
            # (I + (z - z0)*K) V_m = V_{m+1} (I_bar + (z - z0)*H_bar)
            hk = np.eye(m + 1, m) + (zs[k] - z0) * h[:m + 1, :m]
            y = np.linalg.lstsq(hk, e1, rcond=None)[0]
            reached[k] = np.linalg.norm(hk @ y - e1) / beta
            if reached[k] <= _RESIDUAL_TOL:
                keep(k, y @ np.array(solved))
        if (all(x is not None for x in rows) or m == _MAX_STEPS
                or not h[m, m - 1] > 0):
            break
        basis.append(v / h[m, m - 1])
        solved.append(lu.solve(basis[-1]))
    for k in [k for k, x in enumerate(rows) if x is None]:
        _LOG.warning("shift z=%s reached relative residual %.3g in %d "
                     "Krylov steps; solved directly", zs[k], reached[k], m)
        rows[k] = solve2d(pencil.at(zs[k]))
    return rows


def _require_within(name, x, bound):
    """ValueError unless every x is in [0, bound] to rounding (NaN is not)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    slack = 1e-12 * bound
    bad = x[~((x >= -slack) & (x <= bound + slack))]
    if bad.size:
        raise ValueError(f"{name} must lie in [0, {bound:g}], got {bad[0]:g}")


def interpolate_p1(values, mesh, x1, x2):
    """Evaluate the triangulated P1 interpolant at tensor points (x1 x x2).

    Points must lie inside [0,L1] x [0,L2] (else ValueError); returns
    array of shape (len(x2), len(x1)) matching meshgrid layout.
    """
    for name, x, L in (("x1", x1, mesh.L1), ("x2", x2, mesh.L2)):
        _require_within(name + " points", x, L)
    v = np.asarray(values).reshape(mesh.m2 + 1, mesh.m1 + 1)
    I, J = np.meshgrid(np.minimum(np.asarray(x1) / mesh.h1, mesh.m1 - 1e-12),
                       np.minimum(np.asarray(x2) / mesh.h2, mesh.m2 - 1e-12))
    i = I.astype(int)
    j = J.astype(int)
    fx = I - i
    fy = J - j
    v00 = v[j, i]
    v10 = v[j, i + 1]
    v01 = v[j + 1, i]
    v11 = v[j + 1, i + 1]
    lower = fx >= fy  # triangle (n00, n10, n11)
    out = np.where(
        lower,
        v00 + (v10 - v00) * fx + (v11 - v10) * fy,
        v00 + (v11 - v01) * fx + (v01 - v00) * fy,
    )
    return out


def _whole_cells(name, L, h):
    """L / h, which must be a positive whole number to within 1e-9."""
    cells = int(round(L / h))
    if not (cells >= 1 and abs(L / h - cells) <= 1e-9):
        raise ValueError(f"window {name} = {L:g} is not a whole number of "
                         f"reference cells (h = {h:g}): {L / h:.6g} cells")
    return cells


def relative_l2(values, mesh, ref_values, ref_mesh, L1, L2):
    """||u - u_ref|| / ||u_ref|| in discrete L2 over [0,L1] x [0,L2].

    Both fields are sampled on the reference grid restricted to the window
    and integrated with tensor trapezoid weights.  The window must lie in
    both meshes' domains and end on a reference grid line: a positive whole
    number of reference cells to within 1e-9 (else ValueError).
    """
    _require_within("window L1", L1, min(mesh.L1, ref_mesh.L1))
    _require_within("window L2", L2, min(mesh.L2, ref_mesh.L2))
    n1, n2 = (_whole_cells(name, L, h) for name, L, h in
              (("L1", L1, ref_mesh.h1), ("L2", L2, ref_mesh.h2)))
    x1 = ref_mesh.x1[: n1 + 1]
    x2 = ref_mesh.x2[: n2 + 1]
    ref = np.asarray(ref_values).reshape(ref_mesh.m2 + 1, ref_mesh.m1 + 1)
    ref = ref[: n2 + 1, : n1 + 1]
    num = interpolate_p1(values, mesh, x1, x2)

    w1 = np.full(n1 + 1, ref_mesh.h1)
    w1[[0, -1]] *= 0.5
    w2 = np.full(n2 + 1, ref_mesh.h2)
    w2[[0, -1]] *= 0.5
    w = np.outer(w2, w1)
    diff = np.sqrt(np.sum(w * (num - ref) ** 2))
    base = np.sqrt(np.sum(w * ref**2))
    return diff / base
