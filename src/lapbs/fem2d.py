"""P1 triangle elements for the Laplace-transformed two-asset equation.

The rectangle [0,L1] x [0,L2] carries a uniform tensor grid, each cell
split along the (i,j)-(i+1,j+1) diagonal, so the matrices are 7-point
stencils, filled by grid slices on one CSR pattern per grid shape.  The
edge-midpoint rule integrates the variable-coefficient integrands, each
quadratic per triangle, exactly, but not the load across the payoff's kink.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
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


# a cell's triangles (n00, n10, n11) and (n00, n11, n01), CCW, as (di, dj)
_CORNERS = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
# a node's (di, dj) neighbours in a CSR row's column order
_STENCIL = [(-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1)]


def build_matrices(mesh, basket, u0):
    """z-independent pieces: (spatial matrix, mass matrix, load vector).

    The spatial matrix is the weak form of the transformed operator minus
    its z-mass part; boundary rows are untouched here.  All lower
    triangles share one set of P1 gradients and all upper ones another,
    so each element entry is a fixed combination of per-cell integrals,
    the area and the edge-midpoint moments of x, added by grid slices
    into the 7 stencil diagonals.  The load sums u0 at the same midpoints
    into the nodes: a rule exact for the matrices but not across the
    payoff's kink, kept as it is.  Both matrices take the cached
    ``_stencil_pattern``, explicit zeros included.
    """
    m1, m2, w = mesh.m1, mesh.m2, mesh.h1 * mesh.h2 / 6.0   # midpoint weight
    a11, a22, a12, r = basket.a11, basket.a22, basket.a12, basket.r
    c1, c2 = a11 + 0.5 * a12 - r, a22 + 0.5 * a12 - r
    lam = 0.5 * np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])   # at midpoints
    mass_el = (w / 4.0) * (np.ones((3, 3)) + np.eye(3))   # area / 12
    sides1, sides2 = (np.stack([x[:-1], x[1:]]) for x in (mesh.x1, mesh.x2))
    spatial, mass = np.zeros((2, 7, m2 + 1, m1 + 1))
    load = np.zeros((m2 + 1, m1 + 1))
    for di, dj in _CORNERS.transpose(0, 2, 1):
        # grad lambda_k = perp(p_{k+1} - p_{k+2}) / (2A), perp(d) = (dy, -dx)
        gx = (np.roll(dj, -1) - np.roll(dj, -2)) / mesh.h1
        gy = (np.roll(di, -2) - np.roll(di, -1)) / mesh.h2
        # midpoints of the edges (k, k+1): x1 over cells i, x2 over cells j
        q1 = 0.5 * (sides1[di] + sides1[np.roll(di, -1)])
        q2 = 0.5 * (sides2[dj] + sides2[np.roll(dj, -1)])
        ix1, ix2 = w * lam.T @ q1, w * lam.T @ q2   # int x_i * lambda_k
        m11, m22 = w * (q1 * q1).sum(0), w * (q2 * q2).sum(0)
        # diffusion, the cross term split symmetrically; convection, rows
        # test functions and columns trial; r * mass
        along1 = (0.5 * a11 * np.outer(gx, gx)[..., None] * m11
                  + c1 * ix1[:, None] * gx[:, None] + r * mass_el[..., None])
        along2 = (0.5 * a22 * np.outer(gy, gy)[..., None] * m22
                  + c2 * ix2[:, None] * gy[:, None])
        cross = 0.5 * a12 * (np.outer(gy, gx) + np.outer(gx, gy))
        el = (along1[:, :, None] + along2[..., None]
              + cross[..., None, None] * (w * q2.T @ q1))
        f = np.tensordot(lam, w * u0(q1[:, None], q2[..., None]), (0, 0))
        for a in range(3):
            at = np.s_[dj[a]:dj[a] + m2, di[a]:di[a] + m1]
            load[at] += f[a]
            for b in range(3):
                k = _STENCIL.index((di[b] - di[a], dj[b] - dj[a]))
                spatial[k][at] += el[a, b]
                mass[k][at] += mass_el[a, b]
    indices, indptr, where = _stencil_pattern(m1, m2)
    csr = lambda x: csr_matrix((x.ravel()[where], indices, indptr),
                               shape=(mesh.n_nodes,) * 2)
    return csr(spatial), csr(mass), load.ravel()


@functools.lru_cache(maxsize=None)
def _stencil_pattern(m1, m2):
    """CSR (indices, indptr) of the 7-point stencil on the (m1+1) x (m2+1)
    node grid, with every in-grid neighbour, and each entry's place in a
    (7, nodes) array of stencil diagonals.  Cached per grid shape, so the
    arrays are read-only."""
    i, j = np.meshgrid(np.arange(m1 + 1), np.arange(m2 + 1))
    di, dj = np.array(_STENCIL).T
    ni, nj = i.reshape(-1, 1) + di, j.reshape(-1, 1) + dj   # (nodes, 7)
    inside = (ni >= 0) & (ni <= m1) & (nj >= 0) & (nj <= m2)
    indices = (nj * (m1 + 1) + ni)[inside].astype(np.int32)
    indptr = np.r_[0, np.cumsum(inside.sum(axis=1))].astype(np.int32)
    where = (np.arange(7) * i.size + np.arange(i.size)[:, None])[inside]
    for x in (indices, indptr, where):
        x.flags.writeable = False
    return indices, indptr, where


def _far_nodes(mesh):
    """Node indices along each far edge, keyed by the ``EdgeSpec`` field."""
    m1, m2 = mesh.m1, mesh.m2
    return {"x1_far": np.arange(m2 + 1) * (m1 + 1) + m1,
            "x2_far": m2 * (m1 + 1) + np.arange(m1 + 1)}


def _edge_mass(indices, h, n):
    """1D P1 mass matrix of a boundary line, scattered into the 2D system."""
    a, b = indices[:-1], indices[1:]   # the segments' ends
    data = np.repeat((h / 6.0) * np.array([2.0, 2.0, 1.0, 1.0]), len(a))
    return csr_matrix((data, (np.r_[a, b, a, b], np.r_[a, b, b, a])),
                      shape=(n, n))


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


def _nodal(name, values, mesh):
    """values as the (m2+1, m1+1) node grid; ValueError unless it has one
    entry per mesh node."""
    v = np.asarray(values)
    if v.size != mesh.n_nodes:
        raise ValueError(f"{name} has {v.size} entries but the mesh has "
                         f"{mesh.n_nodes} nodes")
    return v.reshape(mesh.m2 + 1, mesh.m1 + 1)


def interpolate_p1(values, mesh, x1, x2):
    """Evaluate the triangulated P1 interpolant at tensor points (x1 x x2).

    ``values`` needs one entry per mesh node and the points must lie
    inside [0,L1] x [0,L2] (else ValueError).  Each x1 point's cell
    column and each x2 point's cell row are looked up once, on the 1D
    lists (flattened, as ``np.meshgrid`` does); the result has shape
    (len(x2), len(x1)), the meshgrid layout.
    """
    for name, x, L in (("x1", x1, mesh.L1), ("x2", x2, mesh.L2)):
        _require_within(name + " points", x, L)
    v = _nodal("values", values, mesh)
    I = np.minimum(np.ravel(x1) / mesh.h1, mesh.m1 - 1e-12)
    J = np.minimum(np.ravel(x2) / mesh.h2, mesh.m2 - 1e-12)
    i, j = I.astype(int), J.astype(int)
    fx, fy = I - i, (J - j)[:, None]
    lo, hi = v[j], v[j + 1]   # each x2 point's cell: bottom and top rows
    up = hi - lo
    # v00 + a*fx + b*fy on triangle (n00, n10, n11) where fx >= fy, else on
    # (n00, n11, n01): a is v10 - v00 or v11 - v01, b is v11 - v10 or
    # v01 - v00, each difference taken on the rows before the column gather
    lower = fx >= fy
    a = np.where(lower, np.diff(lo)[:, i], np.diff(hi)[:, i])
    b = np.where(lower, up[:, i + 1], up[:, i])
    return lo[:, i] + a * fx + b * fy


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
    ref = _nodal("ref_values", ref_values, ref_mesh)[: n2 + 1, : n1 + 1]
    num = interpolate_p1(values, mesh, x1, x2)

    w1 = np.full(n1 + 1, ref_mesh.h1)
    w1[[0, -1]] *= 0.5
    w2 = np.full(n2 + 1, ref_mesh.h2)
    w2[[0, -1]] *= 0.5
    w = np.outer(w2, w1)
    diff = np.sqrt(np.sum(w * (num - ref) ** 2))
    base = np.sqrt(np.sum(w * ref**2))
    return diff / base
