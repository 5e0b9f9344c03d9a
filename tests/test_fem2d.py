import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import splu, spsolve

from lapbs import fem2d
from lapbs.contour import quadrature_nodes
from lapbs.experiments import EX3_CONTOUR
from lapbs.fem1d import RIGHT_BCS, robin_coefficient
from lapbs.fem2d import (Basket2D, EdgeSpec, Mesh2D, _edge_mass,
                         build_matrices, factor, interpolate_p1,
                         nested_dissection, payoff_basket_maxput, pencil,
                         relative_l2, solve2d, solve_shifts)

BASKET = Basket2D(r=0.05, a11=0.09, a22=0.09, a12=-0.018,
                  strike=100.0, maturity=1.0, L1=300.0, L2=300.0)
# a11 != a22: no swap symmetry, so its pencils keep one node per unknown
MIRRORED = replace(BASKET, a22=0.04)


def payoff(x1, x2):
    return payoff_basket_maxput(x1, x2, BASKET.strike)


class TestMeshAndPayoff:
    def test_node_layout(self):
        mesh = Mesh2D(300.0, 150.0, 3, 2)
        assert mesh.n_nodes == 12
        assert mesh.h1 == 100.0 and mesh.h2 == 75.0
        # node k = j*(m1+1) + i
        assert mesh.x1g.ravel()[2 * 4 + 3] == 300.0
        assert mesh.x2g.ravel()[2 * 4 + 3] == 150.0

    def test_payoff(self):
        got = payoff_basket_maxput(np.array([0.0, 50.0, 120.0]),
                                   np.array([80.0, 30.0, 10.0]), 100.0)
        assert list(got) == [20.0, 50.0, 0.0]

    @pytest.mark.parametrize("m1, m2", [(0, 4), (4, 0), (-4, 4), (2.5, 3),
                                        (3, 2.5), (True, 3)])
    def test_mesh_needs_an_element_per_side(self, m1, m2):
        with pytest.raises(ValueError, match="at least 1 element"):
            Mesh2D(300.0, 300.0, m1, m2)

    def test_basket_validation(self):
        with pytest.raises(ValueError):
            Basket2D(0.05, 0.09, 0.09, 0.1, 100.0, 1.0, 300.0, 300.0)
        with pytest.raises(ValueError):
            Basket2D(0.05, -0.09, 0.09, 0.0, 100.0, 1.0, 300.0, 300.0)
        nan = float("nan")
        for bad in (dict(strike=-100.0), dict(strike=nan), dict(L1=0.0, L2=0.0),
                    dict(L1=nan), dict(L2=float("inf")), dict(r=nan),
                    dict(a11=nan), dict(a12=nan), dict(maturity=nan)):
            with pytest.raises(ValueError):
                replace(BASKET, **bad)

    @pytest.mark.parametrize("L1, L2", [(-300.0, 300.0), (300.0, 0.0),
                                        (float("nan"), 300.0),
                                        (300.0, float("inf"))])
    def test_mesh_needs_positive_finite_sides(self, L1, L2):
        with pytest.raises(ValueError, match="positive and finite"):
            Mesh2D(L1, L2, 4, 4)

    @pytest.mark.parametrize("edge, cond", [
        ("x1_far", "dirchlet0"), ("x1_far", "neumann0"),
        ("x2_far", "neumann0"), ("x2_far", "neumann"),
    ])
    def test_edge_spec_rejects_unknown_conditions(self, edge, cond):
        with pytest.raises(ValueError, match=edge) as err:
            EdgeSpec(**{edge: cond})
        assert str(RIGHT_BCS) in str(err.value)

    @pytest.mark.parametrize("edge", ["x1_zero", "x2_zero"])
    def test_edge_spec_has_no_zero_edge_field(self, edge):
        # x1 = 0 and x2 = 0 are always zero-flux
        with pytest.raises(TypeError, match=edge):
            EdgeSpec(**{edge: "neumann0"})


class TestBuildMatrices:
    """Energy identities with exactly-representable linear fields.

    All integrands below are at most quadratic per triangle, so the
    edge-midpoint rule gives exact values; the closed forms are hand
    integrals over the square [0,L]^2.
    """

    def setup_method(self):
        self.L = 300.0
        self.mesh = Mesh2D(self.L, self.L, 8, 8)
        self.spatial, self.mass, self.load = build_matrices(
            self.mesh, BASKET, payoff)

    def test_mass_total_is_area(self):
        assert self.mass.sum() == pytest.approx(self.L**2)

    def test_mass_energy_linear_field(self):
        # int x1^2 over the square = L^4 / 3
        u = self.mesh.x1g.ravel()
        assert u @ (self.mass @ u) == pytest.approx(self.L**4 / 3.0)

    def test_spatial_energy_diagonal(self):
        # v = u = x1: (1/2)a11 int x1^2 + c1 int x1*x1 + r int x1^2
        u = self.mesh.x1g.ravel()
        c1 = BASKET.a11 + 0.5 * BASKET.a12 - BASKET.r
        want = (0.5 * BASKET.a11 + c1 + BASKET.r) * self.L**4 / 3.0
        assert u @ (self.spatial @ u) == pytest.approx(want)

    def test_spatial_energy_cross(self):
        # trial u = x1, test v = x2 isolates the a12 split and convection
        u = self.mesh.x1g.ravel()
        v = self.mesh.x2g.ravel()
        c1 = BASKET.a11 + 0.5 * BASKET.a12 - BASKET.r
        want = (0.5 * BASKET.a12 * (self.L**2 / 2.0) ** 2 / self.L**4
                + 0.25 * c1 + 0.25 * BASKET.r) * self.L**4
        assert v @ (self.spatial @ u) == pytest.approx(want)

    def test_load_total_is_payoff_integral(self):
        # sum of the load vector = int u0; u0 here is x1*x2 (quadratic)
        _, _, load = build_matrices(self.mesh, BASKET,
                                    lambda x1, x2: x1 * x2)
        assert load.sum() == pytest.approx(self.L**4 / 4.0)

    def test_mass_symmetric(self):
        d = self.mass - self.mass.T
        assert abs(d).max() < 1e-12


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


def element_matrices(mesh, basket, u0):
    """``build_matrices`` by per-triangle element assembly: each triangle's
    gradients, areas and edge-midpoint integrals from its own vertex
    coordinates, scattered through COO.  The reference the stencil fill
    is checked against."""
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
    el += 0.5 * a11 * m11[:, None, None] * np.einsum("ti,tj->tij", g[:, :, 0],
                                                     g[:, :, 0])
    el += 0.5 * a22 * m22[:, None, None] * np.einsum("ti,tj->tij", g[:, :, 1],
                                                     g[:, :, 1])
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


def stencil_nnz(m1, m2):
    """Entries of the 7-point pattern: each node, and both ends of each
    horizontal, vertical and diagonal edge."""
    return ((m1 + 1) * (m2 + 1) + 2 * m1 * (m2 + 1) + 2 * (m1 + 1) * m2
            + 2 * m1 * m2)


def assert_matches_elements(mesh, basket, u0=payoff):
    """``build_matrices`` against ``element_matrices``: the same CSR
    pattern, S and M within 1e-14 of their largest entry and the load
    within 1e-15 of its largest.  Not entry by entry relatively: two
    correct summation orders differ by 50% on a cancelling entry of
    1e-21 of the largest, or leave it exactly 0 in one of them."""
    got, want = build_matrices(mesh, basket, u0), element_matrices(mesh,
                                                                  basket, u0)
    for x, y in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(x.indptr, y.indptr)
        np.testing.assert_array_equal(x.indices, y.indices)
        assert x.nnz == stencil_nnz(mesh.m1, mesh.m2)
        assert np.abs(x.data - y.data).max() <= 1e-14 * np.abs(y.data).max()
    load, ref = got[2], want[2]
    assert load.shape == ref.shape
    assert np.abs(load - ref).max() <= 1e-15 * np.abs(ref).max()


class TestStencilFill:
    """The stencil fill gives the element assembly's matrices and load."""

    @pytest.mark.parametrize("mesh, basket", [
        (Mesh2D(600.0, 600.0, 128, 128), BASKET),
        (Mesh2D(300.0, 200.0, 12, 7), BASKET),
        (Mesh2D(300.0, 200.0, 1, 6), BASKET),
        (Mesh2D(300.0, 200.0, 7, 1), BASKET),
        (Mesh2D(300.0, 300.0, 1, 1), BASKET),
        (Mesh2D(300.0, 300.0, 64, 64), replace(BASKET, a12=0.0)),
        (Mesh2D(300.0, 200.0, 12, 7), MIRRORED),
        (Mesh2D(300.0, 200.0, 12, 7), replace(MIRRORED, a12=0.0, r=-0.02)),
    ], ids=["128", "12x7", "m1_1", "m2_1", "1x1", "a12_0", "a11_a22",
            "a12_0_a11_a22"])
    def test_matches_element_assembly(self, mesh, basket):
        assert_matches_elements(mesh, basket)

    @settings(max_examples=40, deadline=None)
    @given(m1=st.integers(1, 12), m2=st.integers(1, 12),
           L1=st.floats(1.0, 1000.0), L2=st.floats(1.0, 1000.0),
           a11=st.floats(0.001, 1.0), a22=st.floats(0.001, 1.0),
           rho=st.floats(-0.99, 0.99), r=st.floats(-0.1, 0.2),
           strike=st.floats(0.1, 1.0))
    def test_matches_on_random_grids(self, m1, m2, L1, L2, a11, a22, rho, r,
                                     strike):
        basket = Basket2D(r, a11, a22, rho * np.sqrt(a11 * a22),
                          strike * min(L1, L2), 1.0, L1, L2)
        assert_matches_elements(Mesh2D(L1, L2, m1, m2), basket,
                                lambda x1, x2: payoff_basket_maxput(
                                    x1, x2, basket.strike))


class TestStencilPattern:
    """One read-only CSR pattern per grid shape, explicit zeros kept, so
    every build on a grid has the structurally symmetric 7-point one."""

    def test_cached_and_read_only(self):
        pattern = fem2d._stencil_pattern(6, 4)
        assert all(x is y for x, y in zip(pattern,
                                          fem2d._stencil_pattern(6, 4)))
        for x in pattern:
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1

    def test_shared_between_builds_on_one_grid(self):
        mesh = Mesh2D(300.0, 200.0, 6, 4)
        indices, indptr, _ = fem2d._stencil_pattern(6, 4)
        for basket in (BASKET, MIRRORED):
            for x in build_matrices(mesh, basket, payoff)[:2]:
                assert np.shares_memory(x.indices, indices)
                assert np.shares_memory(x.indptr, indptr)

    def test_structurally_symmetric(self):
        # at 64^2 two entries of S cancel to exactly 0, their transposes not
        s, m, _ = build_matrices(Mesh2D(300.0, 300.0, 64, 64), BASKET, payoff)
        for x in (s, m):
            pattern = csr_matrix((np.ones(x.nnz), x.indices, x.indptr),
                                 shape=x.shape)
            assert (pattern != pattern.T).nnz == 0

    def test_a12_zero_keeps_every_entry(self):
        # cancelling entries stay as explicit zeros, whatever the data
        mesh = Mesh2D(300.0, 300.0, 64, 64)
        nnz = [x.nnz for basket in (BASKET, replace(BASKET, a12=0.0))
               for x in build_matrices(mesh, basket, payoff)[:2]]
        assert nnz == [stencil_nnz(64, 64)] * 4

    def test_folded_lu_fill_matches_element_assembly(self, monkeypatch):
        mesh = Mesh2D(300.0, 300.0, 64, 64)
        z = quadrature_nodes(EX3_CONTOUR)[0][7]
        fills = []
        for build in (build_matrices, element_matrices):
            monkeypatch.setattr(fem2d, "build_matrices", build)
            p = pencil(mesh, BASKET, EdgeSpec())
            assert p.expand.shape[1] < mesh.n_nodes // 2   # folded
            lu = factor(p.at(z)[0])
            fills.append(lu.L.nnz + lu.U.nnz)
        assert fills[0] == fills[1]


def held_at_zero(p):
    """The nodes that are no unknown of the pencil: zero rows of expand."""
    return np.flatnonzero(p.expand.toarray().sum(axis=1) == 0)


def full(p, z):
    """expand A(z) expand^T over the nodes, natural order."""
    a, _ = p.at(z)
    return (p.expand @ a @ p.expand.T).toarray()


class TestBoundaryHandling:
    def test_dirichlet_nodes_default_edges(self):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        idx = held_at_zero(pencil(mesh, BASKET, EdgeSpec()))
        # far edges only: column i=4 and row j=4, 9 distinct nodes
        assert len(idx) == 9
        assert set(idx) == {4, 9, 14, 19, 20, 21, 22, 23, 24}

    def test_no_dirichlet_when_transparent(self):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        edges = EdgeSpec(x1_far="transparent", x2_far="transparent")
        p = pencil(mesh, MIRRORED, edges)
        assert len(held_at_zero(p)) == 0
        assert p.expand.shape == (25, 25)

    def test_edge_mass_row_sum(self):
        idx = np.array([2, 5, 8])
        em = _edge_mass(idx, 1.5, 10)
        assert em.sum() == pytest.approx(2 * 1.5)  # total edge length

    def test_transparent_modifies_only_far_edge_rows(self):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        z = 2.0 + 1.0j
        a_d = full(pencil(mesh, MIRRORED, EdgeSpec(x2_far="dirichlet0",
                                                   x1_far="transparent")), z)
        a_t = full(pencil(mesh, MIRRORED, EdgeSpec(x2_far="dirichlet0",
                                                   x1_far="dirichlet0")), z)
        row, col = np.nonzero(a_d - a_t)
        # switching the edge to Dirichlet drops its rows and its columns
        far = np.arange(5) * 5 + 4
        assert len(row) > 0
        assert np.all(np.isin(row, far) | np.isin(col, far))

    def test_transparent_modifies_only_far_edge_rows_folded(self):
        # folded, the Robin terms touch only the unknowns of far-edge nodes
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        p = pencil(mesh, BASKET, EdgeSpec(x1_far="transparent",
                                          x2_far="transparent"))
        far = np.unique(np.r_[np.arange(5) * 5 + 4, 20 + np.arange(5)])
        on_far = np.flatnonzero(p.expand[far].sum(axis=0).A1)
        assert len(on_far) == 5 and len(p.robin) == 2
        for _, bk in p.robin:
            row, col = bk.nonzero()
            assert len(row) > 0
            assert np.all(np.isin(row, on_far) & np.isin(col, on_far))

    def test_dirichlet_nodes_hold_zero(self):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        p = pencil(mesh, BASKET, EdgeSpec())
        u = p.expand @ solve2d(p.at(1.0))
        assert np.all(u[held_at_zero(p)] == 0.0)
        assert np.all(np.delete(u, held_at_zero(p)) != 0.0)


class TestPencil:
    @pytest.mark.parametrize("edges", [
        EdgeSpec(),
        EdgeSpec(x1_far="transparent", x2_far="transparent"),
        EdgeSpec(x1_far="transparent"),
    ], ids=["dirichlet", "transparent", "mixed"])
    def test_at_is_the_shifted_pencil_in_its_unknowns(self, edges):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        z = 2.0 + 1.0j
        far1 = np.arange(5) * 5 + 4
        far2 = 20 + np.arange(5)
        for basket in (BASKET, MIRRORED):
            spatial, mass, load = build_matrices(mesh, basket, payoff)
            want = spatial + z * mass
            for cond, a, idx, h in ((edges.x1_far, basket.a11, far1, mesh.h2),
                                    (edges.x2_far, basket.a22, far2, mesh.h1)):
                if cond == "transparent":
                    c = robin_coefficient(z, basket.r, np.sqrt(a), 300.0)
                    want = want - 0.5 * a * 300.0**2 * c * _edge_mass(
                        idx, h, mesh.n_nodes)

            p = pencil(mesh, basket, edges)
            a, rhs = p.at(z)
            e = p.expand
            np.testing.assert_allclose(a.toarray(),
                                       (e.T @ want @ e).toarray(), rtol=1e-14)
            np.testing.assert_array_equal(rhs, e.T @ load)
            # each node is in at most one unknown, folded or not, and the
            # columns are orthonormal
            assert np.all(np.diff(e.tocsr().indptr) <= 1)
            np.testing.assert_allclose((e.T @ e).toarray(),
                                       np.eye(e.shape[1]), rtol=0, atol=1e-15)
        # on the mirrored basket, one 1 per column
        assert np.all(e.data == 1.0)
        assert np.all(np.diff(e.indptr) == 1)

    def test_at_never_writes_into_the_pencil(self):
        # a sparse += makes a new matrix, so S, M and each B_k stay put
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        edges = EdgeSpec(x1_far="transparent")
        p = pencil(mesh, MIRRORED, edges)
        before = [x.copy() for x in (p.S, p.M, *(b for _, b in p.robin))]
        load = p.load.copy()
        p.at(2.0 + 1.0j)
        a, rhs = p.at(0.5 - 7.0j)
        for got, want in zip((p.S, p.M, *(b for _, b in p.robin)), before,
                             strict=True):
            assert (got != want).nnz == 0
        np.testing.assert_array_equal(p.load, load)
        fresh, fresh_rhs = pencil(mesh, MIRRORED, edges).at(0.5 - 7.0j)
        assert (a != fresh).nnz == 0
        np.testing.assert_array_equal(rhs, fresh_rhs)

    def test_transparent_edges_sit_at_the_mesh_domain(self):
        # the Robin terms take L from the mesh, whatever the basket says
        mesh = Mesh2D(150.0, 150.0, 32, 32)
        edges = EdgeSpec(x1_far="transparent", x2_far="transparent")
        z = quadrature_nodes(EX3_CONTOUR)[0][3]
        (a, rhs), (b, rhs_b) = (
            pencil(mesh, basket, edges).at(z)
            for basket in (replace(BASKET, L1=150.0, L2=150.0), BASKET))
        assert (a != b).nnz == 0
        np.testing.assert_array_equal(rhs, rhs_b)


def mirror(mesh):
    """Node (i, j) -> node (j, i) of a square grid."""
    return np.arange(mesh.n_nodes).reshape(mesh.m2 + 1, mesh.m1 + 1).T.ravel()


class TestFold:
    """Swap-symmetric data (m1 = m2, L1 = L2, a11 = a22, one condition on
    both far edges) fold each node (i, j), i < j, onto the unknown of its
    mirror (j, i); any other data keep one node per unknown."""

    @pytest.mark.parametrize("m", [16, 128])
    def test_operators_commute_with_the_swap(self, m):
        mesh = Mesh2D(300.0, 300.0, m, m)
        n = mesh.n_nodes
        swap = csr_matrix((np.ones(n), (np.arange(n), mirror(mesh))),
                          shape=(n, n))
        far = fem2d._far_nodes(mesh)
        edges = (_edge_mass(far["x1_far"], mesh.h2, n)
                 + _edge_mass(far["x2_far"], mesh.h1, n))
        spatial, mass, _ = build_matrices(mesh, BASKET, payoff)
        for x in (spatial, mass, edges):
            assert abs(swap @ x @ swap.T - x).max() <= 1e-12 * abs(x).max()
        # the mirrored basket's operator does not commute
        x, _, _ = build_matrices(mesh, MIRRORED, payoff)
        assert abs(swap @ x @ swap.T - x).max() > 1e-3 * abs(x).max()

    @pytest.mark.parametrize("edges, free, unknowns", [
        (EdgeSpec(), 16, 10),
        (EdgeSpec(x1_far="transparent", x2_far="transparent"), 25, 15),
    ], ids=["dirichlet", "transparent"])
    def test_each_column_is_a_node_or_a_mirrored_pair(self, edges, free,
                                                       unknowns):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        e = pencil(mesh, BASKET, edges).expand
        assert e.shape == (25, unknowns)
        # every free node sits in exactly one column
        per_node = np.diff(e.tocsr().indptr)
        assert np.all(per_node <= 1) and per_node.sum() == free
        twin = mirror(mesh)
        for c in range(unknowns):
            nodes = e.indices[e.indptr[c]:e.indptr[c + 1]]
            assert set(nodes) == {nodes[0], twin[nodes[0]]}
            # a node on the diagonal at 1, a mirrored pair at 1/sqrt(2) each
            weights = e.data[e.indptr[c]:e.indptr[c + 1]]
            assert np.all(weights == np.sqrt(1.0 / len(nodes)))

    @pytest.mark.parametrize("mesh, basket, edges", [
        (Mesh2D(300.0, 300.0, 4, 5), BASKET, EdgeSpec()),
        (Mesh2D(300.0, 240.0, 4, 4), BASKET, EdgeSpec()),
        (Mesh2D(300.0, 300.0, 4, 4), MIRRORED, EdgeSpec()),
        (Mesh2D(300.0, 300.0, 4, 4), BASKET, EdgeSpec(x1_far="transparent")),
    ], ids=["m1_m2", "L1_L2", "a11_a22", "edges"])
    def test_asymmetric_data_keep_one_node_per_column(self, mesh, basket,
                                                      edges):
        e = pencil(mesh, basket, edges).expand
        assert np.all(np.diff(e.indptr) == 1)
        assert e.shape[1] == e.nnz == mesh.m1 * mesh.m2 + (
            mesh.m2 if edges.x1_far == "transparent" else 0)

    @pytest.mark.parametrize("z", [2.0, -8.35 + 12.39j,
                                   quadrature_nodes(EX3_CONTOUR)[0][7]],
                             ids=["real", "complex", "node7"])
    @pytest.mark.parametrize("L, edges", [
        (300.0, EdgeSpec()),
        (150.0, EdgeSpec(x1_far="transparent", x2_far="transparent")),
        (300.0, EdgeSpec(x1_far="transparent", x2_far="transparent")),
        (300.0, EdgeSpec(x1_far="transparent")),
    ], ids=["dirichlet", "transparent", "transparent_300", "mixed"])
    def test_solve_matches_the_whole_grid(self, L, edges, z):
        # the whole grid's system, built by hand on the free nodes
        mesh = Mesh2D(L, L, 32, 32)
        n = mesh.n_nodes
        spatial, mass, load = build_matrices(mesh, BASKET, payoff)
        a = spatial + z * mass
        free = np.ones(n, dtype=bool)
        far = fem2d._far_nodes(mesh)
        for edge, h in (("x1_far", mesh.h2), ("x2_far", mesh.h1)):
            if getattr(edges, edge) == "transparent":
                c = robin_coefficient(z, BASKET.r, np.sqrt(BASKET.a11), L)
                a = a - 0.5 * BASKET.a11 * L**2 * c * _edge_mass(far[edge],
                                                                 h, n)
            else:
                free[far[edge]] = False
        want = spsolve(a[free][:, free].tocsc(), load[free].astype(complex))

        p = pencil(mesh, BASKET, edges)
        folded = edges.x1_far == edges.x2_far
        assert p.expand.shape[1] == (np.count_nonzero(np.triu(
            free.reshape(33, 33))) if folded else np.count_nonzero(free))
        got = p.expand @ solve2d(p.at(z))
        assert np.all(got[~free] == 0.0)
        assert (np.linalg.norm(got[free] - want)
                <= 1e-11 * np.linalg.norm(want))
        # the residual guard's norms, read in the unknowns, are the node
        # norms: for x = expand y, ||expand^T (a x - b)|| = ||a x - b||
        y = np.random.default_rng(1).standard_normal(p.expand.shape[1])
        r = np.where(free, a @ (p.expand @ y) - load, 0.0)
        a_p, b_p = p.at(z)
        assert np.linalg.norm(a_p @ y - b_p) == pytest.approx(
            np.linalg.norm(r), rel=1e-12)
        assert np.linalg.norm(b_p) == pytest.approx(
            np.linalg.norm(load[free]), rel=1e-12)


SQUARE = (Mesh2D(300.0, 300.0, 32, 32), BASKET)
NON_SQUARE = (Mesh2D(300.0, 150.0, 24, 12), replace(BASKET, L2=150.0))


class TestFactor:
    """A pencil's unknowns are in nested-dissection order and its matrices
    structurally symmetric, so the symmetric-mode LU keeps every diagonal
    pivot and the ordering survives partial pivoting."""

    @pytest.mark.parametrize("z", [2.0, 2.0 + 1.0j, -8.35 + 12.39j])
    @pytest.mark.parametrize("m, basket, edges", [
        (32, MIRRORED, EdgeSpec()),
        (32, MIRRORED, EdgeSpec(x1_far="transparent")),
        # the folded triangle at 32^2 is too small for the bound (0.95)
        (64, BASKET, EdgeSpec()),
        (64, BASKET, EdgeSpec(x1_far="transparent", x2_far="transparent")),
    ], ids=["dirichlet", "mixed", "folded_dirichlet", "folded_transparent"])
    def test_diagonal_pivots_and_less_fill(self, m, basket, edges, z):
        mesh = Mesh2D(300.0, 300.0, m, m)
        a, _ = pencil(mesh, basket, edges).at(z)
        lu = factor(a)
        default = splu(a)
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        nnz = lu.L.nnz + lu.U.nnz
        assert nnz <= 0.85 * (default.L.nnz + default.U.nnz)

    @pytest.mark.parametrize("edges, grid", [
        (EdgeSpec(), SQUARE), (EdgeSpec(x1_far="transparent"), SQUARE),
        (EdgeSpec(), NON_SQUARE), (EdgeSpec(x1_far="transparent"), NON_SQUARE),
    ], ids=["dirichlet", "mixed", "dirichlet-non_square", "mixed-non_square"])
    def test_solve_matches_spsolve(self, edges, grid):
        p = pencil(*grid, edges)
        a, rhs = p.at(-8.35 + 12.39j)
        want = spsolve(a, rhs)
        got = solve2d((a, rhs))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def whole(m1, m2):
    """Every node of the (m1+1) x (m2+1) grid kept."""
    return np.ones((m2 + 1, m1 + 1), dtype=bool)


def box_order(m1, m2):
    """The whole grid's order as a recursion over boxes: the longer side
    bisected at its middle grid line, separator last, boxes of at most
    4 nodes in natural order."""
    def split(box):   # a block of the node grid: rows j, columns i
        if box.size <= 4:
            return [box.ravel()]
        rows, cols = box.shape
        if cols >= rows:
            i = cols // 2
            return split(box[:, :i]) + split(box[:, i + 1:]) + [box[:, i]]
        j = rows // 2
        return split(box[:j]) + split(box[j + 1:]) + [box[j]]

    return np.concatenate(split(np.arange((m1 + 1) * (m2 + 1))
                                .reshape(m2 + 1, m1 + 1)))


GRID_SHAPES = pytest.mark.parametrize("m1, m2", [
    (1, 1), (1, 9), (9, 1), (2, 2), (8, 8), (24, 12), (12, 24), (31, 5),
    (128, 128)])


class TestNestedDissection:
    @GRID_SHAPES
    def test_permutation_of_every_node(self, m1, m2):
        order = nested_dissection(whole(m1, m2))
        assert np.array_equal(np.sort(order), np.arange((m1 + 1) * (m2 + 1)))

    @GRID_SHAPES
    def test_whole_grid_is_the_box_recursion(self, m1, m2):
        np.testing.assert_array_equal(nested_dissection(whole(m1, m2)),
                                      box_order(m1, m2))

    def test_small_box_keeps_natural_order(self):
        np.testing.assert_array_equal(nested_dissection(whole(1, 1)),
                                      [0, 1, 2, 3])

    def test_small_set_keeps_ascending_order(self):
        keep = np.zeros((9, 9), dtype=bool)
        keep.flat[[70, 3, 41, 12]] = True
        np.testing.assert_array_equal(nested_dissection(keep),
                                      [3, 12, 41, 70])

    @pytest.mark.parametrize("m1, m2", [(8, 8), (8, 4), (4, 8)])
    def test_longer_side_bisected_separator_last(self, m1, m2):
        n1, n2 = m1 + 1, m2 + 1
        order = nested_dissection(whole(m1, m2))
        if n1 >= n2:   # the column i = n1 // 2, bottom to top
            sep = np.arange(n2) * n1 + n1 // 2
        else:          # the row j = n2 // 2, left to right
            sep = (n2 // 2) * n1 + np.arange(n1)
        np.testing.assert_array_equal(order[-len(sep):], sep)
        # the first half ends before the second begins
        first = order[:(len(order) - len(sep)) // 2]
        i, j = first % n1, first // n1
        assert np.all(i < n1 // 2) if n1 >= n2 else np.all(j < n2 // 2)

    def test_node_set_bisected_at_its_median_line(self):
        # the triangle i >= j: its bounding box is square, so the set is
        # cut at the median column, which is not the box's middle one
        keep = np.triu(whole(8, 8))
        order = nested_dissection(keep)
        nodes = np.flatnonzero(keep)
        i = nodes % 9
        line = np.sort(i)[len(i) // 2]
        assert line == 6
        sep = nodes[i == line]
        np.testing.assert_array_equal(order[-len(sep):], sep)
        np.testing.assert_array_equal(np.sort(order), nodes)
        rest = order[:-len(sep)] % 9
        below = np.flatnonzero(rest < line)
        assert np.all(rest[:len(below)] < line)

    def test_cached_and_read_only(self):
        order = nested_dissection(whole(6, 4))
        assert order is nested_dissection(whole(6, 4))
        with pytest.raises(ValueError, match="read-only"):
            order[0] = 1

    def test_pencil_carries_the_order(self):
        # the unknowns are the free nodes in their own order
        p = pencil(*NON_SQUARE, EdgeSpec())
        keep = np.ones(p.expand.shape[0], dtype=bool)
        keep[held_at_zero(p)] = False
        e = p.expand.tocoo()
        np.testing.assert_array_equal(e.row[np.argsort(e.col)],
                                      nested_dissection(keep.reshape(13, 25)))

    def test_folded_pencil_carries_the_triangle_order(self):
        # each column's first node is its i >= j one, in the triangle's order
        p = pencil(*SQUARE, EdgeSpec())
        keep = np.ones(p.expand.shape[0], dtype=bool)
        keep[held_at_zero(p)] = False
        e = p.expand
        np.testing.assert_array_equal(
            e.indices[e.indptr[:-1]],
            nested_dissection(np.triu(keep.reshape(33, 33))))

    def test_no_more_fill_than_minimum_degree_at_128(self):
        p = pencil(Mesh2D(300.0, 300.0, 128, 128), BASKET, EdgeSpec())
        a, _ = p.at(quadrature_nodes(EX3_CONTOUR)[0][7])
        nd = factor(a)
        mmd = splu(a, permc_spec="MMD_AT_PLUS_A",
                   options={"SymmetricMode": True})
        assert nd.L.nnz + nd.U.nnz <= mmd.L.nnz + mmd.U.nnz


class TestSolve2D:
    def test_conjugate_symmetry(self):
        mesh = Mesh2D(300.0, 300.0, 12, 12)
        z = 3.9 + 33.0j
        p = pencil(mesh, BASKET, EdgeSpec())
        u = p.expand @ solve2d(p.at(z))
        v = p.expand @ solve2d(p.at(np.conj(z)))
        np.testing.assert_allclose(v, np.conj(u), rtol=1e-12, atol=1e-14)

    def test_zero_data_gives_zero(self):
        mesh = Mesh2D(300.0, 300.0, 8, 8)
        p = pencil(mesh, BASKET, EdgeSpec())
        sys = replace(p, load=np.zeros_like(p.load)).at(2.0)
        np.testing.assert_allclose(solve2d(sys), 0.0, atol=1e-14)

    def test_nan_rhs_raises(self):
        mesh = Mesh2D(300.0, 300.0, 8, 8)
        # unfolded: 64 unknowns; folded: 36
        for basket, size, index in ((MIRRORED, 64, 40), (BASKET, 36, 20)):
            a, rhs = pencil(mesh, basket, EdgeSpec()).at(2.0)
            assert len(rhs) == size
            rhs[index] = np.nan
            with pytest.raises(RuntimeError, match="residual is nan"):
                solve2d((a, rhs))

    def test_real_z_real_payoff_gives_real_positive_field(self):
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        p = pencil(mesh, BASKET, EdgeSpec())
        u = p.expand @ solve2d(p.at(2.0))
        assert np.max(np.abs(u.imag)) < 1e-14
        assert u.real.min() > -1e-10

    def test_swap_symmetry(self):
        # a11 = a22 and symmetric payoff: u(x1, x2) = u(x2, x1)
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        p = pencil(mesh, BASKET, EdgeSpec())
        u = (p.expand @ solve2d(p.at(2.0))).real
        grid = u.reshape(17, 17)
        np.testing.assert_allclose(grid, grid.T, rtol=1e-10, atol=1e-12)


class TestSolveShifts:
    """One LU per group of shifts for a Dirichlet pencil, with the same
    guard as ``solve2d``, and ``solve2d`` itself wherever the Krylov solve
    falls short; a Robin pencil is ``solve2d`` at every shift."""

    ZS = quadrature_nodes(EX3_CONTOUR)[0].tolist()
    GROUPS = [ZS[0:4], ZS[4:8], ZS[8:12], ZS[12:15]]

    @pytest.fixture(scope="class")
    def dirichlet(self):
        return pencil(Mesh2D(300.0, 300.0, 32, 32), BASKET, EdgeSpec())

    @pytest.fixture(scope="class")
    def robin(self):
        return pencil(Mesh2D(150.0, 150.0, 32, 32),
                      replace(BASKET, L1=150.0, L2=150.0),
                      EdgeSpec(x1_far="transparent", x2_far="transparent"))

    @pytest.fixture(scope="class")
    def non_square(self):
        return pencil(*NON_SQUARE, EdgeSpec(x1_far="transparent"))

    def test_rows_match_direct_and_pass_the_guard(self, dirichlet, robin,
                                                  non_square):
        assert robin.robin and not dirichlet.robin
        for p in (dirichlet, robin, non_square):
            for zs in self.GROUPS:
                for z, x in zip(zs, solve_shifts(p, zs)):
                    a, b = p.at(z)
                    want = solve2d((a, b))
                    assert (np.linalg.norm(x - want)
                            <= 1e-9 * np.linalg.norm(want))
                    res = p.S @ x + z * (p.M @ x) - b
                    for c, bk in p.robin:
                        res += c(z) * (bk @ x)
                    assert np.allclose(res, a @ x - b, rtol=0, atol=1e-9)
                    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(b)

    def test_step_cap_falls_back_to_direct(self, dirichlet, robin,
                                           monkeypatch, caplog):
        # the anchor's row is the direct solve; each other shift falls back
        # to it, with one warning giving the basis's step count.  A Robin
        # pencil builds no basis, so it has no cap to reach.
        monkeypatch.setattr(fem2d, "_MAX_STEPS", 1)
        for zs in self.GROUPS:
            caplog.clear()
            with caplog.at_level(logging.WARNING, "lapbs.fem2d"):
                rows = solve_shifts(dirichlet, zs)
                robin_rows = solve_shifts(robin, zs)
            for z, x in zip(zs, rows):
                assert np.array_equal(x, solve2d(dirichlet.at(z)))
            for z, x in zip(zs, robin_rows):
                assert np.array_equal(x, solve2d(robin.at(z)))
            anchor = len(zs) // 2
            fell_back = zs[:anchor] + zs[anchor + 1:]
            assert len(caplog.records) == len(fell_back)
            for z, record in zip(fell_back, caplog.records):
                assert record.levelno == logging.WARNING
                assert record.getMessage().startswith(f"shift z={z} ")
                assert "in 1 Krylov steps" in record.getMessage()

    def test_fallback_logs_a_warning_per_shift(self, dirichlet, monkeypatch,
                                               caplog):
        monkeypatch.setattr(fem2d, "_MAX_STEPS", 1)
        zs = self.GROUPS[1]
        with caplog.at_level(logging.WARNING, "lapbs.fem2d"):
            solve_shifts(dirichlet, zs)
        fell_back = zs[:2] + zs[3:]   # all but the anchor, zs[2]
        assert len(caplog.records) == len(fell_back)
        for z, record in zip(fell_back, caplog.records):
            assert record.levelno == logging.WARNING
            assert f"z={z}" in record.getMessage()
            assert "relative residual" in record.getMessage()

    def test_zero_data_gives_zero(self):
        p = pencil(Mesh2D(300.0, 300.0, 8, 8), BASKET, EdgeSpec())
        p = replace(p, load=np.zeros_like(p.load))
        for x in solve_shifts(p, self.GROUPS[0]):
            np.testing.assert_allclose(x, 0.0, atol=1e-14)


def interpolate_meshgrid(values, mesh, x1, x2):
    """``interpolate_p1`` on two (len(x2), len(x1)) meshgrids of cell
    coordinates, each point's corners gathered by (row, column) pairs and
    both triangles' formulas evaluated everywhere.  The reference the 1D
    cell lookup is checked against, bit for bit."""
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
    return np.where(fx >= fy,
                    v00 + (v10 - v00) * fx + (v11 - v10) * fy,
                    v00 + (v11 - v01) * fx + (v01 - v00) * fy)


# cell widths with short binary mantissas: q/4 * h and its quotient by h
# are exact, so quarter points give fx = fy exactly when their quarters match
EXACT_WIDTHS = [0.5, 1.25, 3.0, 9.375]


@st.composite
def interpolation_case(draw):
    """A mesh, nodal values and point lists for ``interpolate_p1``: quarter
    points (cell edges, 0, L and fx = fy included), any points in the
    domain, repeats and any order; sometimes one axis a scalar."""
    m1, m2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    width = st.sampled_from(EXACT_WIDTHS) | st.floats(0.01, 100.0)
    mesh = Mesh2D(m1 * draw(width), m2 * draw(width), m1, m2)

    def points(m, h, L):
        point = (st.integers(0, 4 * m).map(lambda q: q / 4 * h)
                 | st.floats(0.0, L) | st.sampled_from([0.0, L]))
        xs = draw(st.lists(point, min_size=1, max_size=12))
        return xs[0] if draw(st.booleans()) else np.array(xs)

    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=mesh.n_nodes)
    return (values, mesh, points(m1, mesh.h1, mesh.L1),
            points(m2, mesh.h2, mesh.L2))


class TestInterpolationAndError:
    def test_reproduces_nodal_values(self):
        mesh = Mesh2D(10.0, 10.0, 5, 5)
        vals = np.arange(mesh.n_nodes, dtype=float)
        got = interpolate_p1(vals, mesh, mesh.x1, mesh.x2)
        np.testing.assert_allclose(got.ravel(), vals)

    def test_exact_on_linear_fields(self):
        mesh = Mesh2D(10.0, 10.0, 5, 5)
        vals = 2.0 * mesh.x1g + 3.0 * mesh.x2g - 1.0
        xs = np.linspace(0.3, 9.7, 11)
        got = interpolate_p1(vals.ravel(), mesh, xs, xs)
        want = 2.0 * xs[None, :] + 3.0 * xs[:, None] - 1.0
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(case=interpolation_case())
    def test_bitwise_equal_to_meshgrid_reference(self, case):
        got, want = interpolate_p1(*case), interpolate_meshgrid(*case)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_scalar_points_give_one_by_one(self):
        # as np.meshgrid lays out scalars; (37.5, 75) is node (1, 2)
        mesh = Mesh2D(300.0, 150.0, 8, 4)
        vals = np.arange(mesh.n_nodes, dtype=float)
        got = interpolate_p1(vals, mesh, 37.5, 75.0)
        assert got.shape == (1, 1) and got[0, 0] == 19.0

    @pytest.mark.parametrize("arg, bad", [
        ("values", "values has 288 entries but the mesh has 289 nodes"),
        ("ref_values", "ref_values has 288 entries but the mesh has 1089 "
                       "nodes"),
    ])
    def test_relative_l2_values_count_rejected(self, arg, bad):
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        ref_mesh = Mesh2D(600.0, 600.0, 32, 32)
        args = dict(values=np.ones(mesh.n_nodes),
                    ref_values=np.ones(ref_mesh.n_nodes))
        args[arg] = np.ones(288)
        with pytest.raises(ValueError, match=bad):
            relative_l2(args["values"], mesh, args["ref_values"], ref_mesh,
                        300.0, 300.0)

    def test_relative_l2_identical_is_zero(self):
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        ref_mesh = Mesh2D(600.0, 600.0, 64, 64)
        ref = (1.0 + ref_mesh.x1g + ref_mesh.x2g).ravel()
        vals = (1.0 + mesh.x1g + mesh.x2g).ravel()
        got = relative_l2(vals, mesh, ref, ref_mesh, 300.0, 300.0)
        assert got < 1e-13

    def test_relative_l2_scaled_field(self):
        # u = 1.25 * ref on the window: relative error is exactly 0.25
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        ref_mesh = Mesh2D(600.0, 600.0, 64, 64)
        ref = (1.0 + ref_mesh.x1g).ravel()
        vals = 1.25 * (1.0 + mesh.x1g).ravel()
        got = relative_l2(vals, mesh, ref, ref_mesh, 300.0, 300.0)
        assert got == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("x1, x2, bad", [
        ([-30.0], [10.0], "x1 points must lie in \\[0, 300\\], got -30"),
        ([10.0, 400.0], [10.0], "x1 points must lie in \\[0, 300\\], got 400"),
        ([10.0], [np.nan], "x2 points must lie in \\[0, 150\\], got nan"),
    ], ids=["below", "above", "nan"])
    def test_point_outside_domain_rejected(self, x1, x2, bad):
        mesh = Mesh2D(300.0, 150.0, 8, 4)
        with pytest.raises(ValueError, match=bad):
            interpolate_p1(np.zeros(mesh.n_nodes), mesh, x1, x2)

    @pytest.mark.parametrize("L1, L2, bad", [
        (150.5, 150.0, "window L1 = 150.5 is not a whole number"),
        (150.58, 150.0, "window L1 = 150.58 is not a whole number"),
        (150.0, 140.0, "window L2 = 140 is not a whole number"),
        (0.0, 150.0, "window L1 = 0 is not a whole number"),
    ], ids=["half_cell", "off_line", "L2", "empty"])
    def test_relative_l2_window_off_the_reference_grid_rejected(self, L1, L2,
                                                                bad):
        # h = 600/64 = 9.375: 150 is 16 cells, 150.5 is 16.05
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        ref_mesh = Mesh2D(600.0, 600.0, 64, 64)
        with pytest.raises(ValueError, match=bad):
            relative_l2(np.ones(mesh.n_nodes), mesh,
                        np.ones(ref_mesh.n_nodes), ref_mesh, L1, L2)

    def test_relative_l2_window_on_a_grid_line_to_rounding(self):
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        ref_mesh = Mesh2D(600.0, 600.0, 64, 64)
        ref = (1.0 + ref_mesh.x1g).ravel()
        vals = 1.25 * (1.0 + mesh.x1g).ravel()
        for L in (150.0, 150.0 * (1 + 1e-13), 150.0 * (1 - 1e-13)):
            got = relative_l2(vals, mesh, ref, ref_mesh, L, L)
            assert got == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("L1, L2, ref_L, bad", [
        (600.0, 300.0, 300.0, "window L1 must lie in \\[0, 300\\]"),
        (150.0, 300.0, 600.0, "window L2 must lie in \\[0, 150\\]"),
        (np.nan, 150.0, 600.0, "window L1 must lie in \\[0, 300\\], got nan"),
    ], ids=["beyond_reference", "beyond_values", "nan"])
    def test_relative_l2_window_outside_domain_rejected(self, L1, L2, ref_L,
                                                        bad):
        mesh = Mesh2D(300.0, 150.0, 16, 8)
        ref_mesh = Mesh2D(ref_L, ref_L, 32, 32)
        with pytest.raises(ValueError, match=bad):
            relative_l2(np.ones(mesh.n_nodes), mesh,
                        np.ones(ref_mesh.n_nodes), ref_mesh, L1, L2)
