import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import splu, spsolve

from lapbs import fem2d
from lapbs.contour import quadrature_nodes
from lapbs.experiments import EX3_CONTOUR
from lapbs.fem1d import robin_coefficient
from lapbs.fem2d import (Basket2D, EdgeSpec, Mesh2D, _edge_mass,
                         build_matrices, dirichlet_nodes, factor,
                         interpolate_p1, payoff_basket_maxput, pencil,
                         relative_l2, solve2d, solve_shifts)

BASKET = Basket2D(r=0.05, a11=0.09, a22=0.09, a12=-0.018,
                  strike=100.0, maturity=1.0, L1=300.0, L2=300.0)


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
        ("x1_far", "dirchlet0"), ("x2_zero", "neumann"),
        ("x1_zero", "transparent"), ("x2_zero", "transparent"),
    ])
    def test_edge_spec_rejects_unknown_conditions(self, edge, cond):
        with pytest.raises(ValueError, match=edge):
            EdgeSpec(**{edge: cond})


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


class TestBoundaryHandling:
    def test_dirichlet_nodes_default_edges(self):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        idx = dirichlet_nodes(mesh, EdgeSpec())
        # far edges only: column i=4 and row j=4, 9 distinct nodes
        assert len(idx) == 9
        assert set(idx) == {4, 9, 14, 19, 20, 21, 22, 23, 24}

    def test_no_dirichlet_when_transparent(self):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        edges = EdgeSpec(x1_far="transparent", x2_far="transparent")
        assert len(dirichlet_nodes(mesh, edges)) == 0

    def test_edge_mass_row_sum(self):
        idx = np.array([2, 5, 8])
        em = _edge_mass(idx, 1.5, 10)
        assert em.sum() == pytest.approx(2 * 1.5)  # total edge length

    def test_transparent_modifies_only_far_edge_rows(self):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        z = 2.0 + 1.0j
        a_d, _ = pencil(mesh, BASKET, EdgeSpec(x2_far="dirichlet0",
                                               x1_far="transparent")).at(z)
        a_t, _ = pencil(mesh, BASKET, EdgeSpec(x2_far="dirichlet0",
                                               x1_far="dirichlet0")).at(z)
        diff = (a_d - a_t).tocoo()
        diff.eliminate_zeros()
        # switching the edge to Dirichlet drops its rows and its columns
        far = np.arange(5) * 5 + 4
        assert np.all(np.isin(diff.row, far) | np.isin(diff.col, far))

    def test_dirichlet_rows_are_identity(self):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        a, rhs = pencil(mesh, BASKET, EdgeSpec()).at(1.0)
        idx = dirichlet_nodes(mesh, EdgeSpec())
        dense = a.toarray()
        for i in idx:
            row = dense[i].copy()
            assert row[i] == 1.0
            row[i] = 0.0
            assert np.all(row == 0.0)
            assert rhs[i] == 0.0


class TestPencil:
    @pytest.mark.parametrize("edges", [
        EdgeSpec(),
        EdgeSpec(x1_far="transparent", x2_far="transparent"),
        EdgeSpec(x1_far="transparent"),
    ], ids=["dirichlet", "transparent", "mixed"])
    def test_at_is_shifted_pencil_with_identity_dirichlet_rows(self, edges):
        mesh = Mesh2D(300.0, 300.0, 4, 4)
        z = 2.0 + 1.0j
        spatial, mass, load = build_matrices(mesh, BASKET, payoff)
        want = (spatial + z * mass).toarray()
        far1 = np.arange(5) * 5 + 4
        far2 = 20 + np.arange(5)
        for cond, a, idx, h in ((edges.x1_far, BASKET.a11, far1, mesh.h2),
                                (edges.x2_far, BASKET.a22, far2, mesh.h1)):
            if cond == "transparent":
                c = robin_coefficient(z, BASKET.r, np.sqrt(a), 300.0)
                want -= 0.5 * a * 300.0**2 * c * _edge_mass(
                    idx, h, mesh.n_nodes).toarray()

        p = pencil(mesh, BASKET, edges)
        a, rhs = p.at(z)
        got = a.toarray()
        fixed = dirichlet_nodes(mesh, edges)
        free = np.setdiff1d(np.arange(mesh.n_nodes), fixed)
        np.testing.assert_allclose(got[np.ix_(free, free)],
                                   want[np.ix_(free, free)], rtol=1e-14)
        assert np.all(got[np.ix_(free, fixed)] == 0.0)
        np.testing.assert_array_equal(rhs[free], load[free])
        np.testing.assert_array_equal(got[fixed], np.eye(25)[fixed])
        assert np.all(rhs[fixed] == 0.0)
        # eliminated up front: M and every B_k carry no Dirichlet row or
        # column, and S carries only the identity there
        for mat in (p.M, *(b for _, b in p.robin)):
            assert mat.tocsr()[fixed].nnz == 0
            assert mat.tocsc()[:, fixed].nnz == 0
        np.testing.assert_array_equal(p.S.toarray()[:, fixed],
                                      np.eye(25)[:, fixed])


FACTOR_EDGES = pytest.mark.parametrize("edges", [
    EdgeSpec(), EdgeSpec(x1_far="transparent"),
], ids=["dirichlet", "mixed"])


class TestFactor:
    """Symmetric elimination keeps every diagonal pivot, so the symmetric
    minimum-degree ordering survives partial pivoting."""

    @pytest.mark.parametrize("z", [2.0, 2.0 + 1.0j, -8.35 + 12.39j])
    @FACTOR_EDGES
    def test_diagonal_pivots_and_less_fill(self, edges, z):
        mesh = Mesh2D(300.0, 300.0, 32, 32)
        a, _ = pencil(mesh, BASKET, edges).at(z)
        lu = factor(a)
        default = splu(a)
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        nnz = lu.L.nnz + lu.U.nnz
        assert nnz <= 0.85 * (default.L.nnz + default.U.nnz)

    @FACTOR_EDGES
    def test_solve_matches_spsolve(self, edges):
        mesh = Mesh2D(300.0, 300.0, 32, 32)
        a, rhs = pencil(mesh, BASKET, edges).at(-8.35 + 12.39j)
        want = spsolve(a, rhs)
        got = solve2d((a, rhs))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestSolve2D:
    def test_conjugate_symmetry(self):
        mesh = Mesh2D(300.0, 300.0, 12, 12)
        z = 3.9 + 33.0j
        p = pencil(mesh, BASKET, EdgeSpec())
        u = solve2d(p.at(z))
        v = solve2d(p.at(np.conj(z)))
        np.testing.assert_allclose(v, np.conj(u), rtol=1e-12, atol=1e-14)

    def test_zero_data_gives_zero(self):
        mesh = Mesh2D(300.0, 300.0, 8, 8)
        sys = pencil(mesh, BASKET, EdgeSpec(),
                     u0=lambda x1, x2: 0.0 * x1).at(2.0)
        np.testing.assert_allclose(solve2d(sys), 0.0, atol=1e-14)

    def test_nan_rhs_raises(self):
        mesh = Mesh2D(300.0, 300.0, 8, 8)
        a, rhs = pencil(mesh, BASKET, EdgeSpec()).at(2.0)
        rhs[40] = np.nan
        with pytest.raises(RuntimeError, match="residual is nan"):
            solve2d((a, rhs))

    def test_real_z_real_payoff_gives_real_positive_field(self):
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        u = solve2d(pencil(mesh, BASKET, EdgeSpec()).at(2.0))
        assert np.max(np.abs(u.imag)) < 1e-14
        assert u.real.min() > -1e-10

    def test_swap_symmetry(self):
        # a11 = a22 and symmetric payoff: u(x1, x2) = u(x2, x1)
        mesh = Mesh2D(300.0, 300.0, 16, 16)
        u = solve2d(pencil(mesh, BASKET, EdgeSpec()).at(2.0)).real
        grid = u.reshape(17, 17)
        np.testing.assert_allclose(grid, grid.T, rtol=1e-10, atol=1e-12)


class TestSolveShifts:
    """One LU per group of shifts, Dirichlet or Robin pencil, the same
    guard as ``solve2d``, and ``solve2d`` itself wherever the Krylov solve
    falls short."""

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

    def test_rows_match_direct_and_pass_the_guard(self, dirichlet, robin):
        assert robin.robin and not dirichlet.robin
        for p in (dirichlet, robin):
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
        # to it, with one warning giving its own basis's step count
        monkeypatch.setattr(fem2d, "_MAX_STEPS", 1)
        for p in (dirichlet, robin):
            for zs in self.GROUPS:
                caplog.clear()
                with caplog.at_level(logging.WARNING, "lapbs.fem2d"):
                    rows = solve_shifts(p, zs)
                for z, x in zip(zs, rows):
                    assert np.array_equal(x, solve2d(p.at(z)))
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
        p = pencil(Mesh2D(300.0, 300.0, 8, 8), BASKET, EdgeSpec(),
                   u0=lambda x1, x2: 0.0 * x1)
        for x in solve_shifts(p, self.GROUPS[0]):
            np.testing.assert_allclose(x, 0.0, atol=1e-14)


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
