import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

from lapbs import fem1d
from lapbs.analytic import l2_error, reduction_rate
from lapbs.contour import quadrature_nodes
from lapbs.experiments import default_config
from lapbs.fem1d import (RIGHT_BCS, Market1D, Mesh1D, _load_vector,
                         left_dirichlet_transform, p1_b_form, p1_l2_sq,
                         p1_weighted_semi_sq, payoff_put, pencil,
                         robin_coefficient, solve)

MARKET = Market1D(r=0.05, sigma=0.3, strike=50.0, maturity=1.0, L=50.0)

# [DERIVED] interior matrix row from sympy element integrals at
# x_i = 10, h = 5, sigma = 0.3, r = 0.05.  Entry = B_part + z*M_part.
ROW_DIAG_B, ROW_DIAG_M = 2.05, 10.0 / 3.0
ROW_LO_B, ROW_LO_M = -0.65, 5.0 / 6.0
ROW_HI_B, ROW_HI_M = -1.15, 5.0 / 6.0


class TestMeshAndPayoff:
    def test_mesh_nodes(self):
        mesh = Mesh1D(50.0, 10)
        assert len(mesh) == 11
        assert mesh.h == 5.0
        assert mesh.x[0] == 0.0 and mesh.x[-1] == 50.0
        assert Mesh1D(50.0, np.int64(10)).m == 10  # numpy counts pass

    def test_mesh_too_coarse(self):
        for m in (1, 2.5):
            with pytest.raises(ValueError):
                Mesh1D(50.0, m)

    @pytest.mark.parametrize("L", [-5.0, 0.0, float("nan"), float("inf")])
    def test_mesh_needs_positive_finite_length(self, L):
        with pytest.raises(ValueError, match="positive and finite"):
            Mesh1D(L, 10)

    def test_payoff(self):
        got = payoff_put(np.array([0.0, 30.0, 50.0, 80.0]), 50.0)
        assert list(got) == [50.0, 20.0, 0.0, 0.0]

    def test_market_validation(self):
        with pytest.raises(ValueError):
            Market1D(0.05, -0.3, 50.0, 1.0, 50.0)
        with pytest.raises(ValueError):
            Market1D(0.05, 0.3, 50.0, 1.0, 40.0)  # L cuts the payoff
        nan = float("nan")
        for bad in ((nan, 0.3, 50.0, 1.0, 50.0), (0.05, nan, 50.0, 1.0, 50.0),
                    (0.05, 0.3, nan, 1.0, 50.0), (0.05, 0.3, -50.0, 1.0, 50.0),
                    (0.05, 0.3, 50.0, nan, 50.0), (0.05, 0.3, 50.0, 1.0, nan),
                    (0.05, 0.3, 50.0, 1.0, float("inf"))):
            with pytest.raises(ValueError):
                Market1D(*bad)


class TestLeftTransform:
    def test_value(self):
        assert left_dirichlet_transform(2.0, 50.0, 0.05) == pytest.approx(
            50.0 / 2.05)

    def test_singularity(self):
        with pytest.raises(ZeroDivisionError):
            left_dirichlet_transform(-0.05, 50.0, 0.05)


class TestAssembleOracle:
    def test_interior_row_frozen_values(self):
        mesh = Mesh1D(50.0, 10)  # h = 5, node 2 sits at x = 10
        p = pencil(mesh, MARKET)
        for z in (0.7, 2.0 + 3.0j):
            bands, _ = p.at(z)
            assert bands[1, 2] == pytest.approx(ROW_DIAG_B + z * ROW_DIAG_M)
            assert bands[0, 3] == pytest.approx(ROW_HI_B + z * ROW_HI_M)
            assert bands[2, 1] == pytest.approx(ROW_LO_B + z * ROW_LO_M)

    # kink mid-element (strike 23 inside [20, 25]) and on the node x = 25
    @pytest.mark.parametrize("strike", [23.0, 25.0],
                             ids=["mid_element", "on_node"])
    def test_load_vector_against_quadrature(self, strike):
        mesh = Mesh1D(50.0, 10)
        rhs = _load_vector(mesh, lambda x: payoff_put(x, strike), kink=strike)
        for i in (3, 4, 5):
            xi = mesh.x[i]

            def phi(x):
                return max(0.0, 1.0 - abs(x - xi) / mesh.h)

            want, _ = quad(lambda x: max(strike - x, 0.0) * phi(x),
                           max(xi - mesh.h, 0.0), min(xi + mesh.h, 50.0),
                           points=[strike])
            assert rhs[i] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_interior_payoff_load_is_lumped_value(self):
        # away from the kink the P1 load of a linear payoff is h*(K - x_i)
        mesh = Mesh1D(50.0, 10)
        rhs = _load_vector(mesh, lambda x: payoff_put(x, 50.0), kink=50.0)
        assert rhs[2] == pytest.approx(5.0 * 40.0)

    def test_dirichlet_rows(self):
        mesh = Mesh1D(50.0, 10)
        z = 1.5 + 0.5j
        bands, rhs = pencil(mesh, MARKET).at(z)
        assert bands[1, 0] == 1.0 and bands[0, 1] == 0.0
        assert rhs[0] == pytest.approx(50.0 / (z + 0.05))
        assert bands[1, -1] == 1.0 and bands[2, -2] == 0.0
        assert rhs[-1] == 0.0


def dense(bands):
    """Full matrix of (3, n) bands: upper, main and lower diagonal."""
    return (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
            + np.diag(bands[2, :-1], -1))


class TestPencil:
    @pytest.mark.parametrize("right_bc", ["dirichlet0", "transparent"],
                             ids=["dirichlet", "robin"])
    def test_at_is_shifted_pencil_with_identity_dirichlet_rows(self, right_bc):
        mesh = Mesh1D(50.0, 10)
        p = pencil(mesh, MARKET, right_bc)
        robin = right_bc == "transparent"
        # interior rows of S and M are the frozen element integrals
        assert p.S[1, 2] == pytest.approx(ROW_DIAG_B)
        assert p.M[1, 2] == pytest.approx(ROW_DIAG_M)
        assert p.S[2, 1] == pytest.approx(ROW_LO_B)
        assert p.M[0, 3] == pytest.approx(ROW_HI_M)

        z = 2.0 + 3.0j
        bands, rhs = p.at(z)
        got = dense(bands)
        want = dense(p.S) + z * dense(p.M)
        if robin:
            c = robin_coefficient(z, MARKET.r, MARKET.sigma, mesh.L)
            want[-1, -1] -= 0.5 * MARKET.sigma**2 * mesh.L**2 * c
        np.testing.assert_allclose(got, want, rtol=1e-14)

        fixed = [0] if robin else [0, 10]
        assert list(p.fixed) == fixed
        for i in fixed:
            assert np.array_equal(got[i], np.eye(11)[i])
        assert rhs[0] == pytest.approx(50.0 / (z + 0.05))
        if not robin:
            assert rhs[-1] == 0.0

    @pytest.mark.parametrize("right_bc", RIGHT_BCS)
    def test_at_never_writes_into_the_pencil(self, right_bc):
        mesh = Mesh1D(50.0, 10)
        p = pencil(mesh, MARKET, right_bc)
        before = [p.S.copy(), p.M.copy(), p.load.copy(),
                  *(b.copy() for _, b in p.robin)]
        p.at(2.0 + 3.0j)
        bands, rhs = p.at(0.5 - 7.0j)
        for got, want in zip([p.S, p.M, p.load, *(b for _, b in p.robin)],
                             before, strict=True):
            assert np.array_equal(got, want)
        fresh_bands, fresh_rhs = pencil(mesh, MARKET, right_bc).at(0.5 - 7.0j)
        assert np.array_equal(bands, fresh_bands)
        assert np.array_equal(rhs, fresh_rhs)

    def test_unknown_right_bc_rejected(self):
        with pytest.raises(ValueError, match="neumann0") as err:
            pencil(Mesh1D(50.0, 10), MARKET, "neumann0")
        assert str(RIGHT_BCS) in str(err.value)


class TestRobinCoefficient:
    def test_quadratic_identity_and_branch(self):
        r, sigma, L = 0.05, 0.3, 50.0
        b = r - 0.5 * sigma**2
        for z in (0.3, 1.06, 2.0 + 5.0j, 13.0 - 40.0j):
            c = robin_coefficient(z, r, sigma, L)
            lhs = (L * sigma**2 * c + b) ** 2
            assert lhs == pytest.approx(b * b + 2 * sigma**2 * (r + z))
            # principal branch: the subtracted root has positive real part
            assert (-(L * sigma**2 * c) - b).real > 0

    def test_exterior_power_solution(self):
        # u = x^rho with rho = c*L must solve the exterior equation
        r, sigma, L = 0.05, 0.3, 50.0
        z = 2.0 + 3.0j
        rho = robin_coefficient(z, r, sigma, L) * L
        residual = z - 0.5 * sigma**2 * rho * (rho - 1) - r * rho + r
        assert abs(residual) < 1e-12 * abs(z)

    def test_conjugate_symmetry(self):
        z = 4.0 + 7.0j
        c = robin_coefficient(z, 0.05, 0.3, 50.0)
        cc = robin_coefficient(np.conj(z), 0.05, 0.3, 50.0)
        assert cc == pytest.approx(np.conj(c))

    def test_decay_for_positive_z(self):
        # transparent solution decays outward: c real and negative
        c = robin_coefficient(1.06, 0.05, 0.3, 50.0)
        assert c.imag == 0.0 and c.real < 0


class TestSolve:
    def test_manufactured_solution_rate_two(self):
        # exact u = x*(L - x), f = z*u - (1/2)s2*x^2*u'' - r*x*u' + r*u
        r, s2, L, z = MARKET.r, MARKET.sigma**2, MARKET.L, 1.3

        def exact(x):
            return x * (L - x)

        def f(x):
            return (z * exact(x) + s2 * x * x
                    - r * x * (L - 2.0 * x) + r * exact(x))

        errors = []
        for m in (16, 32, 64):
            mesh = Mesh1D(L, m)
            p = replace(pencil(mesh, MARKET), load=_load_vector(mesh, f))
            u = solve(replace(p, values=lambda _: (0.0, 0.0)).at(z))
            errors.append(l2_error(u.real, exact, mesh))
        assert reduction_rate(errors[0], errors[1]) == pytest.approx(2.0, abs=0.1)
        assert reduction_rate(errors[1], errors[2]) == pytest.approx(2.0, abs=0.1)

    def test_conjugate_symmetry_of_solution(self):
        mesh = Mesh1D(50.0, 40)
        z = 1.39 + 62.0j
        p = pencil(mesh, MARKET)
        u = solve(p.at(z))
        v = solve(p.at(np.conj(z)))
        np.testing.assert_allclose(v, np.conj(u), rtol=1e-12, atol=1e-14)

    def test_zero_data_gives_zero(self):
        mesh = Mesh1D(50.0, 20)
        p = pencil(mesh, MARKET)
        u = solve(replace(p, load=np.zeros_like(p.load),
                          values=lambda _: (0.0, 0.0)).at(2.0))
        np.testing.assert_allclose(u, 0.0, atol=1e-14)

    def test_robin_matches_dirichlet_on_large_domain(self):
        # with L far beyond the strike both right conditions agree near x=K
        z = 1.06
        big = Market1D(0.05, 0.3, 50.0, 1.0, 400.0)
        mesh = Mesh1D(400.0, 800)
        u_r = solve(pencil(mesh, big, "transparent").at(z))
        u_d = solve(pencil(mesh, big).at(z))
        i = 100  # x = 50
        assert abs(u_r[i] - u_d[i]) < 1e-8 * abs(u_d[i])

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    @pytest.mark.parametrize("right_bc", RIGHT_BCS)
    def test_rows_equal_solve_banded_at_every_contour_node(self, example,
                                                          right_bc):
        # the direct ?gtsv call is the routine solve_banded((1, 1), ...)
        # runs, so every row is the same to the bit
        cfg = default_config(example)
        p = pencil(Mesh1D(cfg.L, 640), cfg.market(), right_bc)
        for z in quadrature_nodes(cfg.contour(15))[0]:
            bands, rhs = p.at(z)
            assert np.array_equal(solve((bands, rhs)),
                                  solve_banded((1, 1), bands, rhs))

    def test_real_bands_give_a_real_solution(self):
        p = pencil(Mesh1D(50.0, 40), MARKET)
        bands = p.S + 2.0 * p.M
        rhs = p.load.copy()
        rhs[p.fixed] = p.values(2.0)
        u = solve((bands, rhs))
        assert u.dtype == np.float64
        assert np.array_equal(u, solve_banded((1, 1), bands, rhs))
        assert np.array_equal(u, solve(p.at(2.0)).real)

    @pytest.mark.parametrize("bands, row", [
        (np.zeros((3, 4), dtype=complex), 1),
        # rows 1 and 2 equal: the second pivot is exactly 0
        (np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]), 2),
    ], ids=["zero", "second-row"])
    def test_zero_pivot_raises_naming_the_row(self, bands, row):
        with pytest.raises(np.linalg.LinAlgError, match=f"at row {row}$"):
            solve((bands, np.ones(len(bands[1]), dtype=bands.dtype)))

    def test_residual_guard_trips_on_a_wrong_solution(self, monkeypatch):
        # a singular system now stops at its zero pivot, so feed the guard
        # a finite solution that does not solve the system
        monkeypatch.setattr(fem1d, "_gtsv", lambda bands, rhs: 1.0 + 0 * rhs)
        with pytest.raises(RuntimeError, match="residual too large"):
            solve(pencil(Mesh1D(50.0, 10), MARKET).at(2.0))

    def test_solve_residual_guard(self):
        bands = np.zeros((3, 4), dtype=complex)
        # singular system: zero matrix with nonzero rhs
        with pytest.raises(Exception):
            solve((bands, np.ones(4, dtype=complex)))

    def test_non_finite_solution_raises(self):
        # the LU overflows to [nan, inf, inf]; a NaN residual compares
        # False, so the guard must test the solution itself
        bands = np.array([[0.0, 1e-200, 1e-200],
                          [1e-200, 1e-300, 1e-200],
                          [1e-200, 1e-200, 0.0]])
        with pytest.raises(RuntimeError, match="non-finite solution"):
            solve((bands, 1e200 * np.ones(3)))


class TestFormProperties:
    def setup_method(self):
        self.mesh = Mesh1D(50.0, 60)
        self.rng = np.random.default_rng(1234)

    def random_field(self):
        v = (self.rng.standard_normal(len(self.mesh))
             + 1j * self.rng.standard_normal(len(self.mesh)))
        v[0] = 0.0
        return v

    def test_poincare_inequality(self):
        # ||v|| <= 4 ||x v'|| for fields vanishing at x = 0
        for _ in range(200):
            v = self.random_field()
            l2 = math.sqrt(p1_l2_sq(self.mesh, v))
            semi = math.sqrt(p1_weighted_semi_sq(self.mesh, v))
            assert l2 <= 4.0 * semi + 1e-12

    def test_garding_coercivity(self):
        # Re B(v,v) >= (s2/4)|v|^2_w - mu ||v||^2 with mu from the market
        s2 = MARKET.sigma**2
        mu = (MARKET.r - s2) ** 2 / s2
        for _ in range(200):
            v = self.random_field()
            b = p1_b_form(self.mesh, MARKET, v)
            lower = (0.25 * s2 * p1_weighted_semi_sq(self.mesh, v)
                     - mu * p1_l2_sq(self.mesh, v))
            assert b.real >= lower - 1e-10 * abs(b)

    def test_norm_helpers_on_linear_field(self):
        # v = x: ||v||^2 = L^3/3, |v|^2_w = int x^2 = L^3/3
        v = self.mesh.x.astype(complex)
        want = 50.0**3 / 3.0
        assert p1_l2_sq(self.mesh, v) == pytest.approx(want)
        assert p1_weighted_semi_sq(self.mesh, v) == pytest.approx(want)
