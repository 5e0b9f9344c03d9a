import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh, solve_banded

from lapbs import fem1d
from lapbs.analytic import l2_error, reduction_rate
from lapbs.contour import quadrature_nodes
from lapbs.experiments import default_config
from lapbs.fem1d import (RIGHT_BCS, Market1D, Mesh1D, _forms, _load_vector,
                         payoff_put, pencil, robin_coefficient, solve)

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

    @pytest.mark.parametrize("L", [-5.0, 0.0, float("nan"), float("inf"),
                                   True, "50", None])
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
    # row 0 is (z + r)*u = K, solved by K/(z + r), the transform of the
    # boundary data K*exp(-r*t)
    def test_value(self):
        p = pencil(Mesh1D(50.0, 10), MARKET)
        for z in (2.0, 2.0 + 3.0j):
            u = solve(p.at(z))
            assert u[0] == pytest.approx(50.0 / (z + 0.05), rel=1e-15)

    def test_singularity(self):
        # a shift at z = -r zeroes row 0
        with pytest.raises(np.linalg.LinAlgError, match="zero pivot"):
            solve(pencil(Mesh1D(50.0, 10), MARKET).at(-0.05))


def load_both_halves(mesh, u0, kink=None):
    """``_load_vector`` with 5 Gauss points on both halves of every
    element, zero-width ones included."""
    a, b = mesh.x[:-1, None], mesh.x[1:, None]
    c = b if kink is None else np.clip(kink, a, b)
    rhs = np.zeros(len(mesh))
    for lo, hi in ((a, c), (c, b)):
        pts = lo + (hi - lo) * fem1d._GAUSS_X
        f = u0(pts) * ((hi - lo) * fem1d._GAUSS_W)
        rhs[:-1] += np.sum(f * (b - pts), axis=1) / mesh.h
        rhs[1:] += np.sum(f * (pts - a), axis=1) / mesh.h
    return rhs


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

    @pytest.mark.parametrize("L, m, kink, u0", [
        (200.0, 2560, 50.0, lambda x: payoff_put(x, 50.0)),   # ex1
        (50.0, 2560, 50.0, lambda x: payoff_put(x, 50.0)),    # ex2
        (50.0, 10, 23.0, lambda x: payoff_put(x, 23.0)),
        (50.0, 10, 25.0, lambda x: np.maximum(x - 25.0, 0.0)),
        (50.0, 10, 24.0, lambda x: np.maximum(x - 24.0, 0.0)),
        (50.0, 10, None, lambda x: x * x),
    ], ids=["ex1", "ex2", "mid_element", "call_on_node", "call_mid_element",
            "no_kink"])
    def test_load_vector_equals_both_halves_everywhere(self, L, m, kink, u0):
        # the zero-width halves it skips would each add exact zeros
        mesh = Mesh1D(L, m)
        assert np.array_equal(_load_vector(mesh, u0, kink),
                              load_both_halves(mesh, u0, kink))

    def test_interior_payoff_load_is_lumped_value(self):
        # away from the kink the P1 load of a linear payoff is h*(K - x_i)
        mesh = Mesh1D(50.0, 10)
        rhs = _load_vector(mesh, lambda x: payoff_put(x, 50.0), kink=50.0)
        assert rhs[2] == pytest.approx(5.0 * 40.0)

    def test_dirichlet_rows(self):
        mesh = Mesh1D(50.0, 10)
        z = 1.5 + 0.5j
        bands, rhs = pencil(mesh, MARKET).at(z)
        assert bands[1, 0] == z + 0.05 and bands[0, 1] == 0.0
        assert rhs[0] == 50.0
        assert bands[1, -1] == 1.0 and bands[2, -2] == 0.0
        assert rhs[-1] == 0.0


def dense(bands):
    """Full matrix of (3, n) bands: upper, main and lower diagonal."""
    return (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
            + np.diag(bands[2, :-1], -1))


def pinned(p, z, market=MARKET):
    """``p.at(z)`` with x = 0 pinned as the pencil once held it: an
    identity row 0 and the boundary transform K/(z + r) on the right."""
    bands, rhs = p.at(z)
    bands[1, 0] = 1.0
    rhs[0] = market.strike / (z + market.r)
    return bands, rhs


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

        # row 0 is (z + r)*u = K; a Dirichlet right end is an identity row
        assert np.array_equal(got[0], (z + 0.05) * np.eye(11)[0])
        assert rhs[0] == 50.0
        if not robin:
            assert np.array_equal(got[10], np.eye(11)[10])
            assert rhs[-1] == 0.0

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    @pytest.mark.parametrize("right_bc", RIGHT_BCS)
    def test_solved_x0_is_the_boundary_transform(self, example, right_bc):
        cfg = default_config(example)
        market = cfg.market()
        p = pencil(Mesh1D(cfg.L, 640), market, right_bc)
        for contour in cfg.contours:   # every Table-3 node
            for z in quadrature_nodes(contour)[0].tolist():
                want = market.strike / (z + market.r)
                assert abs(solve(p.at(z))[0] - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    @pytest.mark.parametrize("right_bc", RIGHT_BCS)
    def test_rows_agree_with_the_pinned_formulation(self, example, right_bc):
        cfg = default_config(example)
        market = cfg.market()
        for m in (40, 640, 2560):
            p = pencil(Mesh1D(cfg.L, m), market, right_bc)
            for z in quadrature_nodes(cfg.contour(15))[0].tolist():
                u = solve(p.at(z))
                want = solve(pinned(p, z, market))
                assert np.max(np.abs(u - want)) <= 1e-13 * np.max(np.abs(want))

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

    @pytest.mark.parametrize("right_bc", RIGHT_BCS)
    def test_at_equals_the_whole_band_sum(self, right_bc):
        # a transparent pencil adds only its Robin band's one entry
        market = default_config("ex2").market()
        p = pencil(Mesh1D(market.L, 2560), market, right_bc)
        for z in quadrature_nodes(default_config("ex2").contour(15))[0]:
            want = complex(z) * p.M
            want += p.S
            for c, b in p.robin:
                want += c(z) * b
            assert np.array_equal(p.at(z)[0], want)

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
            # principal branch: the subtracted root has positive real part.
            # The radicand is (r + s2/2)^2 + 2*s2*z, real and <= 0 (Re = 0)
            # only at real z <= -(r + s2/2)^2/(2*s2) < 0; a contour's one
            # real node is its crossing, > kappa >= 0
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
            load = _load_vector(mesh, f)
            load[[0, -1]] = 0.0   # (z + r)*u(0) = f(0) = 0, and u(L) = 0
            u = solve(replace(pencil(mesh, MARKET), load=load).at(z))
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
        u = solve(replace(p, load=np.zeros_like(p.load)).at(2.0))
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
        bands, rhs = p.S + 2.0 * p.M, p.load
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


def p1_l2_sq(mesh, v):
    """Exact ||v||^2 on (0, L) for a complex P1 nodal field (Simpson)."""
    v = np.asarray(v)
    a, b = v[:-1], v[1:]
    mid2 = np.abs(0.5 * (a + b)) ** 2
    return float(mesh.h / 6.0 * np.sum(np.abs(a) ** 2 + 4.0 * mid2
                                       + np.abs(b) ** 2))


def p1_weighted_semi_sq(mesh, v):
    """Exact weighted seminorm int |x v'|^2 for a P1 field."""
    v = np.asarray(v)
    x = mesh.x
    dv = np.abs((v[1:] - v[:-1]) / mesh.h) ** 2
    ix2 = (x[1:] ** 3 - x[:-1] ** 3) / 3.0
    return float(np.sum(dv * ix2))


def p1_b_form(mesh, market, v):
    """Exact B(v, v) for a complex P1 field (constant coefficients)."""
    v = np.asarray(v, dtype=complex)
    x = mesh.x
    h = mesh.h
    r, s2 = market.r, market.sigma**2
    a, b = x[:-1], x[1:]
    va, vb = v[:-1], v[1:]
    total = 0.5 * s2 * p1_weighted_semi_sq(mesh, v)
    # int x v' conj(v) per element; v' constant, conj(v) linear
    dv = (vb - va) / h
    ixv = h * ((2 * a + b) / 6.0 * np.conj(va) + (a + 2 * b) / 6.0 * np.conj(vb))
    total += (s2 - r) * complex(np.sum(dv * ixv))
    total += r * p1_l2_sq(mesh, v)
    return complex(total)


def band_form(bands, v):
    """v^H A v for the matrix A of (3, n) bands."""
    return np.vdot(v, fem1d._residual(bands, v))


class TestFormProperties:
    # the forms of fem1d._forms' bands: ||v||^2 from the mass band, the
    # weighted seminorm |v|^2_w = int |x v'|^2 from the stiffness band over
    # (1/2)*sigma^2, and B(v, v) from the spatial band
    def setup_method(self):
        self.mesh = Mesh1D(50.0, 60)
        self.rng = np.random.default_rng(1234)
        stiffness, self.spatial, self.mass = _forms(self.mesh, MARKET)
        self.weighted = stiffness / (0.5 * MARKET.sigma**2)

    def random_field(self):
        v = (self.rng.standard_normal(len(self.mesh))
             + 1j * self.rng.standard_normal(len(self.mesh)))
        v[-1] = 0.0
        return v

    def fields(self):
        """The step (1, ..., 1, 0), then 200 random fields, all with
        v(L) = 0."""
        yield np.append(np.ones(len(self.mesh) - 1), 0.0).astype(complex)
        for _ in range(200):
            yield self.random_field()

    def test_poincare_inequality(self):
        # ||v|| <= 4 ||x v'|| for fields vanishing at x = L (weighted Hardy:
        # ||v||^2 = -2 Re int x v' conj(v) when v(L) = 0); a field vanishing
        # only at x = 0 can fail it: (0, 1, ..., 1) has ||v||^2 = 49.4
        # against 4|v|^2_w = 1.11
        for v in self.fields():
            l2 = math.sqrt(band_form(self.mass, v).real)
            semi = math.sqrt(band_form(self.weighted, v).real)
            assert l2 <= 4.0 * semi + 1e-12

    def test_garding_coercivity(self):
        # Re B(v,v) >= (s2/4)|v|^2_w - mu ||v||^2 with mu from the market
        s2 = MARKET.sigma**2
        mu = (MARKET.r - s2) ** 2 / s2
        for v in self.fields():
            b = band_form(self.spatial, v)
            lower = (0.25 * s2 * band_form(self.weighted, v).real
                     - mu * band_form(self.mass, v).real)
            assert b.real >= lower - 1e-10 * abs(b)

    def test_norm_helpers_on_linear_field(self):
        # v = x: ||v||^2 = L^3/3, |v|^2_w = int x^2 = L^3/3, on the bands
        # and on the references
        v = self.mesh.x.astype(complex)
        want = 50.0**3 / 3.0
        assert band_form(self.mass, v) == pytest.approx(want)
        assert band_form(self.weighted, v) == pytest.approx(want)
        assert p1_l2_sq(self.mesh, v) == pytest.approx(want)
        assert p1_weighted_semi_sq(self.mesh, v) == pytest.approx(want)

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_bands_equal_the_reference_forms(self, example):
        market = default_config(example).market()
        mesh = Mesh1D(market.L, 64)
        stiffness, spatial, mass = _forms(mesh, market)
        weighted = stiffness / (0.5 * market.sigma**2)
        for _ in range(200):   # no boundary pin: the bands are unedited
            v = (self.rng.standard_normal(len(mesh))
                 + 1j * self.rng.standard_normal(len(mesh)))
            for bands, want in ((mass, p1_l2_sq(mesh, v)),
                                (weighted, p1_weighted_semi_sq(mesh, v)),
                                (spatial, p1_b_form(mesh, market, v))):
                assert abs(band_form(bands, v) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("m", [64, 640])
    def test_bounds_hold_at_their_sharpest_field(self, m):
        # the smallest generalised eigenvalue over fields with v(L) = 0:
        # 4W >= M is the weighted Poincare bound, and
        # sym(S) - (s2/4)W + mu*M >= 0 the Garding bound
        stiffness, spatial, mass = (dense(b)[:-1, :-1]
                                    for b in _forms(Mesh1D(50.0, m), MARKET))
        s2 = MARKET.sigma**2
        w = stiffness / (0.5 * s2)
        mu = (MARKET.r - s2) ** 2 / s2
        smallest = dict(eigvals_only=True, subset_by_index=[0, 0])
        assert eigh(4.0 * w, mass, **smallest)[0] >= 1.0   # 1.514, 1.312
        garding = 0.5 * (spatial + spatial.T) - 0.25 * s2 * w + mu * mass
        assert eigh(garding, mass, **smallest)[0] >= 0.0   # 0.0563, 0.0552
