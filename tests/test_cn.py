import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrs
from scipy.sparse.linalg import splu

from lapbs import cn, fem1d, fem2d
from lapbs.analytic import bs_put, l2_error, reduction_rate
from lapbs.experiments import EX3_CONTOUR
from lapbs.inversion import invert_at
from lapbs.parallel import ProblemSpec, solve_ensemble

MARKET = fem1d.Market1D(0.05, 0.3, 50.0, 1.0, 200.0)
BASKET = fem2d.Basket2D(0.05, 0.09, 0.09, -0.018, 100.0, 1.0, 300.0, 300.0)


def exact(x):
    return bs_put(x, 1.0, 50.0, 0.05, 0.3)


def pivoted_march(mesh, market, steps):
    """The 1D march on every node, with row 0 an identity row, one dgttrf
    and a pivoted dgttrs step each on a fresh fem1d._residual array."""
    p = fem1d.pencil(mesh, market)
    dt = market.maturity / steps
    lhs = p.S + (2.0 / dt) * p.M
    lhs[1, 0] = 1.0   # the boundary value in place of the x = 0 equation
    *lu, _ = dgttrf(lhs[2, :-1], lhs[1], lhs[0, 1:])
    proj = p.M.copy()
    proj[1, -1] = 1.0
    u = fem1d._gtsv(proj, p.load)
    for n in range(1, steps + 1):
        b = fem1d._residual((2.0 / dt) * p.M - p.S, u)
        b[[0, -1]] = market.strike * np.exp(-market.r * n * dt), 0.0
        u = dgttrs(*lu, b)[0]
    return u


class TestMarch1D:
    def test_config_validation(self):
        for steps in (0, 2.5, float("nan"), True):
            with pytest.raises(ValueError):
                cn.MarchConfig(steps)

    def test_second_order_convergence(self):
        errs = []
        for m in (80, 160, 320):
            mesh = fem1d.Mesh1D(200.0, m)
            u = cn.march1d(mesh, MARKET, cn.MarchConfig(m))
            errs.append(l2_error(u, exact, mesh))
        assert reduction_rate(errs[0], errs[1]) == pytest.approx(2.0, abs=0.01)
        assert reduction_rate(errs[1], errs[2]) == pytest.approx(2.0, abs=0.01)

    def test_fine_mesh_accuracy(self):
        mesh = fem1d.Mesh1D(200.0, 320)
        u = cn.march1d(mesh, MARKET, cn.MarchConfig(320))
        assert l2_error(u, exact, mesh) < 3.1e-3

    def test_stability_envelope(self):
        # the put price never exceeds the discounted strike nor goes negative
        mesh = fem1d.Mesh1D(200.0, 160)
        u = cn.march1d(mesh, MARKET, cn.MarchConfig(160))
        assert np.max(u) <= MARKET.strike * 1.0 + 1e-9
        assert np.max(u) == pytest.approx(50.0 * np.exp(-0.05), rel=1e-10)
        assert np.min(u) >= -1e-9

    def test_one_step_is_pencil_solve_at_two_over_dt(self):
        # one CN step from u0 solves (S + zM) u1 = (zM - S) u0, z = 2/dt
        mesh = fem1d.Mesh1D(200.0, 40)
        p = fem1d.pencil(mesh, MARKET)
        proj = p.M.copy()
        proj[1, [0, -1]] = 1.0
        b0 = p.load.copy()
        b0[[0, -1]] = MARKET.strike, 0.0
        u0 = solve_banded((1, 1), proj, b0)

        z = 2.0 / MARKET.maturity
        a, _ = p.at(z)
        a[1, 0] = 1.0   # the boundary value in place of the x = 0 equation
        b1 = fem1d._residual(z * p.M - p.S, u0).astype(complex)
        b1[[0, -1]] = MARKET.strike * np.exp(-MARKET.r * MARKET.maturity), 0.0
        want = fem1d.solve((a, b1)).real
        got = cn.march1d(mesh, MARKET, cn.MarchConfig(1))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_matches_per_step_banded_solve(self):
        # reference: the march with the step matrix re-solved every step
        mesh = fem1d.Mesh1D(200.0, 160)
        p = fem1d.pencil(mesh, MARKET)
        steps = 160
        dt = MARKET.maturity / steps
        proj = p.M.copy()
        proj[1, [0, -1]] = 1.0
        b = p.load.copy()
        b[[0, -1]] = MARKET.strike, 0.0
        u = solve_banded((1, 1), proj, b)
        lhs = p.S + (2.0 / dt) * p.M
        lhs[1, 0] = 1.0   # the boundary value in place of the x = 0 equation
        for n in range(1, steps + 1):
            b = fem1d._residual((2.0 / dt) * p.M - p.S, u)
            b[[0, -1]] = MARKET.strike * np.exp(-MARKET.r * n * dt), 0.0
            u = solve_banded((1, 1), lhs, b)
        got = cn.march1d(mesh, MARKET, cn.MarchConfig(steps))
        np.testing.assert_allclose(got, u, rtol=1e-13, atol=1e-13)

    def test_step_buffers_match_the_residual_loop_exactly(self):
        # the march writes each right side into two buffers made once; the
        # reference makes fem1d._residual's and dpttrs' fresh arrays every
        # step, on the interior bands scaled by S
        mesh = fem1d.Mesh1D(200.0, 640)
        p = fem1d.pencil(mesh, MARKET)
        dt = MARKET.maturity / 640
        lhs, rhs = p.S + (2.0 / dt) * p.M, (2.0 / dt) * p.M - p.S
        ends = MARKET.strike * np.exp(-MARKET.r * (np.arange(641) * dt))
        a = lhs[:, 1:-1]
        dl, d, *_ = dgttrf(a[2, :-1], a[1], a[0, 1:])
        s = np.cumprod(np.r_[1.0, a[0, 1:] / a[2, :-1]])
        proj = p.M.copy()
        proj[1, -1] = 1.0
        y = s * fem1d._gtsv(proj, p.load)[1:-1]
        for n in range(640):
            b = fem1d._residual(rhs[:, 1:-1] / s, y)
            b[0] += rhs[2, 0] * ends[n] - lhs[2, 0] * ends[n + 1]
            y = dpttrs(d / s, dl, b)[0]
        got = cn.march1d(mesh, MARKET, cn.MarchConfig(640))
        assert np.array_equal(got, np.r_[ends[-1], y / s, 0.0])

    # m = 2, every Table 1 mesh, and the cn_march benchmark's m = 2560
    @pytest.mark.parametrize("m", [2, 10, 20, 40, 80, 160, 320, 640, 2560])
    def test_scaled_step_matches_the_pivoted_march(self, monkeypatch, caplog,
                                                   m):
        # the ex1 market never takes the pivoted step, so a silent
        # fallback to it would fail here
        def pivoted(*args, **kwargs):
            raise AssertionError("march1d took the pivoted dgttrs step")

        monkeypatch.setattr(cn, "dgttrs", pivoted)
        mesh = fem1d.Mesh1D(200.0, m)
        with caplog.at_level(logging.DEBUG, "lapbs.cn"):
            got = cn.march1d(mesh, MARKET, cn.MarchConfig(m))
        assert caplog.messages == ["march1d steps by dpttrs"]
        want = pivoted_march(mesh, MARKET, m)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("market, m, steps, why", [
        (replace(MARKET, sigma=1.5), 160, 1, "row swap"),
        (replace(MARKET, r=1.0, sigma=0.01), 640, 640, "scaling out of range"),
    ], ids=["row_swap", "scaling_overflow"])
    def test_falls_back_to_the_pivoted_step(self, monkeypatch, caplog, market,
                                            m, steps, why):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return dgttrs(*args, **kwargs)

        monkeypatch.setattr(cn, "dgttrs", counted)
        mesh = fem1d.Mesh1D(200.0, m)
        with caplog.at_level(logging.DEBUG, "lapbs.cn"):
            got = cn.march1d(mesh, market, cn.MarchConfig(steps))
        assert caplog.messages == [f"march1d steps by dgttrs ({why})"]
        assert len(calls) == steps
        assert np.isfinite(got).all()
        want = pivoted_march(mesh, market, steps)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_tiny_maturity(self):
        # at 1e-300 the march keeps the projected payoff; below about
        # 1e-304, (2/dt)*M overflows and the march names its inputs
        mesh = fem1d.Mesh1D(200.0, 640)
        p = fem1d.pencil(mesh, MARKET)
        proj = p.M.copy()
        proj[1, -1] = 1.0
        want = fem1d._gtsv(proj, p.load)
        got = cn.march1d(mesh, replace(MARKET, maturity=1e-300),
                         cn.MarchConfig(640))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        with pytest.raises(ValueError, match=r"maturity=1e-305, steps=640$"):
            cn.march1d(mesh, replace(MARKET, maturity=1e-305),
                       cn.MarchConfig(640))

    def test_boundary_values_imposed(self):
        mesh = fem1d.Mesh1D(200.0, 80)
        u = cn.march1d(mesh, MARKET, cn.MarchConfig(80))
        assert u[0] == pytest.approx(50.0 * np.exp(-0.05), rel=1e-12)
        assert u[-1] == 0.0


class TestMarch2D:
    @staticmethod
    def check_against_natural_order_march(mesh):
        # the reference runs in natural node order on the far-edge nodes'
        # complement, apart from the pencil, so this checks its node map
        # as well as the ordered LU, which changes only the rounding
        basket = replace(BASKET, L1=mesh.L1, L2=mesh.L2)
        config = cn.MarchConfig(20)
        dt = basket.maturity / config.steps
        spatial, mass, load = fem2d.build_matrices(
            mesh, basket,
            lambda x1, x2: fem2d.payoff_basket_maxput(x1, x2, basket.strike))
        x1, x2 = np.meshgrid(mesh.x1, mesh.x2)
        far = (x1.ravel() == mesh.L1) | (x2.ravel() == mesh.L2)
        keep = np.flatnonzero(~far)
        restrict = lambda x: x[keep][:, keep].tocsc()
        lu = splu(restrict(spatial + (2.0 / dt) * mass))
        rhs_op = restrict((2.0 / dt) * mass - spatial)
        u = splu(restrict(mass)).solve(load[keep])
        for _ in range(config.steps):
            u = lu.solve(rhs_op @ u)
        want = np.zeros(len(mesh))
        want[keep] = u
        got = cn.march2d(mesh, basket, config)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))
        # the domain comes from the mesh: the basket's L1 and L2 are unread
        assert np.array_equal(cn.march2d(mesh, BASKET, config), got)

    def test_matches_default_splu_march(self):
        self.check_against_natural_order_march(
            fem2d.Mesh2D(300.0, 300.0, 32, 32))

    def test_matches_default_splu_march_non_square(self):
        self.check_against_natural_order_march(
            fem2d.Mesh2D(300.0, 150.0, 24, 12))

    def test_matches_default_splu_march_on_the_reference_domain(self):
        self.check_against_natural_order_march(
            fem2d.Mesh2D(600.0, 600.0, 32, 32))

    def test_mirrored_basket_gives_the_transposed_field(self):
        # a11 != a22: swapping them mirrors the problem across x1 = x2
        mesh = fem2d.Mesh2D(300.0, 300.0, 24, 24)
        basket = replace(BASKET, a11=0.09, a22=0.04)
        u = cn.march2d(mesh, basket, cn.MarchConfig(20)).reshape(25, 25)
        v = cn.march2d(mesh, replace(basket, a11=0.04, a22=0.09),
                       cn.MarchConfig(20)).reshape(25, 25)
        assert np.max(np.abs(u - u.T)) > 1.0
        np.testing.assert_allclose(v, u.T, rtol=0,
                                   atol=1e-12 * np.max(np.abs(u)))

    def test_swap_symmetry(self):
        mesh = fem2d.Mesh2D(300.0, 300.0, 16, 16)
        u = cn.march2d(mesh, BASKET, cn.MarchConfig(20)).reshape(17, 17)
        np.testing.assert_allclose(u, u.T, rtol=1e-10, atol=1e-12)

    def test_agrees_with_transform_method_on_matched_mesh(self):
        # both discretizations share the spatial matrices, so on one mesh
        # they must agree to the time-stepping/quadrature accuracy
        mesh = fem2d.Mesh2D(300.0, 300.0, 32, 32)
        u_cn = cn.march2d(mesh, BASKET, cn.MarchConfig(200))
        spec = ProblemSpec("basket2d", BASKET, 32, edges=fem2d.EdgeSpec())
        ensemble, _ = solve_ensemble(spec, EX3_CONTOUR, workers=1)
        u_lap = invert_at(ensemble, 1.0)
        rel = np.linalg.norm(u_lap - u_cn) / np.linalg.norm(u_cn)
        assert rel < 1e-5

    def test_stability_envelope(self):
        mesh = fem2d.Mesh2D(300.0, 300.0, 16, 16)
        u = cn.march2d(mesh, BASKET, cn.MarchConfig(50))
        assert np.max(u) <= BASKET.strike + 1e-9
        # small kink undershoot is expected of Crank-Nicolson on coarse grids
        assert np.min(u) >= -1e-3 * BASKET.strike


class Counting:
    """A matrix that counts its products with vectors; ``shape``, ``dtype``
    and ``matvec`` let scipy's ``aslinearoperator`` take it."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0
        self.shape, self.dtype = matrix.shape, matrix.dtype

    def diagonal(self):
        return self.matrix.diagonal()

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x

    def matvec(self, x):
        return self @ x


def lu_projection(mass, b):
    return fem2d.factor(mass).solve(b)


class TestProjection:
    """The 2D march projects the payoff by scipy's Jacobi-preconditioned CG
    on the pencil's M, so its one LU is the step matrix's."""

    @pytest.mark.parametrize("mesh, basket", [
        (fem2d.Mesh2D(300.0, 300.0, 16, 16), BASKET),
        (fem2d.Mesh2D(600.0, 600.0, 32, 32), BASKET),
        (fem2d.Mesh2D(300.0, 150.0, 24, 12), BASKET),
        (fem2d.Mesh2D(300.0, 300.0, 24, 24), replace(BASKET, a22=0.04)),
        (fem2d.Mesh2D(300.0, 300.0, 128, 128), BASKET),
    ], ids=["16", "32_on_600", "24x12", "mirrored", "128"])
    def test_matches_the_lu_solve(self, mesh, basket):
        p = fem2d.pencil(mesh, basket, fem2d.EdgeSpec())
        want = lu_projection(p.M, p.load)
        got = cn._project(p.M, p.load)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_steps_do_not_grow_with_the_mesh(self):
        # the Jacobi-scaled mass matrix is uniformly well conditioned
        products = []
        for m in (16, 32, 64, 128):
            p = fem2d.pencil(fem2d.Mesh2D(300.0, 300.0, m, m), BASKET,
                             fem2d.EdgeSpec())
            mass = Counting(p.M)
            cn._project(mass, p.load)
            products.append(mass.products)
        assert max(products) <= 40
        assert max(products) - min(products) <= 4

    def test_nan_load_raises(self):
        p = fem2d.pencil(fem2d.Mesh2D(300.0, 300.0, 8, 8), BASKET,
                         fem2d.EdgeSpec())
        load = p.load.copy()
        load[3] = np.nan
        with pytest.raises(RuntimeError, match="residual"):
            cn._project(p.M, load)

    def test_zero_load_gives_zeros(self):
        p = fem2d.pencil(fem2d.Mesh2D(300.0, 300.0, 8, 8), BASKET,
                         fem2d.EdgeSpec())
        mass = Counting(p.M)
        u = cn._project(mass, np.zeros_like(p.load))
        assert np.array_equal(u, np.zeros_like(p.load))
        assert mass.products == 1   # cg returns at b = 0; the last check

    def test_march_factors_once(self, monkeypatch):
        calls = []
        factor = fem2d.factor

        def counted(a):
            calls.append(a.shape)
            return factor(a)

        monkeypatch.setattr(fem2d, "factor", counted)
        cn.march2d(fem2d.Mesh2D(300.0, 300.0, 16, 16), BASKET,
                   cn.MarchConfig(5))
        assert calls == [(136, 136)]   # the step matrix, on the folded grid

    @pytest.mark.parametrize("m", [32, 128])
    def test_march_matches_the_lu_projection_march(self, monkeypatch, m):
        mesh = fem2d.Mesh2D(300.0, 300.0, m, m)
        got = cn.march2d(mesh, BASKET, cn.MarchConfig(20))
        monkeypatch.setattr(cn, "_project", lu_projection)
        want = cn.march2d(mesh, BASKET, cn.MarchConfig(20))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
