import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.sparse import csc_matrix
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
        bc = fem1d.BoundarySpec(left=lambda z: 0.0, right=lambda z: 0.0)
        p = fem1d.pencil(mesh, MARKET, bc)
        proj = p.M.copy()
        proj[1, [0, -1]] = 1.0
        b0 = p.load.copy()
        b0[[0, -1]] = MARKET.strike, 0.0
        u0 = solve_banded((1, 1), proj, b0)

        z = 2.0 / MARKET.maturity
        a, _ = p.at(z)
        b1 = fem1d._residual(z * p.M - p.S, u0).astype(complex)
        b1[[0, -1]] = MARKET.strike * np.exp(-MARKET.r * MARKET.maturity), 0.0
        want = fem1d.solve((a, b1)).real
        got = cn.march1d(mesh, MARKET, cn.MarchConfig(1))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_matches_per_step_banded_solve(self):
        # reference: the march with the step matrix re-solved every step
        mesh = fem1d.Mesh1D(200.0, 160)
        bc = fem1d.BoundarySpec(left=lambda z: 0.0, right=lambda z: 0.0)
        p = fem1d.pencil(mesh, MARKET, bc)
        steps = 160
        dt = MARKET.maturity / steps
        proj = p.M.copy()
        proj[1, [0, -1]] = 1.0
        b = p.load.copy()
        b[[0, -1]] = MARKET.strike, 0.0
        u = solve_banded((1, 1), proj, b)
        for n in range(1, steps + 1):
            b = fem1d._residual((2.0 / dt) * p.M - p.S, u)
            b[[0, -1]] = MARKET.strike * np.exp(-MARKET.r * n * dt), 0.0
            u = solve_banded((1, 1), p.S + (2.0 / dt) * p.M, b)
        got = cn.march1d(mesh, MARKET, cn.MarchConfig(steps))
        np.testing.assert_allclose(got, u, rtol=1e-13, atol=1e-13)

    def test_boundary_values_imposed(self):
        mesh = fem1d.Mesh1D(200.0, 80)
        u = cn.march1d(mesh, MARKET, cn.MarchConfig(80))
        assert u[0] == pytest.approx(50.0 * np.exp(-0.05), rel=1e-12)
        assert u[-1] == 0.0


class TestMarch2D:
    def test_matches_default_splu_march(self):
        # the symmetric ordering changes only the rounding of each solve
        mesh = fem2d.Mesh2D(300.0, 300.0, 32, 32)
        config = cn.MarchConfig(20)
        p = fem2d.pencil(mesh, BASKET, fem2d.EdgeSpec())
        dt = BASKET.maturity / config.steps
        lu = splu(p.S + (2.0 / dt) * p.M)
        rhs_op = (2.0 / dt) * p.M - p.S
        n = mesh.n_nodes
        pins = csc_matrix((np.ones(len(p.fixed)), (p.fixed, p.fixed)),
                          shape=(n, n))
        b = p.load.copy()
        b[p.fixed] = 0.0
        want = splu(p.M + pins).solve(b)
        for _ in range(config.steps):
            b = rhs_op @ want
            b[p.fixed] = 0.0
            want = lu.solve(b)
        got = cn.march2d(mesh, BASKET, config)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))

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
