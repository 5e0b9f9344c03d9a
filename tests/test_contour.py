import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lapbs.contour import (ContourParams, kappa_bound, mu, omega_of_y,
                           quadrature_nodes, validate)

TABLE3 = {
    3: (13.48, 12.42, 0.16500),
    6: (26.95, 24.84, 0.09385),
    9: (40.43, 37.26, 0.06809),
    12: (53.90, 49.68, 0.05430),
    15: (67.38, 62.09, 0.04556),
    18: (80.86, 74.51, 0.03947),
    21: (94.33, 86.93, 0.03494),
}


def make(n):
    g, nu, tau = TABLE3[n]
    return ContourParams(g, nu, 0.4213, tau, n)


class TestMu:
    def test_example1_constants(self):
        assert mu(0.05, 0.3, 0.3, True) == pytest.approx(0.0177778, abs=1e-6)

    def test_zero_when_r_equals_sigma_squared(self):
        assert mu(0.09, 0.3, 0.3, True) == 0.0

    def test_hand_arithmetic(self):
        assert mu(0.05, 0.2, 0.2, True) == pytest.approx(0.0001 / 0.04)

    def test_variable_sigma_branch(self):
        got = mu(0.05, 0.2, 0.3, False)
        assert got == pytest.approx((0.05 + 2 * 0.09) ** 2 / 0.04)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(ValueError):
            mu(0.05, 0.0, 0.3, True)


class TestKappaBound:
    def test_paper_value(self):
        kap = kappa_bound(0.4, mu(0.05, 0.3, 0.3, True))
        assert kap == pytest.approx(0.01811, abs=5e-6)

    def test_zero_slope_is_identity(self):
        assert kappa_bound(0.0, 0.7) == 0.7

    def test_hand_arithmetic(self):
        assert kappa_bound(0.4213, 0.0177778) == pytest.approx(0.018141, abs=1e-6)

    @given(st.floats(0, 10), st.floats(0, 10))
    def test_monotone_in_s(self, s1, s2):
        lo, hi = sorted([s1, s2])
        assert kappa_bound(lo, 1.0) <= kappa_bound(hi, 1.0)

    @given(st.floats(0, 10), st.floats(0, 100))
    def test_linear_in_mu(self, s, m):
        assert kappa_bound(s, m) == pytest.approx(m * kappa_bound(s, 1.0))


class TestOmegaOfY:
    def test_zero(self):
        assert omega_of_y(0.0, 0.5) == 0.0

    def test_log3(self):
        assert omega_of_y(0.5, 1.0) == pytest.approx(math.log(3.0))

    @given(st.floats(-0.999, 0.999), st.floats(0.01, 10))
    def test_odd(self, y, tau):
        assert omega_of_y(-y, tau) == pytest.approx(-omega_of_y(y, tau))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            omega_of_y(1.0, 0.5)


class TestQuadratureNodes:
    def test_count(self):
        assert len(quadrature_nodes(make(15))) == 29

    def test_center_node_real_crossing(self):
        nodes = {q.j: q for q in quadrature_nodes(make(3))}
        assert nodes[0].z == pytest.approx(13.48 - 12.42)
        assert nodes[0].z.imag == 0.0

    def test_conjugate_symmetry(self):
        nodes = {q.j: q for q in quadrature_nodes(make(15))}
        for j in range(1, 15):
            assert nodes[-j].z == pytest.approx(np.conj(nodes[j].z))
            assert nodes[-j].weight == pytest.approx(np.conj(nodes[j].weight))

    def test_monotone_real_part(self):
        nodes = sorted(quadrature_nodes(make(15)), key=lambda q: q.j)
        re = [q.z.real for q in nodes if q.j >= 0]
        assert all(a > b for a, b in zip(re[:-1], re[1:]))

    def test_real_part_bounded_by_crossing(self):
        p = make(9)
        for q in quadrature_nodes(p):
            if q.j == 0:
                assert q.z.real == pytest.approx(p.crossing)
            else:
                assert q.z.real < p.crossing


class TestValidate:
    def test_table3_rows_ok(self):
        for n in TABLE3:
            ok, violations = validate(make(n), 0.01811)
            assert ok, violations

    def test_crossing_violation(self):
        ok, violations = validate(ContourParams(1.0, 1.0, 0.4, 0.1, 3), 0.01811)
        assert not ok
        assert "crossing" in violations[0]

    def test_large_kappa_violation(self):
        ok, _ = validate(make(3), 2.0)
        assert not ok

    def test_bad_params_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ContourParams(1.0, -1.0, 0.4, 0.1, 3)
        with pytest.raises(ValueError):
            ContourParams(1.0, 1.0, 0.4, -0.1, 3)
        with pytest.raises(ValueError):
            ContourParams(1.0, 1.0, 0.4, 0.1, 0)
        nan = float("nan")
        for bad in ((nan, 1.0, 0.4, 0.1, 3), (1.0, nan, 0.4, 0.1, 3),
                    (1.0, 1.0, nan, 0.1, 3), (1.0, 1.0, 0.4, nan, 3),
                    (1.0, 1.0, 0.4, float("inf"), 3), (1.0, 1.0, 0.4, 0.1, nan)):
            with pytest.raises(ValueError):
                ContourParams(*bad)
