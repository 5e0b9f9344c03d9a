import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lapbs.contour import (ContourParams, kappa_bound, mu, omega_of_y,
                           quadrature_nodes, validate)
from lapbs.experiments import CONTOUR_SLOPE, EX3_CONTOUR, TABLE3_ROWS

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

    @pytest.mark.parametrize("args, name", [
        ((0.05, float("nan"), 0.3), "sigma_floor"),
        ((0.05, True, 0.3), "sigma_floor"),
        ((float("inf"), 0.3, 0.3), "r_sup"),
        (("0.05", 0.3, 0.3), "r_sup"),
        ((0.05, 0.3, float("nan")), "sigma_z_norm"),
    ], ids=["nan_floor", "bool_floor", "inf_r", "str_r", "nan_norm"])
    def test_non_finite_or_non_real_input_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            mu(*args, True)

    @pytest.mark.parametrize("args, constant", [
        ((1e308, 0.3, 0.3), True),
        ((0.05, 1e200, 1e200), True),
        ((0.05, 1e-200, 1e-200), True),   # sigma_floor^2 underflows to 0
        ((0.05, 0.3, 1e200), False),
    ], ids=["huge_r", "huge_floor", "tiny_floor", "huge_norm"])
    def test_out_of_range_names_the_inputs(self, args, constant):
        want = "r_sup={!r}, sigma_floor={!r}, sigma_z_norm={!r}".format(*args)
        with pytest.raises(ValueError, match=re.escape(want)):
            mu(*args, constant)


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
        for y in (1.0, float("nan"), [0.5, float("nan")]):
            with pytest.raises(ValueError, match=r"\|y\| < 1"):
                omega_of_y(y, 0.5)


def scalar_nodes(p):
    """Node j's z and weight, one node at a time in Python complex
    arithmetic: the reference for the vectorized rule."""
    inv_2pii_n = 1.0 / (2.0j * math.pi * p.n)
    zs, weights = [], []
    for j in range(p.n):
        y = j / p.n
        w = omega_of_y(y, p.tau)
        root = math.hypot(w, p.nu)
        zs.append(complex(p.gamma - root, p.s * w))
        dz_dw = complex(-w / root, p.s)
        dw_dy = 2.0 / (p.tau * (1.0 - y * y))
        weights.append(inv_2pii_n * dz_dw * dw_dy)
    return np.array(zs), np.array(weights)


CONTOURS = {**{f"table3_n{n}": make(n) for n in TABLE3}, "ex3": EX3_CONTOUR}


class TestQuadratureNodes:
    def test_count(self):
        z, weight = quadrature_nodes(make(15))
        assert z.shape == weight.shape == (15,)
        assert z.dtype == weight.dtype == np.complex128

    def test_center_node_real_crossing(self):
        z, _ = quadrature_nodes(make(3))
        assert z[0] == pytest.approx(13.48 - 12.42)
        assert z[0].imag == 0.0

    @pytest.mark.parametrize("p", CONTOURS.values(), ids=CONTOURS.keys())
    def test_bitwise_equal_to_scalar_formula(self, p):
        z, weight = quadrature_nodes(p)
        ref_z, ref_weight = scalar_nodes(p)
        assert z.tobytes() == ref_z.tobytes()
        assert weight.tobytes() == ref_weight.tobytes()
        # solve_shifts keeps only the real part of a row at a real shift
        assert z[0].imag == 0.0

    @pytest.mark.parametrize("p", [
        *(ContourParams(g, nu, CONTOUR_SLOPE, tau, n)
          for n, (g, nu, tau) in TABLE3_ROWS.items()), EX3_CONTOUR],
        ids=[*(f"table3_rows_n{n}" for n in TABLE3_ROWS), "ex3"])
    def test_node_zero_exactly_real(self, p):
        # the inversion reads node 0's imaginary part as k_0 * Im u_0
        z, weight = quadrature_nodes(p)
        assert z[0].imag == 0 and weight[0].imag == 0
        assert weight[0].real > 0

    @given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
           st.floats(1e-3, 1e3), st.integers(1, 64))
    def test_node_zero_exactly_real_drawn(self, gamma, nu, s, tau, n):
        z, weight = quadrature_nodes(ContourParams(gamma, nu, s, tau, n))
        assert z[0].imag == 0 and weight[0].imag == 0
        assert weight[0].real > 0

    def test_monotone_real_part(self):
        re = quadrature_nodes(make(15))[0].real
        assert all(a > b for a, b in zip(re[:-1], re[1:]))

    def test_real_part_bounded_by_crossing(self):
        p = make(9)
        z, _ = quadrature_nodes(p)
        assert z[0].real == pytest.approx(p.crossing)
        for zj in z[1:]:
            assert zj.real < p.crossing


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
                    (1.0, 1.0, 0.4, float("inf"), 3), (1.0, 1.0, 0.4, 0.1, nan),
                    (1.0, 1.0, 0.4, 0.1, 2.5), (1.0, 1.0, 0.4, 0.1, True)):
            with pytest.raises(ValueError):
                ContourParams(*bad)
