import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lapbs.analytic import bs_put, l2_error, reduction_rate
from lapbs.fem1d import Mesh1D

# [DERIVED] risk-neutral expectation E[e^{-rT}(K-S_T)_+] by scipy
# quad against the lognormal density (reported abserr ~3e-13).
PUT_50_ATM = 4.677098618028615


class TestBsPut:
    def test_quadrature_oracle(self):
        assert bs_put(50.0, 1.0, 50.0, 0.05, 0.3) == pytest.approx(
            PUT_50_ATM, abs=1e-10)

    def test_zero_spot_is_discounted_strike(self):
        assert bs_put(0.0, 1.0, 50.0, 0.05, 0.3) == pytest.approx(
            50.0 * math.exp(-0.05))

    def test_deep_out_of_money(self):
        assert bs_put(1e4, 1.0, 50.0, 0.05, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_huge_and_infinite_spot_are_worthless(self):
        with np.errstate(all="raise"):
            got = bs_put(np.array([1e308, np.inf]), 1.0, 50.0, 0.05, 0.3)
            assert bs_put(float("inf"), 1.0, 50.0, 0.05, 0.3) == 0.0
        assert list(got) == [0.0, 0.0]

    def test_subnormal_spot_is_discounted_strike(self):
        # 5e-324 / strike underflows to 0, where log() would warn
        want = 50.0 * math.exp(-0.05)
        with np.errstate(all="raise"):
            got = bs_put(np.array([5e-324, 1e-310]), 1.0, 50.0, 0.05, 0.3)
            assert bs_put(5e-324, 1.0, 50.0, 0.05, 0.3) == want
        assert list(got) == [want, want]

    def test_put_call_parity(self):
        # C - P = S - K e^{-rT}; call via parity from two put evaluations
        # against the payoff identity (K - S)_+ - (S - K)_+ = K - S.
        k, r, t, sig = 50.0, 0.05, 1.0, 0.3
        for s in (30.0, 50.0, 80.0):
            p = bs_put(s, t, k, r, sig)
            # lower bound K e^{-rT} - S <= P and P >= 0
            assert p >= max(k * math.exp(-r * t) - s, 0.0) - 1e-12
            assert p <= k * math.exp(-r * t) + 1e-12

    @given(st.floats(1.0, 200.0), st.floats(1.0, 200.0))
    def test_monotone_decreasing_in_spot(self, s1, s2):
        lo, hi = sorted([s1, s2])
        assert bs_put(lo, 1.0, 50.0, 0.05, 0.3) >= \
            bs_put(hi, 1.0, 50.0, 0.05, 0.3) - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bs_put(50.0, 0.0, 50.0, 0.05, 0.3)
        with pytest.raises(ValueError):
            bs_put(50.0, 1.0, 50.0, 0.05, -0.3)
        nan, inf = float("nan"), float("inf")
        for t, strike, r, sigma in ((nan, 50.0, 0.05, 0.3),
                                    (inf, 50.0, 0.05, 0.3),
                                    (1.0, nan, 0.05, 0.3),
                                    (1.0, inf, 0.05, 0.3),
                                    (1.0, 50.0, nan, 0.3),
                                    (1.0, 50.0, inf, 0.3),
                                    (1.0, 50.0, 0.05, nan),
                                    (1.0, 50.0, 0.05, inf)):
            with pytest.raises(ValueError, match="finite"):
                bs_put(50.0, t, strike, r, sigma)

    @pytest.mark.parametrize("bad, name", [
        (dict(t=True), "t"), (dict(strike="50"), "strike"),
        (dict(r=True), "r"), (dict(r=0.05j), "r"), (dict(sigma=None), "sigma"),
    ], ids=["bool_t", "str_strike", "bool_r", "complex_r", "none_sigma"])
    def test_non_real_and_bool_inputs_name_the_field(self, bad, name):
        args = dict(dict(t=1.0, strike=50.0, r=0.05, sigma=0.3), **bad)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bs_put(50.0, **args)

    def test_array_input(self):
        got = bs_put(np.array([0.0, 50.0]), 1.0, 50.0, 0.05, 0.3)
        assert got[1] == pytest.approx(PUT_50_ATM, abs=1e-10)

    @given(st.lists(st.floats(-50.0, 1e4), min_size=1, max_size=20))
    def test_array_entry_equals_scalar(self, spots):
        arr = np.array(spots)
        got = bs_put(arr, 0.75, 50.0, 0.05, 0.3)
        for i, s in enumerate(arr):
            assert got[i] == bs_put(float(s), 0.75, 50.0, 0.05, 0.3)

    def test_special_spots_in_one_array(self):
        disc = 50.0 * math.exp(-0.05)
        spots = np.array([[np.nan, -np.inf, -5.0], [0.0, 50.0, 1e4]])
        got = bs_put(spots, 1.0, 50.0, 0.05, 0.3)
        assert got.shape == (2, 3)
        assert math.isnan(got[0, 0])
        assert list(got[0, 1:]) == [disc, disc] and got[1, 0] == disc
        assert got[1, 1] == pytest.approx(PUT_50_ATM, abs=1e-10)
        assert got[1, 2] == pytest.approx(0.0, abs=1e-12)
        assert type(bs_put(50.0, 1.0, 50.0, 0.05, 0.3)) is float


class TestL2Error:
    def test_exact_match_is_zero(self):
        mesh = Mesh1D(10.0, 20)
        vals = 2.0 * mesh.x + 1.0
        assert l2_error(vals, lambda x: 2.0 * x + 1.0, mesh) == pytest.approx(
            0.0, abs=1e-13)

    def test_constant_offset(self):
        # ||c||_{L2(0,L)} = c * sqrt(L)
        mesh = Mesh1D(4.0, 8)
        vals = np.zeros(len(mesh))
        got = l2_error(vals, lambda x: 0.25, mesh)
        assert got == pytest.approx(0.25 * 2.0)

    def test_linear_interpolant_of_quadratic(self):
        # interp error of x^2 on uniform mesh: h^2 * sqrt(L/30)
        mesh = Mesh1D(1.0, 10)
        vals = mesh.x**2
        want = mesh.h**2 / math.sqrt(30.0)
        assert l2_error(vals, lambda x: x * x, mesh) == pytest.approx(want)

    def test_exact_called_once_on_all_gauss_points(self):
        mesh = Mesh1D(1.0, 10)
        shapes = []

        def exact(x):
            shapes.append(np.shape(x))
            return x * x

        l2_error(mesh.x**2, exact, mesh)
        assert shapes == [(10, 5)]

    @pytest.mark.parametrize("n", [4, 7])
    def test_wrong_length_values_rejected(self, n):
        mesh = Mesh1D(4.0, 4)
        with pytest.raises(ValueError, match=f"{n} entries.*5 nodes"):
            l2_error(np.ones(n), lambda x: 0.0 * x, mesh)

    def test_nan_value_rejected(self):
        mesh = Mesh1D(4.0, 4)
        vals = np.array([0.0, 1.0, np.nan, 1.0, 0.0])
        with pytest.raises(ValueError, match="values are not finite"):
            l2_error(vals, lambda x: 0.0 * x, mesh)

    def test_nan_exact_rejected(self):
        mesh = Mesh1D(4.0, 4)
        with pytest.raises(ValueError, match="exact is not finite"):
            l2_error(np.ones(5), lambda x: np.where(x > 3.0, np.nan, x), mesh)


class TestReductionRate:
    def test_factor_four_is_two(self):
        assert reduction_rate(4.0, 1.0) == pytest.approx(2.0)

    def test_hand_value(self):
        assert reduction_rate(0.7536, 0.1878) == pytest.approx(2.0046, abs=1e-3)

    def test_zero_gives_nan(self):
        assert math.isnan(reduction_rate(0.0, 1.0))
        assert math.isnan(reduction_rate(1.0, 0.0))
