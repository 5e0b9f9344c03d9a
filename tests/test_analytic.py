import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lapbs.analytic import bs_put, erf, l2_error, reduction_rate
from lapbs.fem1d import Mesh1D

# [DERIVED] mpmath.erf at 50 digits, rounded to double.
ERF_REFERENCE = {
    0.5: 0.520499877813046538,
    1.0: 0.842700792949714869,
    2.0: 0.995322265018952734,
    3.5: 0.999999256901627659,
    5.0: 0.99999999999846254,
    6.0: 0.999999999999999978,
}

# [DERIVED] risk-neutral expectation E[e^{-rT}(K-S_T)_+] by scipy
# quad against the lognormal density (reported abserr ~3e-13).
PUT_50_ATM = 4.677098618028615


class TestErf:
    def test_frozen_references(self):
        for x, want in ERF_REFERENCE.items():
            assert erf(x) == pytest.approx(want, rel=4e-16, abs=0.0)

    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_saturation(self):
        assert erf(40.0) == 1.0
        assert erf(-40.0) == -1.0

    @given(st.floats(-8, 8))
    def test_odd(self, x):
        assert erf(-x) == -erf(x)

    @given(st.floats(0, 8), st.floats(0, 8))
    def test_monotone(self, x1, x2):
        lo, hi = sorted([x1, x2])
        assert erf(lo) <= erf(hi)

    def test_array_input(self):
        xs = np.array([0.5, 1.0, 2.0])
        got = erf(xs)
        assert got.shape == (3,)
        assert got[1] == pytest.approx(ERF_REFERENCE[1.0], rel=4e-16)

    def test_branch_seam_continuity(self):
        # no seam across |x| = 2
        assert erf(2.0 - 1e-12) == pytest.approx(erf(2.0 + 1e-12), rel=1e-11)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=20))
    def test_array_entry_equals_scalar(self, xs):
        arr = np.array(xs)
        got = erf(arr)
        for i, x in enumerate(arr):
            want = erf(float(x))
            assert got[i] == want or (math.isnan(got[i]) and math.isnan(want))

    def test_special_values_in_one_array(self):
        xs = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0 - 1e-12,
                       2.0 + 1e-12, 27.0, -27.0, 1.0])
        got = erf(xs)
        assert math.isnan(got[0])
        assert list(got[1:5]) == [1.0, -1.0, 0.0, 0.0]
        assert got[5] == erf(2.0 - 1e-12) and got[6] == erf(2.0 + 1e-12)
        assert (got[7], got[8]) == (1.0, -1.0)  # saturates in double
        assert got[9] == pytest.approx(ERF_REFERENCE[1.0], rel=4e-16)
        assert math.isnan(erf(float("nan")))

    def test_shape_kept_and_scalar_gives_float(self):
        xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        got = erf(xs)
        assert got.shape == (3, 4)
        assert got[1, 2] == erf(float(xs[1, 2]))
        assert type(erf(0.5)) is float
        assert type(erf(np.float64(0.5))) is float

    def test_mpmath_grid_oracle(self):
        # measured bounds (scipy.special.erf): <= 2.3 ulp for |x| < 2,
        # <= 0.51 ulp beyond
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(-7.0, 7.0, 2001)
        got = erf(xs)
        with mpmath.workdps(40):
            for x, g in zip(xs, got):
                want = mpmath.erf(mpmath.mpf(float(x)))
                ulps = (abs(mpmath.mpf(float(g)) - want)
                        / np.spacing(abs(float(want))))
                assert ulps <= (10.0 if abs(x) < 2.0 else 1.0), x


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


class TestReductionRate:
    def test_factor_four_is_two(self):
        assert reduction_rate(4.0, 1.0) == pytest.approx(2.0)

    def test_hand_value(self):
        assert reduction_rate(0.7536, 0.1878) == pytest.approx(2.0046, abs=1e-3)

    def test_zero_gives_nan(self):
        assert math.isnan(reduction_rate(0.0, 1.0))
        assert math.isnan(reduction_rate(1.0, 0.0))
