import math

import numpy as np
import pytest

from lapbs.contour import ContourParams, quadrature_nodes
from lapbs.inversion import (TransformEnsemble, direct_trapezoid, invert_at,
                             invert_many)

TABLE3 = {
    3: (13.48, 12.42, 0.16500),
    6: (26.95, 24.84, 0.09385),
    9: (40.43, 37.26, 0.06809),
    15: (67.38, 62.09, 0.04556),
}


def contour(n):
    g, nu, tau = TABLE3[n]
    return ContourParams(g, nu, 0.4213, tau, n)


class TestEnsemble:
    def test_from_evaluator_shape(self):
        ens = TransformEnsemble.from_evaluator(contour(15), lambda z: 1.0 / z)
        assert ens.values.shape == (15, 1)
        z, weight = quadrature_nodes(contour(15))
        assert np.array_equal(ens.z, z)
        assert np.array_equal(ens.weight, weight)

    def test_length_mismatch_rejected(self):
        for rows in (14, 16):
            with pytest.raises(ValueError, match="one value row per node"):
                TransformEnsemble(contour(15), np.ones((rows, 1), dtype=complex))


class TestInvertAt:
    def test_exponential_pairs(self):
        # transform 1/(z+a) <-> e^{-a t}
        c = contour(15)
        for a in (0.05, 1.0, 5.0):
            ens = TransformEnsemble.from_evaluator(c, lambda z: 1.0 / (z + a))
            got = invert_at(ens, 1.0)
            assert abs(got - math.exp(-a)) <= 1e-6 * math.exp(-a)

    def test_ramp_pair(self):
        # transform 1/z^2 <-> t
        ens = TransformEnsemble.from_evaluator(contour(15), lambda z: z**-2.0)
        assert invert_at(ens, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_error_decays_with_node_count(self):
        errs = []
        for n in (3, 6, 9, 15):
            ens = TransformEnsemble.from_evaluator(
                contour(n), lambda z: 1.0 / (z + 1.0))
            errs.append(abs(invert_at(ens, 1.0) - math.exp(-1.0)))
        assert all(a > b for a, b in zip(errs[:-1], errs[1:]))
        # super-algebraic: N=15 beats N=3 by far more than (15/3)^2
        assert errs[0] / errs[-1] > 1e4

    def test_zero_transform(self):
        ens = TransformEnsemble.from_evaluator(contour(15), lambda z: 0.0)
        assert invert_at(ens, 1.0) == 0.0

    def test_vector_values(self):
        c = contour(15)
        vals = np.array([[1.0 / (z + 1.0), 1.0 / (z + 5.0)]
                         for z in quadrature_nodes(c)[0].tolist()])
        ens = TransformEnsemble(c, vals)
        got = invert_at(ens, 1.0)
        assert got[0] == pytest.approx(math.exp(-1.0), abs=1e-6)
        assert got[1] == pytest.approx(math.exp(-5.0), abs=1e-6)

    def test_nonpositive_time_rejected(self):
        ens = TransformEnsemble.from_evaluator(contour(15), lambda z: 1.0 / z)
        for t in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                invert_at(ens, t)

    def test_residual_diagnostics_recorded(self):
        ens = TransformEnsemble.from_evaluator(
            contour(15), lambda z: 1.0 / (z + 1.0))
        before = dict(vars(ens))
        values = ens.values.copy()
        _, res = invert_at(ens, 1.0, return_residual=True)
        assert res >= 0.0
        assert invert_at(ens, 1.0, return_residual=True)[1] == res
        # the residual is returned, not recorded on the ensemble
        assert vars(ens).keys() == before.keys()
        assert all(vars(ens)[k] is v for k, v in before.items())
        np.testing.assert_array_equal(ens.values, values)

    def test_invert_many_matches_single_calls(self):
        ens = TransformEnsemble.from_evaluator(
            contour(15), lambda z: 1.0 / (z + 1.0))
        times = [0.5, 1.0, 1.5]
        many = invert_many(ens, times)
        assert many == [invert_at(ens, t) for t in times]


class TestGuardAndInputs:
    def test_non_real_transform_raises(self):
        # (1+1j)/(z+1) is not real on the real axis: node 0 keeps an
        # imaginary part of order the result itself
        ens = TransformEnsemble.from_evaluator(
            contour(15), lambda z: (1 + 1j) / (z + 1.0))
        with pytest.raises(RuntimeError, match="imaginary residual"):
            invert_at(ens, 1.0)
        with pytest.raises(RuntimeError, match="imaginary residual"):
            invert_many(ens, [0.5, 1.0])

    def test_nan_transform_raises(self):
        ens = TransformEnsemble.from_evaluator(contour(15),
                                               lambda z: float("nan"))
        with pytest.raises(RuntimeError, match="non-finite inversion"):
            invert_at(ens, 1.0)

    @pytest.mark.parametrize("times", [[0.5, 0.0], [-1.0], [1.0, -0.25],
                                       [float("nan")], [1.0, float("inf")]])
    def test_invert_many_rejects_nonpositive_times(self, times):
        ens = TransformEnsemble.from_evaluator(contour(15), lambda z: 1.0 / z)
        with pytest.raises(ValueError):
            invert_many(ens, times)

    def test_matches_per_node_reference_sum(self):
        # node 0 once, every other node with its conjugate: twice its real part
        c = contour(15)
        z, weight = (a.tolist() for a in quadrature_nodes(c))
        shifts = (0.05, 0.5, 1.0, 2.0)
        ens = TransformEnsemble(
            c, [[1.0 / (zj + a) for a in shifts] for zj in z])
        times = [0.25, 0.5, 1.0]
        for t, many in zip(times, invert_many(ens, times)):
            ref = np.array([
                math.fsum((1 if j == 0 else 2)
                          * (weight[j] * np.exp(z[j] * t) * u).real
                          for j, u in enumerate(ens.values[:, i]))
                for i in range(len(shifts))])
            np.testing.assert_allclose(invert_at(ens, t), ref, rtol=1e-13)
            np.testing.assert_allclose(many, ref, rtol=1e-13)


class TestDirectTrapezoid:
    def test_exponential_tolerance(self):
        got = direct_trapezoid(0.5, 4.0, 10_000, lambda z: 1.0 / (z + 1.0), 1.0)
        assert abs(got - math.exp(-1.0)) <= 1e-3 * math.exp(-1.0)

    def test_slow_algebraic_improvement(self):
        errs = []
        for n in (100, 1_000, 10_000):
            got = direct_trapezoid(0.5, 4.0, n, lambda z: 1.0 / (z + 1.0), 1.0)
            errs.append(abs(got - math.exp(-1.0)))
        assert errs[0] > errs[1] > errs[2]
        # nowhere near the contour method's decay
        assert errs[0] / errs[2] < 1e6

    def test_time_outside_window_rejected(self):
        with pytest.raises(ValueError):
            direct_trapezoid(0.5, 4.0, 100, lambda z: 1.0 / z, 5.0)
        with pytest.raises(ValueError):
            direct_trapezoid(0.5, 4.0, 100, lambda z: 1.0 / z, 0.0)
