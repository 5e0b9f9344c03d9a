"""End-to-end acceptance criteria.

Each test prints exactly one "ACCEPTANCE <n>: PASS|FAIL" line directly to
the terminal (bypassing capture) and then asserts, so a plain pytest run
doubles as the acceptance report.  Numeric targets marked "published" are
the benchmark table values the experiments reproduce.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from lapbs import experiments, fem1d, fem2d
from lapbs.analytic import bs_put
from lapbs.contour import ContourParams, kappa_bound, mu, quadrature_nodes
from lapbs.inversion import TransformEnsemble, invert_at
from lapbs.parallel import ProblemSpec, solve_ensemble

REPO = Path(__file__).resolve().parents[1]

# published benchmark errors (Examples 1-3 tables)
TABLE1 = [2.928, 0.7536, 0.1878, 4.695e-2, 1.174e-2, 2.934e-3, 7.337e-4]
TABLE2 = [2.924, 0.7524, 0.1876, 4.688e-2, 1.172e-2, 2.930e-3, 7.327e-4]
TABLE5 = [0.1870, 4.656e-2, 1.163e-2, 2.907e-3, 7.267e-4, 1.817e-4, 4.551e-5]
TABLE6 = [3.662e-2, 1.047e-2, 2.969e-3, 8.444e-4]

C15 = ContourParams(67.38, 62.09, 0.4213, 0.04556, 15)


def report(capsys, criterion, passed, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}{tail}")


@pytest.fixture(scope="module")
def ex1_report(tmp_path_factory):
    cfg = experiments.default_config("ex1")
    cfg.out = str(tmp_path_factory.mktemp("ex1"))
    return experiments.run_example1(cfg)


@pytest.fixture(scope="module")
def ex2_report(tmp_path_factory):
    cfg = experiments.default_config("ex2")
    cfg.out = str(tmp_path_factory.mktemp("ex2"))
    return experiments.run_example2(cfg)


@pytest.fixture(scope="module")
def ex3_report(tmp_path_factory):
    cfg = experiments.default_config("ex3")
    cfg.reference_cache = str(REPO / ".cache" / "ex3_reference.npz")
    cfg.out = str(tmp_path_factory.mktemp("ex3"))
    cfg.worker_sweep = [1]  # timing sweep is exercised in criterion 7
    return experiments.run_example3(cfg)


def test_criterion_1_table2_reproduction(ex1_report, capsys):
    rows = ex1_report["table2"]
    errs = [e for _, e, _ in rows]
    rel = [abs(e - t) / t for e, t in zip(errs, TABLE2)]
    rates_ok = all(1.95 <= r <= 2.01 for _, _, r in rows[2:])
    passed = max(rel) <= 0.10 and rates_ok
    report(capsys, 1, passed,
           f"max rel dev {max(rel):.2%}, rates row3+ "
           f"{['%.3f' % r for _, _, r in rows[2:]]}")
    assert passed


def test_criterion_2_table1_reproduction(ex1_report, capsys):
    t1 = ex1_report["table1"]
    t2 = ex1_report["table2"]
    rel = [abs(e - t) / t for (_, e, _), t in zip(t1, TABLE1)]
    rates_ok = all(abs(r - 2.000) <= 0.01 for _, _, r in t1[2:])
    # both methods at the 640 mesh reach the same tolerance
    agree = abs(t1[-1][1] - t2[-1][1]) / t2[-1][1]
    passed = max(rel) <= 0.10 and rates_ok and agree <= 0.01
    report(capsys, 2, passed,
           f"max rel dev {max(rel):.2%}, matched-mesh gap {agree:.2%}")
    assert passed


def test_criterion_3_table3_spectral_study(ex1_report, capsys):
    t3 = ex1_report["table3"]
    errs = {n: e for n, e, _ in t3}
    rates = {n: r for n, _, r in t3}
    head_ok = 0.3 <= errs[3] <= 1.3
    steep_ok = rates[6] >= 4.5 and rates[9] >= 4.5
    plateau = [errs[n] for n in (15, 18, 21)]
    plateau_ok = (all(p / 4.73e-5 < 2.0 and 4.73e-5 / p < 2.0 for p in plateau)
                  and abs(rates[18]) <= 0.01 and abs(rates[21]) <= 0.01)
    passed = head_ok and steep_ok and plateau_ok
    report(capsys, 3, passed,
           f"err(N=3)={errs[3]:.3f}, rates {rates[6]:.2f}/{rates[9]:.2f}, "
           f"plateau {plateau[0]:.3e}")
    assert passed


def test_criterion_4_kappa_value(capsys):
    kap = kappa_bound(0.4, mu(0.05, 0.3, 0.3, True))
    passed = abs(kap - 0.01811) < 0.5e-5
    report(capsys, 4, passed, f"kappa = {kap:.6f}")
    assert passed


def test_criterion_5_boundary_study(ex1_report, ex2_report, capsys):
    t4 = ex2_report["table4"]
    t5 = ex2_report["table5"]
    stall_ok = (all(10.3 <= e <= 10.5 for _, e, _ in t4)
                and all(abs(r) <= 0.01 for _, _, r in t4[2:]))
    rel = [abs(e - t) / t for (_, e, _), t in zip(t5, TABLE5)]
    trans_ok = (max(rel) <= 0.10
                and all(1.99 <= r <= 2.01 for _, _, r in t5[1:]))
    # transparent M=10 (h=5) matches the big-domain M=40 (h=5) error
    e_big = dict((m, e) for m, e, _ in ex1_report["table2"])[40]
    match = abs(t5[0][1] - e_big) / e_big
    passed = stall_ok and trans_ok and match <= 0.01
    report(capsys, 5, passed,
           f"stall {t4[0][1]:.4f}..{t4[-1][1]:.4f}, max rel dev {max(rel):.2%}, "
           f"matched-h gap {match:.2%}")
    assert passed


def test_criterion_6_basket_study(ex3_report, capsys):
    t6 = ex3_report["table6"]
    t7 = ex3_report["table7"]
    rel = [abs(e - t) / t for (_, e, _), t in zip(t6, TABLE6)]
    rates = [r for _, _, r in t6[1:]]
    dirichlet_ok = max(rel) <= 0.20 and all(abs(r - 1.81) <= 0.1 for r in rates)
    beats = all(et < ed for _, ed, et in t7)
    ratio = t7[-1][1] / t7[-1][2]
    transparent_ok = beats and ratio >= 4.0
    passed = dirichlet_ok and transparent_ok
    report(capsys, 6, passed,
           f"max rel dev {max(rel):.0%} (tol 20%), rates "
           f"{['%.3f' % r for r in rates]}, 64x64 ratio {ratio:.1f}")
    assert passed


def test_criterion_7_parallel_determinism_and_efficiency(capsys):
    basket = fem2d.Basket2D(0.05, 0.09, 0.09, -0.018, 100.0, 1.0, 300.0, 300.0)
    spec = ProblemSpec("basket2d", basket, 128, edges=fem2d.EdgeSpec())
    contour = experiments.EX3_CONTOUR
    base, row1 = solve_ensemble(spec, contour, workers=1)
    identical = True
    eff = None
    for w in (2, 4):
        ens, row = solve_ensemble(spec, contour, workers=w,
                                  baseline_time=row1.wall_time)
        identical = identical and np.array_equal(ens.values, base.values)
        if w == 4:
            eff = row.speedup / 4.0
    cores = os.cpu_count() or 1
    if cores < 4:
        passed = identical
        detail = (f"bitwise identical workers 1/2/4; efficiency clause "
                  f"skipped: {cores} CPU(s) < 4")
    else:
        passed = identical and eff >= 0.80
        detail = f"bitwise identical workers 1/2/4; 4-worker efficiency {eff:.0%}"
    report(capsys, 7, passed, detail)
    assert passed


def test_criterion_8_inversion_oracle_suite(capsys):
    failures = []
    pairs = [(f"1/(z+{a})", lambda z, a=a: 1.0 / (z + a),
              lambda t, a=a: math.exp(-a * t)) for a in (0.05, 1.0, 5.0)]
    pairs.append(("1/z^2", lambda z: z**-2.0, lambda t: t))
    for name, transform, exact in pairs:
        for t in (0.25, 1.0):
            # C15 is tuned for horizon 1; the row for horizon t is its exact
            # rescaling z -> z/t (C15 itself at t = 1)
            c = ContourParams(C15.gamma / t, C15.nu / t, C15.s, C15.tau * t,
                              C15.n)
            ens = TransformEnsemble.from_evaluator(c, transform)
            rel = abs(invert_at(ens, t) - exact(t)) / abs(exact(t))
            if rel > 1e-6:
                failures.append(f"{name} t={t}: {rel:.1e}")
    # super-algebraic decay over the Table-3 rows: the error falls strictly
    # with N, and on average each +3 in N shrinks it >= 10x
    errs = []
    for n, (g, nu, tau) in experiments.TABLE3_ROWS.items():
        c = ContourParams(g, nu, experiments.CONTOUR_SLOPE, tau, n)
        ens = TransformEnsemble.from_evaluator(c, lambda z: 1.0 / (z + 1.0))
        errs.append(abs(invert_at(ens, 1.0) - math.exp(-1.0)))
    if not all(b < a for a, b in zip(errs[:-1], errs[1:])):
        failures.append("error not strictly decreasing in N: "
                        + ", ".join(f"{e:.1e}" for e in errs))
    mean_ratio = (errs[0] / errs[-1]) ** (1.0 / (len(errs) - 1))
    if mean_ratio < 10.0:
        failures.append(f"mean decay ratio per +3 nodes {mean_ratio:.1f} < 10")
    passed = not failures
    report(capsys, 8, passed, "; ".join(failures) or
           f"all pairs <= 1e-6, mean decay ratio {mean_ratio:.1f}")
    assert passed, failures


def test_criterion_9_property_suites(ex1_report, ex2_report, ex3_report,
                                     capsys):
    failures = []

    # conjugate symmetry of the transformed solves at 1e-12
    market = fem1d.Market1D(0.05, 0.3, 50.0, 1.0, 200.0)
    mesh = fem1d.Mesh1D(200.0, 80)
    bc = fem1d.BoundarySpec(
        left=lambda z: fem1d.left_dirichlet_transform(z, 50.0, 0.05),
        right=lambda z: 0.0)
    p = fem1d.pencil(mesh, market, bc)
    z = quadrature_nodes(C15)[0].tolist()
    for j in range(1, len(z)):
        u = fem1d.solve(p.at(z[j]))
        v = fem1d.solve(p.at(np.conj(z[j])))
        dev = np.max(np.abs(v - np.conj(u))) / np.max(np.abs(u))
        if dev > 1e-12:
            failures.append(f"conjugate symmetry dev {dev:.1e} at j={j}")

    # Poincare/coercivity over 1000 fields + Robin branch positivity
    ok, rep = experiments.run_oracles()
    failures += [c["name"] for c in rep["checks"] if not c["passed"]]

    # imaginary residual of every pricing inversion, relative to the
    # option-scale prices (strike units)
    residual = max(ex1_report["imag_residuals"] + ex2_report["imag_residuals"]
                   + ex3_report["imag_residuals"])
    if residual > 1e-10 * 50.0:
        failures.append(f"imag residual {residual:.1e}")

    passed = not failures
    report(capsys, 9, passed, "; ".join(failures) or
           f"symmetry/inequalities hold, max imag residual {residual:.1e}")
    assert passed, failures
