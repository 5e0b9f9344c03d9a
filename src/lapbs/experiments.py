"""Experiment harness: table sweeps, reference cache, CSV/JSON emission."""

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import List, Optional

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import dia_array

from . import cn, fem1d, fem2d
from .analytic import bs_put, l2_error, reduction_rate
from .contour import (ContourParams, kappa_bound, mu, quadrature_nodes,
                      validate)
from .inversion import TransformEnsemble, invert_at
from .parallel import ProblemSpec, solve_ensemble

__all__ = [
    "ExperimentConfig",
    "default_config",
    "load_config",
    "run_example1",
    "run_example2",
    "run_example3",
    "run_oracles",
    "reference_solution",
    "TABLE3_ROWS",
    "EX3_CONTOUR",
]

# contour parameter rows for the one-asset studies (slope fixed at 0.4213),
# keyed by node count; external optimal-parameter data treated as config
TABLE3_ROWS = {
    3: (13.48, 12.42, 0.16500),
    6: (26.95, 24.84, 0.09385),
    9: (40.43, 37.26, 0.06809),
    12: (53.90, 49.68, 0.05430),
    15: (67.38, 62.09, 0.04556),
    18: (80.86, 74.51, 0.03947),
    21: (94.33, 86.93, 0.03494),
}
CONTOUR_SLOPE = 0.4213
EX3_CONTOUR = ContourParams(35.94, 33.12, 0.4213, 0.07472, 15)

DEFAULT_REFERENCE_CACHE = ".cache/ex3_reference.npz"
# the config fields the reference field depends on, stored with its cache
_REFERENCE_KEYS = ("r", "a11", "a22", "a12", "basket_strike", "maturity")


@dataclass
class ExperimentConfig:
    example: str
    r: float = 0.05
    sigma: float = 0.3
    strike: float = 50.0
    maturity: float = 1.0
    L: float = 200.0
    meshes: List[int] = field(default_factory=lambda: [10, 20, 40, 80, 160, 320, 640])
    contours: List[ContourParams] = field(
        default_factory=lambda: [ContourParams(g, nu, CONTOUR_SLOPE, tau, n)
                                 for n, (g, nu, tau) in TABLE3_ROWS.items()]
    )
    # basket fields (ex3); L1 x L2 is Table 8's domain, Table 6 solves on
    # the reference domain [0,600]^2
    a11: float = 0.09
    a22: float = 0.09
    a12: float = -0.018
    basket_strike: float = 100.0
    L1: float = 300.0
    L2: float = 300.0
    workers: int = 1
    worker_sweep: List[int] = field(default_factory=lambda: [1, 2, 4])
    out: str = "out"
    reference_cache: str = DEFAULT_REFERENCE_CACHE

    def contour(self, n):
        for c in self.contours:
            if c.n == n:
                return c
        raise KeyError(f"no contour row for n={n}")

    def market(self):
        return fem1d.Market1D(self.r, self.sigma, self.strike,
                              self.maturity, self.L)

    def basket(self):
        return fem2d.Basket2D(self.r, self.a11, self.a22, self.a12,
                              self.basket_strike, self.maturity,
                              self.L1, self.L2)


def default_config(example):
    cfg = ExperimentConfig(example=example)
    if example == "ex2":
        cfg.L = 50.0
    if example == "ex3":
        cfg.meshes = [16, 32, 64, 128]
    return cfg


def load_config(path=None, example=None):
    if path is None:
        return default_config(example)
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object, "
                         f"got {type(data).__name__}")
    if example is not None:
        data["example"] = example
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    for k, v in data.items():   # a JSON bool is an int to isinstance
        want = {float: (int, float), str: str}.get(types[k])
        if want and (isinstance(v, bool) or not isinstance(v, want)):
            raise ValueError(f"{k} must be a {types[k].__name__}, got {v!r}")
    for key, what in (("meshes", "mesh sizes"), ("contours", "contour rows"),
                      ("worker_sweep", "worker counts")):
        if not isinstance(data.get(key, []), list):
            raise ValueError(f"{key} must be a JSON list of {what}")
    for i, row in enumerate(data.get("contours", ())):
        try:
            data["contours"][i] = ContourParams(**row)
        except TypeError as e:
            raise ValueError(f"bad contour row {row}: {e}") from None
    base = default_config(data.get("example", example))
    for k, v in data.items():
        setattr(base, k, v)
    return base


def _prepare_run(cfg, contours, mu_val, least, reference=False):
    """Check that there are meshes, each a count of at least ``least``
    elements a side as the example's mesh checks, the worker counts, that
    Table 8's sweep starts at 1 (its speedup baseline), that every contour
    clears its kappa bound and, with the Example-3 reference, that Table 7
    has a mesh; load the reference if asked, then make the output
    directory: a bad config writes nothing.  Returns the reference."""
    if not cfg.meshes:
        raise ValueError("meshes must name at least one mesh size")
    for m in cfg.meshes:
        fem1d._require_count("mesh sizes in meshes", m, least, "elements")
    for w in (cfg.workers, *cfg.worker_sweep):
        fem1d._require_count("worker counts", w, 1, "worker")
    if not cfg.worker_sweep or cfg.worker_sweep[0] != 1:
        raise ValueError("worker counts in worker_sweep must start at 1, "
                         f"the speedup baseline; got {cfg.worker_sweep!r}")
    for c in contours:
        ok, violations = validate(c, kappa_bound(c.s, mu_val))
        if not ok:
            raise ValueError(f"contour n={c.n} inadmissible: {violations}")
    if reference and min(cfg.meshes) > 64:   # Table 7 runs on [0,150]^2
        raise ValueError("Table 7 needs a mesh size of at most 64 in "
                         f"meshes, got {cfg.meshes!r}")
    loaded = reference_solution(cfg) if reference else None
    os.makedirs(cfg.out, exist_ok=True)
    return loaded


def _write_csv(cfg, name, header, rows):
    with open(os.path.join(cfg.out, name), "w", newline="") as f:
        for row in (header, *rows):
            f.write(",".join(map(str, row)) + "\r\n")


def _fmt_err(e):
    return f"{e:.4e}"


def _fmt_rate(r):
    return "" if np.isnan(r) else f"{r:.3f}"


def _rates(errors):
    """The reduction rate of each error from the one before; NaN first."""
    return [float("nan")] + [reduction_rate(a, b)
                             for a, b in zip(errors, errors[1:])]


def _jobs(kind, market, meshes, contour, **bc):
    """One (spec, contour) job per mesh size, for ``_sweep``."""
    return [(ProblemSpec(kind, market, m, **bc), contour) for m in meshes]


def _sweep(cfg, jobs, error):
    """Solve each (spec, contour) job, invert it at the maturity and
    measure it by ``error(u, mesh)``.  Returns one (mesh, error, rate, u)
    row per job, the rate taken over the jobs' order, and the imaginary
    residual of each inversion."""
    rows, residuals = [], []
    for spec, contour in jobs:
        ensemble, _ = solve_ensemble(spec, contour, workers=cfg.workers)
        u, res = invert_at(ensemble, cfg.maturity, return_residual=True)
        mesh = spec.mesh()
        rows.append((mesh, error(u, mesh), u))
        residuals.append(res)
    rates = _rates([e for _, e, _ in rows])
    return [(mesh, e, r, u) for (mesh, e, u), r in zip(rows, rates)], residuals


def _error_table(cfg, name, first, error_name, rows):
    """CSV of (first column, space meshes, mesh size, error, rate) rows."""
    _write_csv(cfg, name, [first, "Number of space meshes", "Mesh size",
                           error_name, "Reduction rate"],
               [(a, m, f"{h:g}", _fmt_err(e), _fmt_rate(r))
                for a, m, h, e, r in rows])


def run_example1(cfg):
    """Tables 1-3: CN sweep, Laplace sweep at N=15, contour-size study."""
    mu_val = mu(cfg.r, cfg.sigma, cfg.sigma, True)
    market, c15 = cfg.market(), cfg.contour(15)
    _prepare_run(cfg, cfg.contours, mu_val, 2)
    exact = lambda x: bs_put(x, cfg.maturity, cfg.strike, cfg.r, cfg.sigma)
    error = lambda u, mesh: l2_error(u, exact, mesh)

    # Table 1: Crank-Nicolson, steps = meshes
    meshes = [fem1d.Mesh1D(cfg.L, m) for m in cfg.meshes]
    e1 = [error(cn.march1d(mesh, market, cn.MarchConfig(mesh.m)), mesh)
          for mesh in meshes]
    t1 = list(zip(meshes, e1, _rates(e1)))
    _error_table(cfg, "table1.csv", "Time steps", "Error in L2",
                 [(mesh.m, mesh.m, mesh.h, e, r) for mesh, e, r in t1])

    # Table 2: Laplace at N = 15
    t2, res2 = _sweep(cfg, _jobs("put1d", market, cfg.meshes, c15), error)
    _error_table(cfg, "table2.csv", "Number of z", "Error in L2",
                 [(c15.n, mesh.m, mesh.h, e, r) for mesh, e, r, _ in t2])

    # Table 3: contour-size study at the finest mesh (paper: 2560 meshes)
    m_fine = 2560
    spec = ProblemSpec("put1d", market, m_fine)
    t3, res3 = _sweep(cfg, [(spec, c) for c in cfg.contours], error)
    _write_csv(cfg, "table3.csv",
               ["Number of z", "Number of space meshes", "L2-Error",
                "Reduction rate", "gamma", "nu", "s", "tau"],
               [(c.n, m_fine, _fmt_err(e), _fmt_rate(r), f"{c.gamma:g}",
                 f"{c.nu:g}", f"{c.s:g}", f"{c.tau:g}")
                for c, (_, e, r, _) in zip(cfg.contours, t3)])

    report = {
        "example": "ex1",
        "kappa": kappa_bound(CONTOUR_SLOPE, mu_val),
        "table1": [(mesh.m, e, r) for mesh, e, r in t1],
        "table2": [(mesh.m, e, r) for mesh, e, r, _ in t2],
        "table3": [(c.n, e, r) for c, (_, e, r, _) in zip(cfg.contours, t3)],
        "imag_residuals": res2 + res3,
    }
    _write_manifest(cfg, report)
    return report


def run_example2(cfg):
    """Tables 4-5 and the Fig. 1 curves: boundary-condition study at L=50."""
    mu_val = mu(cfg.r, cfg.sigma, cfg.sigma, True)
    market, c15 = cfg.market(), cfg.contour(15)
    _prepare_run(cfg, cfg.contours, mu_val, 2)
    exact = lambda x: bs_put(x, cfg.maturity, cfg.strike, cfg.r, cfg.sigma)
    error = lambda u, mesh: l2_error(u, exact, mesh)

    t4, res4 = _sweep(cfg, _jobs("put1d", market, cfg.meshes, c15), error)
    t5, res5 = _sweep(cfg, _jobs("put1d", market, cfg.meshes, c15,
                                 right_bc="transparent"), error)
    for name, rows in (("table4.csv", t4), ("table5.csv", t5)):
        _error_table(cfg, name, "Number of z", "Error in L2",
                     [(c15.n, mesh.m, mesh.h, e, r)
                      for mesh, e, r, _ in rows])

    # Fig. 1 data: T=1 curves on the finest mesh
    mesh, _, _, u_dirichlet = t4[-1]
    with open(os.path.join(cfg.out, "fig1.dat"), "w") as f:
        f.write("# x dirichlet transparent exact\n")
        for x, ud, ut in zip(mesh.x, u_dirichlet, t5[-1][3]):
            f.write(f"{x:.10g} {ud:.10g} {ut:.10g} {exact(x):.10g}\n")

    report = {
        "example": "ex2",
        "table4": [(mesh.m, e, r) for mesh, e, r, _ in t4],
        "table5": [(mesh.m, e, r) for mesh, e, r, _ in t5],
        "imag_residuals": res4 + res5,
    }
    _write_manifest(cfg, report)
    return report


def reference_solution(cfg, rebuild=False):
    """Example-3 reference field: CN on [0,600]^2, 512x512, dt = 0.02.

    Cached to cfg.reference_cache with the basket data it was built for
    (a cache without them was built for ``default_config("ex3")``); a
    cache built for other data, or without the grid's finite values,
    raises ValueError.  Returns (values, Mesh2D).
    """
    path = cfg.reference_cache
    mesh = fem2d.Mesh2D(600.0, 600.0, 512, 512)
    if not rebuild and os.path.exists(path):
        default = default_config("ex3")
        with np.load(path) as data:
            wrong = [k for k in _REFERENCE_KEYS
                     if data.get(k, getattr(default, k)) != getattr(cfg, k)]
            if wrong:
                raise ValueError(f"reference cache {path} was built for "
                                 f"other basket data: {wrong} differ")
            values = data["values"]
        if values.shape != (len(mesh),) or not np.isfinite(values).all():
            raise ValueError(f"reference cache {path} does not hold the "
                             f"{len(mesh)} finite values of its grid")
        return values, mesh
    steps = int(round(cfg.maturity / 0.02))
    values = cn.march2d(mesh, cfg.basket(), cn.MarchConfig(steps))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    np.savez_compressed(path, values=values,
                        **{k: getattr(cfg, k) for k in _REFERENCE_KEYS})
    return values, mesh


def run_example3(cfg):
    """Tables 6-8 and the Fig. 2 surface: the two-asset basket study.

    Table 6 truncates with Dirichlet data on the reference field's own
    domain [0,600]^2 over ``cfg.meshes`` (h = 600/m), and Fig. 2 is its
    finest surface.  Table 7 compares Dirichlet and transparent edges on
    [0,150]^2.  Table 8 times the 128x128 solve on ``cfg.basket()``
    ([0,L1] x [0,L2]).
    """
    mu_val = mu(cfg.r, np.sqrt(min(cfg.a11, cfg.a22)),
                np.sqrt(max(cfg.a11, cfg.a22)), True)
    basket = cfg.basket()
    ref, refmesh = _prepare_run(cfg, [EX3_CONTOUR], mu_val, 1, reference=True)
    meshes7 = [m for m in cfg.meshes if m <= 64]   # Table 7's meshes
    # relative L2 distance from the reference over each mesh's own domain
    error = lambda u, mesh: fem2d.relative_l2(u, mesh, ref, refmesh,
                                              mesh.L1, mesh.L2)

    # Table 6: Dirichlet truncation on the reference domain [0,600]^2
    basket6 = replace(basket, L1=refmesh.L1, L2=refmesh.L2)
    t6, res6 = _sweep(cfg, _jobs("basket2d", basket6, cfg.meshes,
                                 EX3_CONTOUR), error)
    _error_table(cfg, "table6.csv", "Number of z", "Relative error in L2",
                 [(EX3_CONTOUR.n, f"{mesh.m1}x{mesh.m2}", mesh.h1, e, r)
                  for mesh, e, r, _ in t6])

    # Table 7: boundary-condition comparison on [0,150]^2
    basket150 = replace(basket, L1=150.0, L2=150.0)
    (t7d, res7d), (t7t, res7t) = (
        _sweep(cfg, _jobs("basket2d", basket150, meshes7, EX3_CONTOUR,
                          edges=fem2d.EdgeSpec(bc, bc)), error)
        for bc in fem1d.RIGHT_BCS)
    t7 = [(mesh, ed, et) for (mesh, ed, _, _), (_, et, _, _)
          in zip(t7d, t7t)]
    _write_csv(cfg, "table7.csv",
               ["Number of z", "Number of space meshes", "Mesh size",
                "Relative error in L2 (Dirichlet)",
                "Relative error in L2 (Transparent)"],
               [(EX3_CONTOUR.n, f"{mesh.m1}x{mesh.m2}", f"{mesh.h1:g}",
                 _fmt_err(ed), _fmt_err(et)) for mesh, ed, et in t7])

    # Table 8: parallel speedup on the 128x128 workload, against the
    # sweep's first (1-worker) entry
    spec = ProblemSpec("basket2d", basket, 128)
    t8 = [solve_ensemble(spec, EX3_CONTOUR, workers=w)[1]
          for w in cfg.worker_sweep]
    speedups = [t8[0].wall_time / r.wall_time for r in t8]
    _write_csv(cfg, "table8.csv", ["Number of CPUs", "Time(sec)", "Speedup"],
               [(r.workers, f"{r.wall_time:.3f}", f"{s:.2f}")
                for r, s in zip(t8, speedups)])

    # Fig. 2 data: price surface at T on Table 6's finest mesh
    mesh, _, _, u = t6[-1]
    surface = u.reshape(mesh.m2 + 1, mesh.m1 + 1)
    with open(os.path.join(cfg.out, "fig2.dat"), "w") as f:
        f.write("# x1 x2 price\n")
        for j in range(mesh.m2 + 1):
            for i in range(mesh.m1 + 1):
                f.write(f"{mesh.x1[i]:.10g} {mesh.x2[j]:.10g} "
                        f"{surface[j, i]:.10g}\n")
            f.write("\n")

    report = {
        "example": "ex3",
        "table6": [(mesh.m1, e, r) for mesh, e, r, _ in t6],
        "table7": [(mesh.m1, ed, et) for mesh, ed, et in t7],
        "table8": [dict(asdict(r), speedup=s) for r, s in zip(t8, speedups)],
        "imag_residuals": res6 + res7d + res7t,
    }
    _write_manifest(cfg, report)
    return report


def run_oracles():
    """Scalar-inversion and inequality validation suite.  Poincare and
    Garding are exact bounds on ``fem1d._forms``' bands (ex1, m = 64): the
    smallest generalised eigenvalue over v(L) = 0, printed as the detail.

    Returns (ok, report dict); each entry is (name, passed, detail).
    """
    checks = []

    def check(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    table3 = default_config("ex1")
    c15 = table3.contour(15)
    for a in (0.05, 1.0, 5.0):
        ens = TransformEnsemble.from_evaluator(c15, lambda z: 1.0 / (z + a))
        got = invert_at(ens, 1.0)
        rel = abs(got - np.exp(-a)) / np.exp(-a)
        check(f"invert 1/(z+{a}) at t=1", rel <= 1e-6, f"rel err {rel:.2e}")
    ens = TransformEnsemble.from_evaluator(c15, lambda z: 1.0 / z**2)
    got = invert_at(ens, 1.0)
    check("invert 1/z^2 at t=1", abs(got - 1.0) <= 1e-6,
          f"abs err {abs(got - 1.0):.2e}")

    market = table3.market()
    r, sigma = market.r, market.sigma
    mu_val = mu(r, sigma, sigma, True)
    kap = kappa_bound(0.4, mu_val)
    check("kappa(s=0.4) = 0.01811", abs(kap - 0.01811) < 5e-6,
          f"kappa {kap:.6f}")

    # Poincare and Garding as exact bounds on the bands the solver factors
    # (DIA storage at offsets 1, 0, -1): the smallest generalised
    # eigenvalue over fields with v(L) = 0
    stiffness, spatial, mass = (
        dia_array((b, [1, 0, -1]), (b.shape[1],) * 2).toarray()[:-1, :-1]
        for b in fem1d._forms(fem1d.Mesh1D(market.L, 64), market))
    weighted = stiffness / (0.5 * sigma**2)   # int |x v'|^2
    smallest = dict(eigvals_only=True, subset_by_index=[0, 0])
    poincare = eigh(4.0 * weighted, mass, **smallest)[0]
    garding = eigh(0.5 * (spatial + spatial.T) - 0.25 * sigma**2 * weighted
                   + mu_val * mass, mass, **smallest)[0]
    check("discrete weighted Poincare: 4W >= M on v(L) = 0", poincare >= 1.0,
          f"smallest eigenvalue {poincare:.4f}")
    check("discrete Garding: sym(B) - (sigma^2/4)W + mu*M >= 0 on v(L) = 0",
          garding >= 0.0, f"smallest eigenvalue {garding:.4f}")

    # robin_coefficient's root, -(L*sigma^2*c + r - sigma^2/2), at each node
    z = np.concatenate([quadrature_nodes(p)[0] for p in table3.contours])
    c = np.array([fem1d.robin_coefficient(zj, r, sigma, market.L) for zj in z])
    root = -(market.L * sigma**2 * c + r - 0.5 * sigma**2)
    check("Robin branch Re(sqrt) > 0 on all Table-3 nodes",
          np.all(root.real > 0), f"smallest Re {root.real.min():.5f}")

    ok = all(c["passed"] for c in checks)
    return ok, {"checks": checks}


def _write_manifest(cfg, report):
    import datetime

    manifest = {
        "config": asdict(cfg),
        "timestamp": datetime.datetime.now().isoformat(),
        "max_imag_residual": max(report.get("imag_residuals", [0.0]),
                                 default=0.0),
    }
    with open(os.path.join(cfg.out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
