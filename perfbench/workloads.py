"""The benchmark's three workloads: inputs from a seed, timed passes, checks.

Every call into lapbs goes through its module attribute
(``parallel.solve_ensemble``, not an imported name), so that the traced run
in ``layers.py`` can wrap the layer functions from outside the package.
"""

import contextlib
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from lapbs import analytic, cn, experiments, fem1d, fem2d, inversion, parallel
from lapbs.contour import kappa_bound, mu, validate

WORKLOADS = ("put1d", "basket2d", "cn_march")

# Problem sizes.  "full" is what the benchmark measures; "smoke" is the
# reduced size that smoke.py uses to check the harness in seconds.
SIZES = {
    "full": {"m1d": 2560, "m2d": 128, "m2d_edge": 64},
    "smoke": {"m1d": 160, "m2d": 16, "m2d_edge": 16},
}

# Errors measured at the seed commit, per (problem, time).  A check fails
# when an error exceeds its seed value by more than CHECK_TOLERANCE; a lower
# error passes, so an accuracy gain (a better contour, say) never fails.
EXPECTED_ERRORS = {
    "full": {
        ("ex1_dirichlet", 0.25): 8.4645e-4,
        ("ex1_dirichlet", 0.5): 5.2945e-5,
        ("ex1_dirichlet", 1.0): 4.7312e-5,
        ("ex2_transparent", 0.25): 8.4042e-4,
        ("ex2_transparent", 0.5): 3.4870e-6,
        ("ex2_transparent", 1.0): 3.0499e-6,
        ("table6_dirichlet", 1.0): 2.7262e-4,
        ("table7_transparent", 1.0): 2.8654e-4,
        ("table1_cn", 1.0): 4.7233e-5,
        ("basket_cn", 1.0): 2.7338e-4,
    },
    "smoke": {
        ("ex1_dirichlet", 0.25): 1.5991e-2,
        ("ex1_dirichlet", 0.5): 1.3569e-2,
        ("ex1_dirichlet", 1.0): 1.1719e-2,
        ("ex2_transparent", 0.25): 1.2811e-3,
        ("ex2_transparent", 0.5): 8.1882e-4,
        ("ex2_transparent", 1.0): 7.2670e-4,
        ("table6_dirichlet", 1.0): 1.0438e-2,
        ("table7_transparent", 1.0): 2.9704e-3,
        ("table1_cn", 1.0): 1.1737e-2,
        ("basket_cn", 1.0): 1.0440e-2,
    },
}
CHECK_TOLERANCE = 0.02

POOL_WORKERS = 2          # basket2d fans its nodes out over this many workers
TERM_POINTS = {"put1d": 50, "basket2d": 20}   # seeded maturities per problem
CN2D_STEPS = 50           # dt = 0.02, as the Example-3 reference uses


class CheckFailed(RuntimeError):
    """An output was not finite or missed its accuracy ceiling."""


@dataclass
class Priced:
    """What one pricing call produced: prices per time, plus the ensemble."""

    prices: dict
    ensemble: object = None
    row: object = None


class Problem:
    """One pricing problem and its accuracy checks.

    Subclasses define ``price(workers)`` -> Priced; PutCheck or BasketCheck
    defines ``error(priced, t, exact_wrap)`` for each time in ``expected``.
    """

    workers = 1

    def __init__(self, name, size, market, mesh, check_times):
        self.name, self.market, self.mesh = name, market, mesh
        table = EXPECTED_ERRORS[size]
        self.expected = {t: table[(name, t)] for t in check_times}

    def errors(self, priced, exact_wrap):
        return {t: self.error(priced, t, exact_wrap) for t in self.expected}

    def check(self, priced, errors):
        for t, u in priced.prices.items():
            if not np.all(np.isfinite(u)):
                raise CheckFailed(f"{self.name}: non-finite price at t={t}")
        for t, err in errors.items():
            ceiling = self.expected[t] * (1.0 + CHECK_TOLERANCE)
            if not err <= ceiling:
                raise CheckFailed(f"{self.name}: error {err:.4e} at t={t} "
                                  f"exceeds {ceiling:.4e}")


class PutCheck:
    """Absolute L2 error against the closed-form Black-Scholes put."""

    def error(self, priced, t, exact_wrap):
        mk = self.market
        exact = exact_wrap(
            lambda x: analytic.bs_put(x, t, mk.strike, mk.r, mk.sigma))
        return analytic.l2_error(priced.prices[t], exact, self.mesh)


class BasketCheck:
    """Relative L2 error against the cached Crank-Nicolson reference."""

    def error(self, priced, t, exact_wrap):
        ref, refmesh = self.reference
        return fem2d.relative_l2(priced.prices[t], self.mesh, ref, refmesh,
                                 self.market.L1, self.market.L2)


class Laplace(Problem):
    """Priced by one contour ensemble, inverted over a term structure."""

    def __init__(self, name, size, spec, contour, times, check_times):
        super().__init__(name, size, spec.market, spec.mesh(), check_times)
        self.spec, self.contour = spec, contour
        self.times = sorted(set(times) | set(check_times))

    def price(self, workers):
        ens, row = parallel.solve_ensemble(self.spec, self.contour,
                                           workers=workers)
        prices = inversion.invert_many(ens, self.times)
        return Priced(dict(zip(self.times, prices)), ens, row)


class LaplacePut(PutCheck, Laplace):
    """European put with the N=15 Table-3 contour, checked at three times."""

    def __init__(self, name, size, market, right_bc, times):
        spec = parallel.ProblemSpec("put1d", market, SIZES[size]["m1d"],
                                    right_bc=right_bc)
        super().__init__(name, size, spec,
                         experiments.default_config("ex1").contour(15),
                         times, (0.25, 0.5, 1.0))


class LaplaceBasket(BasketCheck, Laplace):
    """Max-of-two basket put over the process pool, checked at maturity."""

    workers = POOL_WORKERS

    def __init__(self, name, size, basket, m, edges, times, reference):
        spec = parallel.ProblemSpec("basket2d", basket, m, edges=edges)
        super().__init__(name, size, spec, experiments.EX3_CONTOUR, times,
                         (basket.maturity,))
        self.reference = reference


class MarchPut(PutCheck, Problem):
    """Table 1: Crank-Nicolson on the put, steps = mesh size."""

    def __init__(self, name, size, market):
        super().__init__(name, size, market,
                         fem1d.Mesh1D(market.L, SIZES[size]["m1d"]),
                         (market.maturity,))

    def price(self, workers):
        u = cn.march1d(self.mesh, self.market, cn.MarchConfig(self.mesh.m))
        return Priced({self.market.maturity: u})


class MarchBasket(BasketCheck, Problem):
    """Crank-Nicolson on the Table-6 basket with the reference's dt."""

    def __init__(self, name, size, basket, reference):
        m = SIZES[size]["m2d"]
        super().__init__(name, size, basket,
                         fem2d.Mesh2D(basket.L1, basket.L2, m, m),
                         (basket.maturity,))
        self.reference = reference

    def price(self, workers):
        u = cn.march2d(self.mesh, self.market, cn.MarchConfig(CN2D_STEPS))
        return Priced({self.market.maturity: u})


def reference_cache_path():
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".cache", "ex3_reference.npz")


def load_reference():
    """The cached Example-3 reference; never rebuilt here (that takes
    minutes), so a missing cache is an error."""
    cfg = experiments.default_config("ex3")
    cfg.reference_cache = reference_cache_path()
    if not os.path.exists(cfg.reference_cache):
        raise FileNotFoundError(f"reference cache {cfg.reference_cache} "
                                "is missing")
    return experiments.reference_solution(cfg)


def contour_margin(contour, mu_val):
    """Admissibility margin (crossing - kappa); raises if inadmissible."""
    kappa = kappa_bound(contour.s, mu_val)
    ok, violations = validate(contour, kappa)
    if not ok:
        raise ValueError(f"inadmissible contour: {violations}")
    return contour.crossing - kappa


@dataclass
class Workload:
    problems: list
    margin: float      # contour admissibility margin, crossing - kappa


def build(name, seed, size="full"):
    """Markets, meshes, contours and reference for one workload.

    The seed draws each Laplace problem's maturity term structure; the
    problems themselves, and so all of cn_march, are the paper's.
    """
    rng = np.random.default_rng(seed)
    ex1, ex2, ex3 = (experiments.default_config(e)
                     for e in ("ex1", "ex2", "ex3"))
    put_mu = mu(ex1.r, ex1.sigma, ex1.sigma, True)
    basket_mu = mu(ex3.r, math.sqrt(min(ex3.a11, ex3.a22)),
                   math.sqrt(max(ex3.a11, ex3.a22)), True)

    def term(n):
        return [float(t) for t in rng.uniform(0.25, 1.0, n)]

    if name == "put1d":
        problems = [
            LaplacePut("ex1_dirichlet", size, ex1.market(), "dirichlet0",
                       term(TERM_POINTS[name])),
            LaplacePut("ex2_transparent", size, ex2.market(), "transparent",
                       term(TERM_POINTS[name])),
        ]
        margin = contour_margin(problems[0].contour, put_mu)
    elif name == "basket2d":
        reference = load_reference()
        b150 = fem2d.Basket2D(ex3.r, ex3.a11, ex3.a22, ex3.a12,
                              ex3.basket_strike, ex3.maturity, 150.0, 150.0)
        problems = [
            LaplaceBasket("table6_dirichlet", size, ex3.basket(),
                          SIZES[size]["m2d"], fem2d.EdgeSpec(),
                          term(TERM_POINTS[name]), reference),
            LaplaceBasket("table7_transparent", size, b150,
                          SIZES[size]["m2d_edge"],
                          fem2d.EdgeSpec(x1_far="transparent",
                                         x2_far="transparent"),
                          term(TERM_POINTS[name]), reference),
        ]
        margin = contour_margin(experiments.EX3_CONTOUR, basket_mu)
    elif name == "cn_march":
        reference = load_reference()
        problems = [MarchPut("table1_cn", size, ex1.market()),
                    MarchBasket("basket_cn", size, ex3.basket(), reference)]
        margin = math.inf
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(problems, margin)


class Timed(NamedTuple):
    """One timed call, with the speed probes taken around it."""

    metric: str          # price_s or verify_s
    wall_s: float
    start: float
    end: float
    before: float        # probe seconds just before and just after
    after: float


@dataclass
class PassResult:
    price_s: float = 0.0
    verify_s: float = 0.0
    err_max: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)   # name -> Priced
    windows: dict = field(default_factory=dict)   # name -> (start, end)
    calls: list = field(default_factory=list)     # Timed, for speed.py

    def merge(self, other):
        self.price_s += other.price_s
        self.verify_s += other.verify_s
        self.err_max = max(self.err_max, other.err_max)
        self.attempted += other.attempted
        self.failed += other.failed
        self.outputs.update(other.outputs)
        self.windows.update(other.windows)
        self.calls += other.calls


def run_pass(problems, workers=None, exact_wrap=lambda f: f, keep=False,
             probe=None, pooled=contextlib.nullcontext, min_check_s=0.0):
    """Price and check every problem once; a problem that raises or fails a
    check is counted in ``failed`` and the pass goes on.

    ``workers`` overrides each problem's own worker count.  ``probe``, if
    given, is ``speed.probe``: it runs before the pricing, between pricing
    and check, and after the check, and ``calls`` records it.  A pricing on
    the process pool runs inside ``pooled()``.  A check is
    repeated until ``min_check_s`` has passed, and the verify time is the
    median of one (a 2D check takes milliseconds).  The outputs are kept
    only with ``keep``, for the traced run.
    """
    out = PassResult()
    probe = probe or (lambda: math.nan)
    for p in problems:
        out.attempted += 1
        n = p.workers if workers is None else workers
        try:
            before = probe()
            with pooled() if n > 1 else contextlib.nullcontext():
                t0 = time.perf_counter()
                priced = p.price(n)
                t1 = time.perf_counter()
            mid = probe()
            t2 = time.perf_counter()
            errors = p.errors(priced, exact_wrap)
            checks = [time.perf_counter() - t2]
            while time.perf_counter() - t2 < min_check_s:
                t = time.perf_counter()
                p.errors(priced, exact_wrap)
                checks.append(time.perf_counter() - t)
            t3 = time.perf_counter()
            after = probe()
            p.check(priced, errors)
        except Exception:
            out.failed += 1
            traceback.print_exc()
            continue
        out.price_s += t1 - t0
        check_s = statistics.median(checks)
        out.verify_s += check_s
        out.calls += [Timed("price_s", t1 - t0, t0, t1, before, mid),
                      Timed("verify_s", check_s, t2, t3, mid, after)]
        out.err_max = max([out.err_max, *errors.values()])
        if keep:
            out.outputs[p.name] = priced
        out.windows[p.name] = (t0, t1)
    return out
