import logging
import os
import signal
from contextlib import contextmanager
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import pytest

from lapbs import fem1d, fem2d, parallel
from lapbs.contour import ContourParams, quadrature_nodes
from lapbs.experiments import EX3_CONTOUR
from lapbs.inversion import invert_at
from lapbs.parallel import ProblemSpec, SpeedupRow, solve_ensemble

C15 = ContourParams(67.38, 62.09, 0.4213, 0.04556, 15)
MARKET = fem1d.Market1D(0.05, 0.3, 50.0, 1.0, 200.0)
BASKET = fem2d.Basket2D(0.05, 0.09, 0.09, -0.018, 100.0, 1.0, 300.0, 300.0)
EDGES = [fem2d.EdgeSpec(),
         fem2d.EdgeSpec(x1_far="transparent", x2_far="transparent")]


class TestProblemSpec:
    def test_mesh_kinds(self):
        s1 = ProblemSpec("put1d", MARKET, 40)
        assert isinstance(s1.mesh(), fem1d.Mesh1D)
        assert len(s1.mesh()) == 41
        s2 = ProblemSpec("basket2d", BASKET, 16, edges=fem2d.EdgeSpec())
        assert isinstance(s2.mesh(), fem2d.Mesh2D)
        assert s2.mesh().n_nodes == 17 * 17

    @pytest.mark.parametrize("kwargs, bad, allowed", [
        ({"kind": "put1D", "market": MARKET}, "'put1D'", "basket2d"),
        ({"kind": "basket", "market": BASKET}, "'basket'", "put1d"),
        ({"kind": "put1d", "market": MARKET, "right_bc": "transprent"},
         "'transprent'", "transparent"),
        ({"kind": "basket2d", "market": MARKET}, "Market1D", "Basket2D"),
        ({"kind": "put1d", "market": BASKET}, "Basket2D", "Market1D"),
        ({"kind": "basket2d", "market": BASKET, "right_bc": "transparent"},
         "right_bc='transparent'", "edges"),
        ({"kind": "put1d", "market": MARKET, "edges": fem2d.EdgeSpec()},
         "edges", "right_bc"),
    ], ids=["kind_1d", "kind_2d", "right_bc", "market_1d_for_2d",
            "market_2d_for_1d", "right_bc_on_2d", "edges_on_1d"])
    def test_unknown_kind_or_right_bc_rejected(self, kwargs, bad, allowed):
        with pytest.raises(ValueError) as err:
            ProblemSpec(m=16, **kwargs)
        assert bad in str(err.value) and allowed in str(err.value)


class TestSolveEnsemble:
    def test_invalid_workers(self):
        spec = ProblemSpec("put1d", MARKET, 40)
        for workers in (0, 2.5, True):
            with pytest.raises(ValueError, match="workers"):
                solve_ensemble(spec, C15, workers=workers)

    def test_bitwise_identical_across_worker_counts(self):
        spec = ProblemSpec("put1d", MARKET, 160)
        base, row1 = solve_ensemble(spec, C15, workers=1)
        assert row1.speedup == 1.0
        for w in (2, 4):
            ens, _ = solve_ensemble(spec, C15, workers=w)
            assert np.array_equal(ens.values, base.values)

    def test_bitwise_identical_2d(self):
        spec = ProblemSpec("basket2d", BASKET, 16, edges=fem2d.EdgeSpec())
        base, _ = solve_ensemble(spec, EX3_CONTOUR, workers=1)
        ens, _ = solve_ensemble(spec, EX3_CONTOUR, workers=3)
        assert np.array_equal(ens.values, base.values)

    def test_grouped_2d_bitwise_identical_across_worker_counts(self):
        for edges in EDGES:
            spec = ProblemSpec("basket2d", BASKET, 32, edges=edges)
            base, _ = solve_ensemble(spec, EX3_CONTOUR, workers=1)
            for w in (2, 4):
                ens, _ = solve_ensemble(spec, EX3_CONTOUR, workers=w)
                assert np.array_equal(ens.values, base.values)

    @pytest.mark.parametrize("edges", EDGES, ids=["dirichlet", "transparent"])
    def test_grouped_2d_real_node_inverts_at_late_times(self, edges):
        # node 0 is a real shift solved inside a group anchored at node 2;
        # a complex part there trips invert_at's imaginary guard by t = 2
        spec = ProblemSpec("basket2d", replace(BASKET, L1=150.0, L2=150.0),
                           64, edges=edges)
        ens, _ = solve_ensemble(spec, EX3_CONTOUR, workers=1)
        assert ens.z[0].imag == 0
        assert np.all(ens.values[0].imag == 0)
        for t in (2.0, 4.0):
            _, residual = invert_at(ens, t, return_residual=True)
            assert residual == 0.0

    @pytest.mark.parametrize("edges", EDGES, ids=["dirichlet", "transparent"])
    def test_one_lu_per_group(self, monkeypatch, edges):
        calls = []
        splu = fem2d.splu

        def counted(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(fem2d, "splu", counted)
        spec = ProblemSpec("basket2d", BASKET, 32, edges=edges)
        solve_ensemble(spec, EX3_CONTOUR, workers=1)
        assert len(calls) == 4

    def test_ensemble_shape_and_nodes(self):
        spec = ProblemSpec("put1d", MARKET, 40)
        ens, _ = solve_ensemble(spec, C15, workers=1)
        assert ens.values.shape == (15, 41)
        assert np.array_equal(ens.z, quadrature_nodes(C15)[0])

    @pytest.mark.parametrize("right_bc", ["dirichlet0", "transparent"])
    def test_1d_rows_are_solves_at_python_complex_nodes(self, right_bc):
        # numpy and CPython round complex scalar arithmetic differently,
        # so the solvers must be handed Python ``complex`` nodes
        spec = ProblemSpec("put1d", replace(MARKET, L=50.0), 640,
                           right_bc=right_bc)
        ens, _ = solve_ensemble(spec, C15, workers=1)
        p = spec.pencil()
        for j, z in enumerate(quadrature_nodes(C15)[0].tolist()):
            assert type(z) is complex
            assert np.array_equal(ens.values[j], fem1d.solve(p.at(z)))

    def test_speedup_uses_baseline(self):
        spec = ProblemSpec("put1d", MARKET, 40)
        _, row = solve_ensemble(spec, C15, workers=2, baseline_time=10.0)
        assert row.workers == 2
        assert row.speedup == pytest.approx(10.0 / row.wall_time)

    def test_speedup_nan_without_baseline(self):
        spec = ProblemSpec("put1d", MARKET, 40)
        _, row = solve_ensemble(spec, C15, workers=2)
        assert np.isnan(row.speedup)

    def test_transparent_bc_spec(self):
        spec = ProblemSpec("put1d", MARKET, 80, right_bc="transparent")
        ens, _ = solve_ensemble(spec, C15, workers=1)
        # transparent far value is free (not pinned to zero)
        assert np.any(ens.values[:, -1] != 0.0)


@contextmanager
def deadline(seconds):
    """Fail the test, rather than hang it, if the block outlives ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerFailure:
    """The counters are shared memory created before the fork, so every
    worker of every pool attempt updates the same value."""

    def test_killed_worker_retried_once(self, monkeypatch, caplog):
        spec = ProblemSpec("put1d", MARKET, 40)
        base, _ = solve_ensemble(spec, C15, workers=1)
        killed = get_context("fork").Value("i", 0)
        solve = fem1d.solve

        def die_once(system):
            with killed.get_lock():
                first = killed.value == 0
                killed.value = 1
            if first:
                os.kill(os.getpid(), signal.SIGKILL)
            return solve(system)

        monkeypatch.setattr(fem1d, "solve", die_once)
        with deadline(30), caplog.at_level(logging.WARNING, "lapbs.parallel"):
            ens, _ = solve_ensemble(spec, C15, workers=2)
        assert killed.value == 1
        assert np.array_equal(ens.values, base.values)
        assert "retrying once" in caplog.text

    def test_node_error_raised_without_rerun(self, monkeypatch):
        calls = get_context("fork").Value("i", 0)

        def fail(system):
            with calls.get_lock():
                calls.value += 1
            raise ValueError("residual guard tripped")

        monkeypatch.setattr(fem1d, "solve", fail)
        with deadline(30), pytest.raises(ValueError, match="residual guard"):
            solve_ensemble(ProblemSpec("put1d", MARKET, 40), C15, workers=2)
        assert calls.value == 2  # one failing node per chunk, one attempt


class TestBlasCap:
    """Each loaded OpenBLAS runs the nodes at one thread and reads its own
    count again afterwards.  The fixture starts every library at 2
    threads, so a count left at 1 shows."""

    @pytest.fixture
    def blas(self):
        blas = parallel._loaded_blas()
        if not blas:
            pytest.skip("no known BLAS loaded")
        saved = [get() for _, get in blas]
        for set_threads, _ in blas:
            set_threads(2)
        yield blas
        for (set_threads, _), count in zip(blas, saved):
            set_threads(count)

    @staticmethod
    def counts(blas):
        return [get() for _, get in blas]

    def test_one_thread_during_solves_then_restored(self, blas, monkeypatch):
        before, seen = self.counts(blas), []
        solve = fem1d.solve

        def record(system):
            seen.append(self.counts(blas))
            return solve(system)

        monkeypatch.setattr(fem1d, "solve", record)
        solve_ensemble(ProblemSpec("put1d", MARKET, 40), C15, workers=1)
        assert seen == [[1] * len(blas)] * 15
        assert self.counts(blas) == before

    def test_restored_after_pool(self, blas):
        before = self.counts(blas)
        solve_ensemble(ProblemSpec("put1d", MARKET, 40), C15, workers=2)
        assert self.counts(blas) == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_when_a_node_raises(self, blas, monkeypatch, workers):
        def fail(system):
            raise ValueError("residual guard tripped")

        before = self.counts(blas)
        monkeypatch.setattr(fem1d, "solve", fail)
        with deadline(30), pytest.raises(ValueError, match="residual guard"):
            solve_ensemble(ProblemSpec("put1d", MARKET, 40), C15,
                           workers=workers)
        assert self.counts(blas) == before


    def test_no_known_blas_runs_and_logs_once(self, monkeypatch, caplog):
        spec = ProblemSpec("put1d", MARKET, 40)
        base, _ = solve_ensemble(spec, C15, workers=1)
        monkeypatch.setattr(parallel, "_OPENBLAS", ())
        monkeypatch.setattr(parallel, "_BLAS", None)
        with caplog.at_level(logging.INFO, "lapbs.parallel"):
            runs = [solve_ensemble(spec, C15, workers=1)[0] for _ in range(2)]
        assert all(np.array_equal(e.values, base.values) for e in runs)
        assert caplog.text.count("no known BLAS") == 1

class TestSpeedupRow:
    def test_fields(self):
        row = SpeedupRow(workers=4, wall_time=2.5, speedup=3.2)
        assert (row.workers, row.wall_time, row.speedup) == (4, 2.5, 3.2)
