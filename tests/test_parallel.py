import gc
import logging
import os
import signal
import weakref
from contextlib import contextmanager
from dataclasses import fields, replace
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
        ({"kind": "put1d", "market": MARKET, "m": 0}, "got 0", "at least 2"),
        ({"kind": "put1d", "market": MARKET, "m": 1}, "got 1", "at least 2"),
        ({"kind": "put1d", "market": MARKET, "m": 2.5}, "got 2.5",
         "at least 2"),
        ({"kind": "put1d", "market": MARKET, "m": True}, "got True",
         "at least 2"),
        ({"kind": "basket2d", "market": BASKET, "m": 0}, "got 0",
         "at least 1"),
        ({"kind": "basket2d", "market": BASKET, "edges": "transparent"},
         "'transparent'", "EdgeSpec"),
        ({"kind": "basket2d", "market": BASKET,
          "edges": {"x1_far": "transparent"}}, "'x1_far'", "EdgeSpec"),
    ], ids=["kind_1d", "kind_2d", "right_bc", "market_1d_for_2d",
            "market_2d_for_1d", "right_bc_on_2d", "edges_on_1d", "m0_1d",
            "m1_1d", "fractional_1d", "bool_1d", "m0_2d", "edges_str",
            "edges_dict"])
    def test_unknown_kind_or_right_bc_rejected(self, kwargs, bad, allowed):
        with pytest.raises(ValueError) as err:
            ProblemSpec(**{"m": 16, **kwargs})
        assert bad in str(err.value) and allowed in str(err.value)


class TestSolveEnsemble:
    def test_invalid_workers(self):
        spec = ProblemSpec("put1d", MARKET, 40)
        for workers in (0, 2.5, True):
            with pytest.raises(ValueError, match="workers"):
                solve_ensemble(spec, C15, workers=workers)

    def test_bitwise_identical_across_worker_counts(self):
        spec = ProblemSpec("put1d", MARKET, 160)
        base, _ = solve_ensemble(spec, C15, workers=1)
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

    @pytest.mark.parametrize("edges", [
        fem2d.EdgeSpec(), fem2d.EdgeSpec(x1_far="transparent"),
    ], ids=["dirichlet", "mixed"])
    def test_mirrored_basket_gives_the_transposed_field(self, edges):
        # a11 != a22: swapping them, and the far edges, mirrors the
        # problem across x1 = x2
        basket = replace(BASKET, a11=0.09, a22=0.04)
        mirror = replace(basket, a11=0.04, a22=0.09)
        swapped = fem2d.EdgeSpec(x1_far=edges.x2_far, x2_far=edges.x1_far)
        u, v = (invert_at(solve_ensemble(ProblemSpec("basket2d", b, 24,
                                                     edges=e),
                                         EX3_CONTOUR)[0], 1.0)
                .reshape(25, 25) for b, e in ((basket, edges),
                                              (mirror, swapped)))
        assert np.max(np.abs(u - u.T)) > 1.0
        np.testing.assert_allclose(v, u.T, rtol=0,
                                   atol=1e-12 * np.max(np.abs(u)))

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

    @pytest.mark.parametrize("edges, lus", zip(EDGES, (4, 15)),
                             ids=["dirichlet", "transparent"])
    def test_one_lu_per_dirichlet_group_and_per_transparent_node(
            self, monkeypatch, edges, lus):
        calls = []
        splu = fem2d.splu

        def counted(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(fem2d, "splu", counted)
        spec = ProblemSpec("basket2d", BASKET, 32, edges=edges)
        solve_ensemble(spec, EX3_CONTOUR, workers=1)
        assert len(calls) == lus

    @pytest.mark.parametrize("m, basket, edges", [
        (64, replace(BASKET, L1=150.0, L2=150.0), EDGES[1]),
        (32, BASKET, fem2d.EdgeSpec(x1_far="transparent")),
    ], ids=["transparent", "mixed"])
    def test_transparent_rows_are_direct_solves(self, m, basket, edges):
        # a Robin term breaks the shared Krylov basis: each node is solved
        # directly, and its row is the same on any worker count
        spec = ProblemSpec("basket2d", basket, m, edges=edges)
        p = spec.pencil()
        want = np.array([p.expand @ fem2d.solve2d(p.at(z))
                         for z in quadrature_nodes(EX3_CONTOUR)[0].tolist()])
        for w in (1, 2, 4):
            ens, _ = solve_ensemble(spec, EX3_CONTOUR, workers=w)
            assert np.array_equal(ens.values, want)

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

    @pytest.mark.parametrize("workers, processes", [(2, 2), (3, 2), (4, 4),
                                                    (8, 4)])
    def test_row_counts_the_processes_that_ran(self, workers, processes):
        # 4 groups in chunks of ceil(4 / workers): 3 workers run as 2
        spec = ProblemSpec("basket2d", BASKET, 16)
        base, _ = solve_ensemble(spec, EX3_CONTOUR, workers=1)
        ens, row = solve_ensemble(spec, EX3_CONTOUR, workers=workers)
        assert row.workers == processes
        assert np.array_equal(ens.values, base.values)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pencil_freed_after_the_call(self, monkeypatch, workers):
        built, pencil = [], ProblemSpec.pencil

        def kept(spec):
            p = pencil(spec)
            built.append(weakref.ref(p))
            return p

        monkeypatch.setattr(ProblemSpec, "pencil", kept)
        spec = ProblemSpec("put1d", MARKET, 40)
        solve_ensemble(spec, C15, workers=workers)
        gc.collect()
        assert built[-1]() is None

        def fail(system):
            raise ValueError("residual guard tripped")

        monkeypatch.setattr(fem1d, "solve", fail)
        with deadline(30), pytest.raises(ValueError):
            solve_ensemble(spec, C15, workers=workers)
        gc.collect()
        assert len(built) == 2 and built[-1]() is None

    def test_pooled_fallback_warnings_reach_the_guard(
            self, monkeypatch, caplog, no_unchecked_lapbs_warnings):
        # each worker logs its group's fallbacks in its own process, out of
        # caplog's reach; the guard's file collects them all.  caplog is
        # taken to mark them checked.
        monkeypatch.setattr(fem2d, "_MAX_STEPS", 1)
        spec = ProblemSpec("basket2d", BASKET, 16)
        with caplog.at_level(logging.WARNING, "lapbs.fem2d"):
            solve_ensemble(spec, EX3_CONTOUR, workers=2)
        assert caplog.records == []
        records = no_unchecked_lapbs_warnings.records()
        assert len(records) == 11   # 15 nodes less the 4 groups' anchors
        for name, message in records:
            assert name == "lapbs.fem2d"
            assert message.endswith("in 1 Krylov steps; solved directly")

    def test_more_workers_than_cores_write_every_row(self):
        # the workers share one row buffer; a row lost or written twice
        # would break the bitwise match, and a hang fails the deadline
        spec = ProblemSpec("put1d", MARKET, 40)
        base, _ = solve_ensemble(spec, C15, workers=1)
        with deadline(60):
            for _ in range(10):
                ens, row = solve_ensemble(spec, C15, workers=4)
                assert row.workers == 4
                assert np.array_equal(ens.values, base.values)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("edges", EDGES, ids=["dirichlet", "transparent"])
    def test_order_is_made_once_at_pencil_build(self, monkeypatch, edges,
                                                workers):
        # a forked worker that rebuilt the order would raise here
        calls = []
        made = fem2d.nested_dissection

        def once(keep):
            calls.append(keep.shape)
            if len(calls) > 1:
                raise AssertionError("nested-dissection order rebuilt")
            return made(keep)

        monkeypatch.setattr(fem2d, "nested_dissection", once)
        spec = ProblemSpec("basket2d", BASKET, 16, edges=edges)
        solve_ensemble(spec, EX3_CONTOUR, workers=workers)
        assert calls == [(17, 17)]

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

    def test_node_error_carries_the_worker_traceback(self, monkeypatch):
        def fail(system):
            raise ValueError("residual guard tripped")

        monkeypatch.setattr(fem1d, "solve", fail)
        with deadline(30), pytest.raises(ValueError) as err:
            solve_ensemble(ProblemSpec("put1d", MARKET, 40), C15, workers=2)
        cause = str(err.value.__cause__)
        assert "in the worker" in cause and "_solve_groups" in cause
        assert "residual guard tripped" in cause

    def test_worker_dying_twice_raises(self, monkeypatch, caplog):
        pids, fork = [], os.fork

        def recorded_fork():
            pid = fork()
            pids.append(pid)
            return pid

        def die(system):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(fem1d, "solve", die)
        with deadline(30), caplog.at_level(logging.WARNING, "lapbs.parallel"):
            with pytest.raises(RuntimeError, match="died twice"):
                solve_ensemble(ProblemSpec("put1d", MARKET, 40), C15,
                               workers=2)
        assert caplog.text.count("retrying once") == 1
        assert len(pids) == 4   # two workers, two attempts, each reaped
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


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
        row = SpeedupRow(workers=4, wall_time=2.5)
        assert (row.workers, row.wall_time) == (4, 2.5)
        assert [f.name for f in fields(row)] == ["workers", "wall_time"]
