import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lapbs import cli, experiments

REPO = Path(__file__).resolve().parents[1]
REFERENCE_CACHE = str(REPO / ".cache" / "ex3_reference.npz")


def small_ex1_config(out):
    cfg = experiments.default_config("ex1")
    cfg.meshes = [10, 20, 40]
    cfg.out = str(out)
    return cfg


class TestConfig:
    def test_defaults_per_example(self):
        assert experiments.default_config("ex1").L == 200.0
        assert experiments.default_config("ex2").L == 50.0
        assert experiments.default_config("ex3").meshes == [16, 32, 64, 128]

    def test_load_config_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"example": "ex1", "meshes": [10, 20],
                                    "workers": 2}))
        cfg = experiments.load_config(str(path))
        assert cfg.example == "ex1"
        assert cfg.meshes == [10, 20]
        assert cfg.workers == 2
        assert cfg.L == 200.0  # untouched default

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"example": "ex1", "worker": 4}))
        with pytest.raises(ValueError, match="worker"):
            experiments.load_config(str(path))

    def test_json_nan_strike_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"meshes": [10, 20],
                                    "strike": float("nan")}))
        assert "NaN" in path.read_text()  # json writes and reads it
        with pytest.raises(ValueError, match="strike"):
            cli.main(["run", "--example", "ex1", "--config", str(path),
                      "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, key", [
        ({"gamma": 67.38, "nu": 62.09, "s": 0.4213, "tau": 0.04556, "n": 15,
          "taus": 9.9}, "taus"),
        ({"gamma": 67.38, "nu": 62.09, "s": 0.4213, "n": 15}, "tau"),
    ], ids=["unknown_key", "missing_key"])
    def test_bad_contour_row_rejected_at_load(self, tmp_path, row, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"meshes": [10, 20], "contours": [row]}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="contour row") as err:
            cli.main(["run", "--example", "ex2", "--config", str(path),
                      "--out", str(out)])
        assert f"'{key}'" in str(err.value) and "'n': 15" in str(err.value)
        assert not out.exists()

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_missing_n15_row_writes_nothing(self, tmp_path, example):
        gamma, nu, tau = experiments.TABLE3_ROWS[12]
        row = {"gamma": gamma, "nu": nu, "s": experiments.CONTOUR_SLOPE,
               "tau": tau, "n": 12}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"meshes": [10, 20], "contours": [row]}))
        out = tmp_path / "out"
        with pytest.raises(KeyError, match="n=15"):
            cli.main(["run", "--example", example, "--config", str(path),
                      "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("example", ["ex1", "ex2", "ex3"])
    def test_empty_meshes_writes_nothing(self, tmp_path, monkeypatch,
                                         example):
        def loaded(cfg, rebuild=False):
            raise AssertionError("reference loaded before the config check")

        monkeypatch.setattr(experiments, "reference_solution", loaded)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"meshes": []}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="meshes"):
            cli.main(["run", "--example", example, "--config", str(path),
                      "--out", str(out)])
        assert not out.exists()

    def test_no_table7_mesh_writes_nothing(self, tmp_path, monkeypatch):
        # Table 7 runs only the meshes of at most 64 on [0,150]^2
        def loaded(cfg, rebuild=False):
            raise AssertionError("reference loaded before the config check")

        monkeypatch.setattr(experiments, "reference_solution", loaded)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"meshes": [128]}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="at most 64"):
            cli.main(["run", "--example", "ex3", "--config", str(path),
                      "--out", str(out)])
        assert not out.exists()

    def test_contour_lookup(self):
        cfg = experiments.default_config("ex1")
        c = cfg.contour(15)
        assert (c.gamma, c.nu, c.n) == (67.38, 62.09, 15)
        with pytest.raises(KeyError):
            cfg.contour(7)

    def test_inadmissible_contour_aborts_run(self, tmp_path):
        cfg = small_ex1_config(tmp_path)
        # crossing gamma - nu = 0 sits below the kappa bound
        cfg.contours = [replace(c, gamma=c.nu) for c in cfg.contours]
        with pytest.raises(ValueError):
            experiments.run_example1(cfg)


class TestExample1Harness:
    def test_outputs_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        rep = experiments.run_example1(small_ex1_config(out_a))
        experiments.run_example1(small_ex1_config(out_b))
        for name in ("table1.csv", "table2.csv", "table3.csv",
                     "manifest.json"):
            assert (out_a / name).exists()
        for name in ("table1.csv", "table2.csv", "table3.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert len(rep["table1"]) == 3
        assert len(rep["table3"]) == 7

    def test_csv_is_crlf_terminated(self, tmp_path):
        experiments.run_example1(small_ex1_config(tmp_path))
        raw = (tmp_path / "table2.csv").read_bytes()
        lines = raw.split(b"\r\n")
        assert raw.endswith(b"\r\n")
        assert all(b"\n" not in line for line in lines)
        header = lines[0].decode().split(",")
        assert header[0] == "Number of z"

    def test_manifest_contents(self, tmp_path):
        experiments.run_example1(small_ex1_config(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["example"] == "ex1"
        assert manifest["max_imag_residual"] <= 1e-10 * 50.0


    def test_one_imag_residual_per_inversion(self, tmp_path):
        # Table 2 inverts once per mesh, Table 3 once per contour
        cfg = small_ex1_config(tmp_path)
        rep = experiments.run_example1(cfg)
        residuals = rep["imag_residuals"]
        assert len(residuals) == len(cfg.meshes) + len(cfg.contours)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["max_imag_residual"] == max(residuals)


class TestExample3Harness:
    def test_one_imag_residual_per_inversion(self, tmp_path):
        # Table 6 and each of Table 7's two edge sets invert at 16^2;
        # Table 8 only times its solves
        if not os.path.exists(REFERENCE_CACHE):
            pytest.skip("reference cache not built yet")
        cfg = experiments.default_config("ex3")
        cfg.reference_cache = REFERENCE_CACHE
        cfg.meshes, cfg.worker_sweep, cfg.out = [16], [1], str(tmp_path)
        rep = experiments.run_example3(cfg)
        residuals = rep["imag_residuals"]
        assert len(residuals) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["max_imag_residual"] == max(residuals)

    def test_table8_and_fig2(self, tmp_path):
        if not os.path.exists(REFERENCE_CACHE):
            pytest.skip("reference cache not built yet")
        cfg = experiments.default_config("ex3")
        cfg.reference_cache = REFERENCE_CACHE
        cfg.meshes, cfg.worker_sweep, cfg.out = [16], [1, 2], str(tmp_path)
        rep = experiments.run_example3(cfg)
        lines = (tmp_path / "table8.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"Number of CPUs,Time(sec),Speedup"
        assert lines[-1] == b""
        rows = [line.decode().split(",") for line in lines[1:-1]]
        t1 = rep["table8"][0]["wall_time"]
        assert [int(w) for w, _, _ in rows] == cfg.worker_sweep
        assert rows[0][2] == "1.00"
        assert [s for _, _, s in rows] == [
            f"{t1 / row['wall_time']:.2f}" for row in rep["table8"]]
        fig2 = (tmp_path / "fig2.dat").read_text().splitlines()
        data = [line for line in fig2 if line and not line.startswith("#")]
        assert len(data) == 17 * 17


class TestOracles:
    def test_run_oracles_all_pass(self):
        ok, report = experiments.run_oracles()
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert ok, failed
        assert len(report["checks"]) >= 8


class TestCli:
    def test_oracle_command(self, capsys):
        assert cli.main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_run_command_ex1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"meshes": [10, 20]}))
        rc = cli.main(["run", "--example", "ex1",
                       "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "table1.csv").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--workers", "0"], {}),
        ([], {"workers": 0}),
        ([], {"worker_sweep": [1, 0]}),
        ([], {"workers": 2.5}),
        ([], {"workers": True}),
        ([], {"worker_sweep": [2, 1]}),
        ([], {"worker_sweep": []}),
    ], ids=["flag", "config", "worker_sweep", "fractional", "bool",
            "sweep_not_from_1", "empty_sweep"])
    def test_worker_count_below_one_writes_nothing(self, tmp_path, flags,
                                                   config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(config, meshes=[10, 20])))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="worker counts"):
            cli.main(["run", "--example", "ex1", "--config", str(cfg_path),
                      "--out", str(out), *flags])
        assert not out.exists() or not any(out.iterdir())

    def test_reference_command_uses_cache(self, capsys):
        if not os.path.exists(REFERENCE_CACHE):
            pytest.skip("reference cache not built yet")
        rc = cli.main(["reference", "--cache", REFERENCE_CACHE])
        assert rc == 0

    def test_reference_cache_keyed_by_basket_data(self, tmp_path,
                                                  monkeypatch):
        if not os.path.exists(REFERENCE_CACHE):
            pytest.skip("reference cache not built yet")
        cfg = experiments.default_config("ex3")
        cfg.reference_cache = REFERENCE_CACHE
        values, _ = experiments.reference_solution(cfg)  # built for defaults
        cfg.a12, cfg.out = 0.0, str(tmp_path / "out")
        with pytest.raises(ValueError, match=r"\['a12'\] differ"):
            experiments.run_example3(cfg)
        assert not (tmp_path / "out").exists()

        # a rebuilt cache stores its data, and answers only to that data
        monkeypatch.setattr(experiments.cn, "march2d",
                            lambda mesh, basket, config: values)
        cfg.reference_cache = str(tmp_path / "ref.npz")
        experiments.reference_solution(cfg, rebuild=True)
        np.testing.assert_array_equal(
            experiments.reference_solution(cfg)[0], values)
        cfg.a12, cfg.maturity = -0.018, 0.5
        with pytest.raises(ValueError, match=r"\['a12', 'maturity'\]"):
            experiments.reference_solution(cfg)

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_bad_example_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "--example", "ex9"])
