"""Command-line driver: subcommands, exit codes, file outputs, determinism."""

import csv
import json
import os

import numpy as np
import pytest
import scipy

import sepcert as sc
from sepcert import cli
from sepcert.cli import main

from oracles import OPENBLAS_SETTERS


def run(argv):
    return main([str(a) for a in argv])


def test_generate_werner(tmp_path, capsys):
    assert run(["generate", "werner", "--lambda", "0", "--out", tmp_path]) == 0
    path = tmp_path / "werner_lam0.json"
    ds = sc.read_dataset(path)
    assert sorted(v for _, v in ds.two_items()) == [-1.0, -1.0, -1.0]
    manifest = json.loads((tmp_path / "werner_lam0.manifest.json").read_text())
    assert manifest["config"]["noise"] == 0.0
    assert "timestamp" in manifest
    assert (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)
    assert manifest["solve_blas_threads"] == (1 if OPENBLAS_SETTERS else None)


def test_generate_quench_t0(tmp_path):
    assert run(["generate", "quench-1d", "--n", 8, "--time", 0, "--out", tmp_path]) == 0
    ds = sc.read_dataset(tmp_path / "quench1d_n8_t0.json")
    assert abs(ds.one(0, "Z") + 1.0) < 1e-12


def test_generate_thermal(tmp_path):
    assert run(["generate", "thermal", "--model", "ising", "--n", 4, "--g", 1,
                "--temp", 0.1, "--out", tmp_path]) == 0
    ds = sc.read_dataset(tmp_path / "thermal_ising_n4_g1_T0.1.json")
    assert ds.n_sites == 4


def test_generate_product_random(tmp_path):
    assert run(["generate", "product-random", "--n", 5, "--seed", 9,
                "--out", tmp_path]) == 0
    ds = sc.read_dataset(tmp_path / "product_n5_seed9.json")
    assert ds.n_entries() == 15 + 9 * 10


def test_certify_werner_exit_code_and_witness(tmp_path, capsys):
    run(["generate", "werner", "--lambda", "0", "--out", tmp_path])
    code = run(["certify", tmp_path / "werner_lam0.json", "--out", tmp_path])
    assert code == 3  # entangled
    out = capsys.readouterr().out
    assert "entangled" in out
    sol = json.loads((tmp_path / "werner_lam0.solution.json").read_text())
    assert abs(sol["lambda_star"] - 2.0 / 3.0) <= 1e-6
    assert 0.0 <= sol["pinfeas"] <= 1e-8 and 0.0 <= sol["dinfeas"] <= 1e-8
    assert sol["solver_blocks"] == [1, 1, 2, 2, 2]
    assert sol["solver_dims"] == [8]  # the five blocks packed into one
    assert 0.0 <= sol["dual_feas_residual"] <= 1e-8
    assert 0.0 <= sol["strong_duality_residual"] <= 1e-8
    wit = sc.read_witness(tmp_path / "werner_lam0.witness.json")
    assert abs(wit.separable_bound - 1.0 / 3.0) <= 1e-6


def test_certify_product_exit_zero(tmp_path):
    run(["generate", "product-random", "--n", 4, "--seed", 2, "--out", tmp_path])
    code = run(["certify", tmp_path / "product_n4_seed2.json", "--out", tmp_path])
    assert code == 0
    assert not (tmp_path / "product_n4_seed2.witness.json").exists()


def test_certify_quench_witness_label_groups(tmp_path):
    run(["generate", "quench-1d", "--n", 8, "--time", 2, "--out", tmp_path])
    code = run(["certify", tmp_path / "quench1d_n8_t2.json", "--out", tmp_path])
    assert code == 3
    wit = sc.read_witness(tmp_path / "quench1d_n8_t2.witness.json")
    kinds = {lbl[:2] for lbl in wit.coefficients}
    assert kinds == {"Z[", "XX", "YY", "ZZ"}
    # transverse coefficients come in equal XX/YY pairs
    for lbl, w in wit.coefficients.items():
        if lbl.startswith("XX"):
            assert abs(w - wit.coefficients["YY" + lbl[2:]]) <= 1e-6


def test_certify_missing_file(tmp_path):
    assert run(["certify", tmp_path / "nope.json"]) == 2


def test_certify_dump_layout_and_trace(tmp_path, capsys):
    run(["generate", "werner", "--lambda", "0.2", "--out", tmp_path])
    capsys.readouterr()
    code = run(["certify", tmp_path / "werner_lam0.2.json", "--out", tmp_path,
                "--dump-layout", "--solver-trace"])
    assert code == 3
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("1")  # layout grid first
    with open(tmp_path / "werner_lam0.2.trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and "relgap" in rows[0]
    # Every row but the converged last one times its Schur build.
    assert all(float(row["schur_s"]) >= 0.0 for row in rows[:-1])


def test_certify_forced_scheme(tmp_path):
    run(["generate", "quench-1d", "--n", 6, "--time", 1, "--out", tmp_path])
    a = run(["certify", tmp_path / "quench1d_n6_t1.json", "--out", tmp_path,
             "--scheme", "general"])
    b = run(["certify", tmp_path / "quench1d_n6_t1.json", "--out", tmp_path,
             "--scheme", "transverse"])
    assert a == b == 3


def test_certify_forced_scheme_checked(tmp_path, capsys):
    run(["generate", "product-random", "--n", 4, "--seed", 3, "--out", tmp_path])
    capsys.readouterr()
    code = run(["certify", tmp_path / "product_n4_seed3.json", "--out", tmp_path,
                "--scheme", "axis"])
    assert code == 2
    assert "scheme axis maps" in capsys.readouterr().err
    assert not (tmp_path / "product_n4_seed3.solution.json").exists()


@pytest.mark.parametrize("value, bound", [("NaN", "1.0"), ("-1.0", "Infinity")])
def test_witness_eval_rejects_non_finite_numbers(tmp_path, capsys, value, bound):
    # Python's json reads the NaN and Infinity literals as floats
    run(["generate", "werner", "--lambda", "0", "--out", tmp_path])
    path = tmp_path / "w.json"
    path.write_text('{"format_version": 1, "coefficients": [{"label": "XX[0,1]", '
                    f'"value": {value}}}], "bound": {bound}}}', encoding="utf-8")
    capsys.readouterr()
    assert run(["witness", "eval", path, tmp_path / "werner_lam0.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "finite" in err


def test_witness_eval_roundtrip(tmp_path, capsys):
    run(["generate", "werner", "--lambda", "0", "--out", tmp_path])
    run(["certify", tmp_path / "werner_lam0.json", "--out", tmp_path])
    code = run(["witness", "eval", tmp_path / "werner_lam0.witness.json",
                tmp_path / "werner_lam0.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "violated=true" in out


def test_oracle_product_search(tmp_path, capsys):
    run(["generate", "werner", "--lambda", "0", "--out", tmp_path])
    run(["certify", tmp_path / "werner_lam0.json", "--out", tmp_path])
    code = run(["oracle", "product-search", tmp_path / "werner_lam0.witness.json",
                "--n", 2, "--restarts", 64, "--out", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "product_search.json").read_text())
    assert abs(doc["best_value"] - doc["bound"]) <= 1e-4


def test_sweep_quench(tmp_path):
    code = run(["sweep", "quench-1d", "--n", 6, "--grid", "0.5,1.0",
                "--workers", 1, "--out", tmp_path])
    assert code == 0
    with open(tmp_path / "sweep_quench1d.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["parameter"] for r in rows] == ["0.5", "1.0"]
    assert all(r["status"] == "optimal" for r in rows)
    assert all(float(r["lambda_star"]) > 0 for r in rows)
    assert all(r["concurrence_robustness"] != "" for r in rows)
    assert rows[0]["bipartite_witness"] == ""  # n=6 not divisible by 4


def test_sweep_thermal_heisenberg(tmp_path):
    code = run(["sweep", "thermal", "--model", "heisenberg", "--n", 4,
                "--grid", "0.3,5.0", "--workers", 1, "--out", tmp_path])
    assert code == 0
    with open(tmp_path / "sweep_thermal.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["structure_witness"]) < 2.0 < float(rows[1]["structure_witness"])
    assert all(r["concurrence_robustness"] == "" for r in rows)
    assert all(r["bipartite_witness"] != "" for r in rows)


@pytest.mark.parametrize("grid", ["", "1,abc", "1,nan"], ids=["empty", "word", "nan"])
def test_sweep_empty_grid(tmp_path, capsys, grid):
    out = tmp_path / "out"
    assert run(["sweep", "quench-1d", "--n", 6, "--grid", grid, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_worker_pool(tmp_path):
    code = run(["sweep", "quench-1d", "--n", 6, "--grid", "0.5,1.0,1.5",
                "--workers", 2, "--out", tmp_path])
    assert code == 0
    with open(tmp_path / "sweep_quench1d.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["parameter"] for r in rows] == ["0.5", "1.0", "1.5"]


def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    started = []

    class SerialPool:
        """Records the pool size asked for and runs the points in process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    for grid, want in (("0.5,1.0", [2]), ("0.5", [])):
        started.clear()
        assert run(["sweep", "quench-1d", "--n", 6, "--grid", grid,
                    "--workers", 4, "--out", tmp_path]) == 0
        assert started == want
        with open(tmp_path / "sweep_quench1d.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == grid.count(",") + 1


def test_rerun_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        run(["generate", "product-random", "--n", 4, "--seed", 5, "--out", out])
        run(["certify", out / "product_n4_seed5.json", "--out", out])
    ds_a = (out1 / "product_n4_seed5.json").read_text()
    ds_b = (out2 / "product_n4_seed5.json").read_text()
    assert ds_a == ds_b
    sol_a = (out1 / "product_n4_seed5.solution.json").read_text()
    sol_b = (out2 / "product_n4_seed5.solution.json").read_text()
    assert sol_a == sol_b
    # manifests differ only in the timestamp field
    ma = json.loads((out1 / "product_n4_seed5.manifest.json").read_text())
    mb = json.loads((out2 / "product_n4_seed5.manifest.json").read_text())
    for doc in (ma, mb):
        doc.pop("timestamp")
        doc.pop("outputs")
        doc["config"].pop("out")
        doc["config"].pop("dataset")
    assert ma == mb


@pytest.mark.parametrize("argv", [
    ["generate", "werner"],
    ["generate", "werner", "--lambda", 0, "--level", 2],
    ["sweep", "quench-1d", "--n", 6, "--grid", 1, "--scheme", "rotation"],
    ["witness", "eval", "w.json", "d.json", "--tol", 5],
    ["certify", "d.json", "--tol", 0],
    ["certify", "d.json", "--max-iter", 0],
    ["sweep", "quench-1d", "--n", 6, "--grid", 1, "--tol", 0],
    ["sweep", "thermal", "--model", "ising", "--n", 4, "--grid", 1, "--max-iter", 0],
    ["oracle", "product-search", "w.json", "--n", 2, "--restarts", 0],
    ["oracle", "product-search", "w.json", "--n", 2, "--restarts", -3],
    ["sweep", "quench-1d", "--n", 6, "--grid", 1, "--workers", 0],
    ["sweep", "thermal", "--model", "ising", "--n", 4, "--grid", 1, "--workers", -3],
    ["certify", "d.json", "--tol", "nan"],
    ["certify", "d.json", "--tol", "inf"],
    ["sweep", "quench-1d", "--n", 6, "--grid", 1, "--tol", "nan"],
    ["generate", "thermal", "--model", "ising", "--n", 4, "--temp", 1, "--g", "nan"],
    ["sweep", "thermal", "--model", "ising", "--n", 4, "--grid", 1, "--g", "inf"],
], ids=["missing-lambda", "generate-level", "sweep-scheme", "witness-eval-tol",
        "certify-tol-zero", "certify-max-iter-zero", "sweep-tol-zero",
        "sweep-max-iter-zero", "oracle-restarts-zero", "oracle-restarts-negative",
        "sweep-workers-zero", "sweep-workers-negative", "certify-tol-nan",
        "certify-tol-inf", "sweep-tol-nan", "generate-thermal-g-nan",
        "sweep-thermal-g-inf"])
def test_usage_error_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("temp", ["nan", "inf"])
def test_generate_thermal_rejects_non_finite_temperature(tmp_path, capsys, temp):
    argv = ["generate", "thermal", "--model", "ising", "--n", 4, "--temp", temp,
            "--out", tmp_path]
    assert run(argv) == 2
    assert "temperature must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    certify = parser.parse_args(["certify", "d.json"])
    assert (certify.tol, certify.max_iter) == (sc.SolverOptions().tol,
                                               sc.SolverOptions().max_iter)
    search = parser.parse_args(["oracle", "product-search", "w.json", "--n", "2"])
    assert search.restarts == sc.seporacle.DEFAULT_RESTARTS


def test_entry_point_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "certify" in capsys.readouterr().out
