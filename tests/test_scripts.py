"""``scripts/bench_kernel.py`` runs its cases in a child interpreter and
reports the keys its docstring documents; the import case's function is
called directly, with fewer interpreters. ``scripts/fit_digest.py`` prints
one digest per seed, the same on every run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _bench(*args: str) -> dict | None:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **{var: "1" for var in THREADS})
    child = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_kernel.py"), *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1]) if child.stdout else None


def test_the_league_case_reports_a_converged_fit():
    out = _bench("--case", "sparse-t400")
    assert set(out) == {
        "teams", "games", "met_pairs", "kernel_median_s", "step_median_s",
        "fit_median_s", "iterations", "cg_iterations", "converged", "peak_rss_mb",
    }
    assert out["teams"] == 400 and out["converged"]


def test_the_venue_case_fits_davidson_and_home_field_on_a_league_with_ties():
    out = _bench("--case", "venue-t2000")
    assert set(out) == {"teams", "games", "met_pairs", "davidson", "home_field", "peak_rss_mb"}
    for model in ("davidson", "home_field"):
        assert set(out[model]) == {"fit_median_s", "iterations", "cg_iterations", "converged"}
        assert out[model]["converged"] and out[model]["cg_iterations"] > 0  # the sparse step
    assert out["teams"] == 2000


def test_the_small_venue_case_times_a_kernel_and_a_step_per_model():
    out = _bench("--case", "venue-t14")
    models = ("rao_kupper", "davidson", "home_field", "david")
    assert set(out) == {"teams", "games", "met_pairs", *models}
    for model in models:
        assert set(out[model]) == {"kernel_median_s", "step_median_s"}
        assert out[model]["kernel_median_s"] > 0 and out[model]["step_median_s"] > 0
    assert (out["teams"], out["games"], out["met_pairs"]) == (14, 68, 34)


def test_the_two_leagues_case_solves_its_steps_to_the_residual():
    out = _bench("--case", "two-leagues")
    assert set(out) == {"0.1", "1e-05", "1e-09", "1e-12"}
    for probe in out.values():
        assert set(probe) == {
            "fit_s", "iterations", "converged", "cg_iterations", "max_cg_iterations",
            "step_residual", "lu_residual",
        }
    assert out["0.1"]["converged"]
    assert out["0.1"]["step_residual"] < 1e-10


def test_the_crowd_case_parses_and_aggregates_its_csv(tmp_path):
    for case, id_bytes in (("crowd-1e6", 4), ("crowd-1e6-long", 24)):
        path = tmp_path / f"{case}.csv"
        _bench("--case", case, "--write-csv", str(path))
        with path.open(encoding="utf-8") as lines:
            next(lines)
            assert len(next(lines).split(",")[0]) == id_bytes
        out = _bench("--case", case, "--csv", str(path))
        assert set(out) == {
            "rows", "teams", "parse_s", "parse_peak_mb", "aggregate_s", "aggregate_peak_mb", "peak_rss_mb",
        }
        assert out["rows"] == 10**6 and out["teams"] == 300
        assert 0 < out["aggregate_peak_mb"] < out["peak_rss_mb"]
        assert 0 < out["parse_peak_mb"] < out["peak_rss_mb"]


def test_the_crowd_cli_case_fits_the_crowd_csv_in_fresh_processes(tmp_path):
    path = tmp_path / "crowd-1e6.csv"
    _bench("--case", "crowd-1e6", "--write-csv", str(path))
    out = _bench("--case", "crowd-1e6-cli", "--csv", str(path))
    assert set(out) == {"processes", "wall_median_s", "exit_code", "peak_rss_mb"}
    assert (out["processes"], out["exit_code"]) == (5, 0)
    assert out["wall_median_s"] > 0 and out["peak_rss_mb"] > 0


def test_the_path_case_times_the_existence_check_on_one_component():
    out = _bench("--case", "path-t400")
    assert set(out) == {"teams", "arcs", "components", "verify_existence_s", "strong_components_s"}
    assert (out["teams"], out["arcs"], out["components"]) == (400, 798, 1)


def test_the_dense_case_times_a_kernel_a_step_a_fit_and_a_replica():
    out = _bench("--case", "dense-t20")
    assert set(out) == {
        "teams", "met_pairs", "iterations", "kernel_median_s", "step_median_s",
        "fit_median_s", "replica_median_s",
    }
    assert (out["teams"], out["met_pairs"]) == (20, 190)
    assert all(out[key] > 0 for key in ("kernel_median_s", "step_median_s", "fit_median_s"))


def test_the_import_case_times_each_import_in_fresh_interpreters(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_kernel", REPO / "scripts" / "bench_kernel.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setenv("PYTHONPATH", str(REPO / "src"))
    out = bench.run_imports(3)  # the full run starts IMPORT_INTERPRETERS
    assert set(out) == {"interpreters", "numpy_s", "btrank_s", "cli_s"}
    assert out["interpreters"] == 3
    assert all(out[key] > 0 for key in ("numpy_s", "btrank_s", "cli_s"))


def test_a_column_holds_the_median_of_its_runs():
    spec = importlib.util.spec_from_file_location("bench_kernel", REPO / "scripts" / "bench_kernel.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    runs = [
        {"fit_s": 3.0, "iterations": 8, "converged": True, "model": {"step_s": 1.0}},
        {"fit_s": 1.0, "iterations": 9, "converged": True, "model": {"step_s": 4.0}},
        {"fit_s": 2.0, "iterations": 7, "converged": True, "model": {"step_s": 2.0}},
        {"fit_s": 9.0, "iterations": 8, "converged": False, "model": {"step_s": 3.0}},
    ]
    assert bench.median_of(runs) == {
        "fit_s": 2.5, "iterations": 8, "converged": [True, True, True, False], "model": {"step_s": 2.5},
    }
    assert bench.median_of(runs[:3])["converged"] is True


def test_each_case_runs_by_its_runner_and_no_other_name_is_a_case(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_kernel", REPO / "scripts" / "bench_kernel.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert sorted(bench.RUNNERS) == sorted([*bench.ALL_CASES, *bench.SCALE_CASES])
    monkeypatch.setattr(sys, "path", list(sys.path))  # --case puts its --src first on the path
    for name in bench.RUNNERS:
        monkeypatch.setitem(bench.RUNNERS, name, lambda case, csv, src: {"case": case, "csv": csv})
        assert bench.main(["--case", name, "--csv", "games.csv"]) == 0
        assert json.loads(capsys.readouterr().out) == {"case": name, "csv": "games.csv"}
    for other in ("sparse-t100", "venue", "crowd-1e6-cli-2", "dense", "imports", ""):
        with pytest.raises(SystemExit) as refused:
            bench.main(["--case", other])
        assert refused.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_the_fit_digest_is_one_sha256_that_repeats():
    script = [sys.executable, str(REPO / "scripts" / "fit_digest.py"), "--seed", "3"]
    runs = [subprocess.run(script, capture_output=True, text=True, check=True) for _ in range(2)]
    digest = runs[0].stdout.strip()
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert runs[1].stdout.strip() == digest
