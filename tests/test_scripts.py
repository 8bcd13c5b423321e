"""``scripts/bench_kernel.py`` runs its cases in a child interpreter and
reports the keys its docstring documents; the import case's function is
called directly, with fewer interpreters."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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
        "fit_median_s", "iterations", "converged", "peak_rss_mb",
    }
    assert out["teams"] == 400 and out["converged"]


def test_the_two_leagues_case_solves_its_steps_to_the_residual():
    out = _bench("--case", "two-leagues")
    assert set(out) == {"0.1", "1e-05", "1e-09", "1e-12"}
    for probe in out.values():
        assert set(probe) == {
            "fit_s", "iterations", "converged", "max_cg_iterations",
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


def test_the_path_case_times_the_existence_check_on_one_component():
    out = _bench("--case", "path-t400")
    assert set(out) == {"teams", "arcs", "components", "verify_existence_s", "strong_components_s"}
    assert (out["teams"], out["arcs"], out["components"]) == (400, 798, 1)


def test_the_import_case_times_each_import_in_fresh_interpreters(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_kernel", REPO / "scripts" / "bench_kernel.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setenv("PYTHONPATH", str(REPO / "src"))
    out = bench.run_imports(3)  # the full run starts IMPORT_INTERPRETERS
    assert set(out) == {"interpreters", "numpy_s", "btrank_s", "cli_s"}
    assert out["interpreters"] == 3
    assert all(out[key] > 0 for key in ("numpy_s", "btrank_s", "cli_s"))
