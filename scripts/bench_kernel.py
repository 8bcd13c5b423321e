"""Time the Bradley-Terry kernel and Newton step on sparse leagues; write BENCH_kernel.json.

Usage, from the root of a btrank checkout:

    python scripts/bench_kernel.py [--src DIR] [--label NAME] [--out PATH]

Each league case is a home-and-away league drawn from a fixed seed: a ring
plus random chords, so every team meets about 6 others, and Bradley-Terry
outcomes from evenly spaced merits. It is fitted with Bradley-Terry under
``Improved("auto")`` in its own single-threaded interpreter, which imports
btrank from ``--src`` (default: this checkout's ``src``), so that the peak
RSS is the case's own. Per case the column records the median time of one
``Objective.value_gradient_hessian`` at the start point, the median time of
the solver's own Newton step on the system it returns
(``solver._newton_direction`` where the solver has it, else the
``np.linalg.solve`` the solver took), the median wall time of one
``btrank.fit`` and the peak RSS of the interpreter.

The ``two-leagues`` case joins two 1000-team leagues by a single win, so the
raw data fail strong connection, and fits them at each epsilon of
``PROBE_EPS``. Per epsilon it records the fit's time, iterations and
convergence, the largest number of conjugate-gradient iterations a step of
the fit took (0 where every step was solved by LU), and at the fitted point
the relative residual ``|(-H) d - g| / |g|`` of the solver's step, an
iterative one solved to a relative residual of 1e-12, and of a dense LU
step.

The column is stored under ``--label`` in the JSON file, next to any columns
already there, so that two checkouts can be compared on the same cases.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: (teams, seed, kernel evaluations, fits) per league case
CASES = {
    "sparse-t400": (400, 400, 50, 5),
    "sparse-t2000": (2000, 2000, 10, 3),
    "sparse-t4000": (4000, 4000, 5, 2),
}
PROBE_TEAMS = 1000  # per league of the two-leagues case
PROBE_EPS = (1e-1, 1e-5, 1e-9, 1e-12)
OPPONENTS = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def league(t: int, seed: int):
    """Venue-split win counts of a home-and-away league with about
    ``OPPONENTS`` opponents per team."""
    rng = np.random.default_rng(seed)
    ring = np.arange(t)
    chords = rng.integers(0, t, (2, t * (OPPONENTS - 2) // 2))
    i = np.concatenate([ring, chords[0]])
    j = np.concatenate([(ring + 1) % t, chords[1]])
    pairs = np.unique(np.sort(np.stack([i[i != j], j[i != j]]), axis=0), axis=1)
    beta = rng.permutation(np.linspace(-2.0, 2.0, t))
    a_home, a_away = np.zeros((t, t)), np.zeros((t, t))
    for host, visitor in (pairs, pairs[::-1]):  # one game at each venue
        host_wins = rng.random(host.size) < 1.0 / (1.0 + np.exp(beta[visitor] - beta[host]))
        a_home[host[host_wins], visitor[host_wins]] = 1.0
        a_away[visitor[~host_wins], host[~host_wins]] = 1.0
    return a_home, a_away


def _step(solver, g, h, labels, rtol=None):
    """The solver's own Newton step on ``-H d = g``, an iterative one solved
    to the relative residual ``rtol`` (default: that of a fit's first step)."""
    if hasattr(solver, "_newton_direction"):
        return solver._newton_direction(g, h, labels, rtol or solver._CG_RTOL)[0]
    return np.linalg.solve(-h, g)


def _labels(solver, model, dataset, edges):
    if hasattr(solver, "_raw_components"):
        return solver._raw_components(model, dataset, edges)
    return None


def run_case(name: str) -> dict:
    import resource

    import btrank
    from btrank import solver
    from btrank.likelihood import Objective
    from btrank.perturbation import perturb

    t, seed, evaluations, fits = CASES[name]
    a_home, a_away = league(t, seed)
    dataset = btrank.venue_dataset([f"T{k}" for k in range(t)], a_home, a_away)
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved("auto"))
    perturbed = perturb(dataset, spec.perturbation)
    objective = Objective(spec.model, perturbed)
    labels = _labels(solver, spec.model, dataset, perturbed.edges)
    x = objective.initial_point()
    kernel, step = [], []
    for _ in range(evaluations):
        clock = time.perf_counter()
        _, g, h = objective.value_gradient_hessian(x)
        kernel.append(time.perf_counter() - clock)
        clock = time.perf_counter()
        _step(solver, g, h, labels)
        step.append(time.perf_counter() - clock)
    wall = []
    for _ in range(fits):
        clock = time.perf_counter()
        result = btrank.fit(spec, dataset)
        wall.append(time.perf_counter() - clock)
    return {
        "teams": t,
        "met_pairs": int(((a_home + a_away.T) > 0).sum()) // 2,
        "kernel_median_s": statistics.median(kernel),
        "step_median_s": statistics.median(step),
        "fit_median_s": statistics.median(wall),
        "iterations": result.iterations,
        "converged": result.converged,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def two_leagues(t: int):
    """Venue-split counts of two t-team leagues joined by one win."""
    a_home, a_away = np.zeros((2, 2 * t, 2 * t))
    for k, block in enumerate((slice(0, t), slice(t, 2 * t))):
        a_home[block, block], a_away[block, block] = league(t, k + 1)
    a_home[0, t] = 1.0
    return a_home, a_away


def run_probe() -> dict:
    import btrank
    from btrank import likelihood, solver
    from btrank.perturbation import perturb

    dataset = btrank.venue_dataset(
        [f"T{k}" for k in range(2 * PROBE_TEAMS)], *two_leagues(PROBE_TEAMS)
    )
    pcg = getattr(solver, "_pcg", None)
    counts = []

    def counted(*args):
        step, iterations = pcg(*args)
        counts.append(iterations)
        return step, iterations

    if pcg is not None:
        solver._pcg = counted
    out = {}
    for eps in PROBE_EPS:
        spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(eps))
        counts.clear()
        clock = time.perf_counter()
        result = btrank.fit(spec, dataset)
        wall = time.perf_counter() - clock
        most = max(counts, default=0)
        perturbed = perturb(dataset, spec.perturbation)
        objective = likelihood.Objective(spec.model, perturbed)
        _, g, h = objective.value_gradient_hessian(result.beta[1:])
        d = _step(solver, g, h, _labels(solver, spec.model, dataset, perturbed.edges), 1e-12)
        dense = h if isinstance(h, np.ndarray) else _dense(likelihood, objective, result.beta[1:])
        norm = np.linalg.norm(g)
        out[f"{eps:g}"] = {
            "fit_s": wall,
            "iterations": result.iterations,
            "converged": result.converged,
            "max_cg_iterations": most,
            "step_residual": float(np.linalg.norm(-dense @ d - g) / norm),
            "lu_residual": float(np.linalg.norm(-dense @ np.linalg.solve(-dense, g) - g) / norm),
        }
    return out


def _dense(likelihood, objective, x):
    """The dense Hessian at x, from the kernels' dense form."""
    rule = likelihood.edge_form
    likelihood.edge_form = lambda t, pairs: False
    try:
        return objective.value_gradient_hessian(x)[2]
    finally:
        likelihood.edge_form = rule


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding btrank")
    parser.add_argument("--label", default="change", help="column name in the JSON file")
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernel.json"))
    parser.add_argument("--case", choices=[*CASES, "two-leagues"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:  # the child interpreter of one case
        print(json.dumps(run_probe() if args.case == "two-leagues" else run_case(args.case)))
        return 0
    env = dict(os.environ, PYTHONPATH=args.src, **{var: "1" for var in THREAD_VARS})
    column = {}
    for name in [*CASES, "two-leagues"]:
        child = subprocess.run(
            [sys.executable, __file__, "--case", name],
            env=env, capture_output=True, text=True, check=True,
        )
        column[name] = json.loads(child.stdout.splitlines()[-1])
        print(name, column[name], flush=True)
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("columns", {})[args.label] = column
    bench["machine"] = {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": 1,
    }
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
