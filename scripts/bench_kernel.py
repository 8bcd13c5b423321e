"""Time the Bradley-Terry likelihood kernel on sparse leagues; write BENCH_kernel.json.

Usage, from the root of a btrank checkout:

    python scripts/bench_kernel.py [--src DIR] [--label NAME] [--out PATH]

Each case is a home-and-away league drawn from a fixed seed: a ring plus
random chords, so every team meets about 6 others, and Bradley-Terry
outcomes from evenly spaced merits. It is fitted with Bradley-Terry under
``Improved("auto")`` in its own single-threaded interpreter, which imports
btrank from ``--src`` (default: this checkout's ``src``), so that the peak
RSS is the case's own. Per case the column records the median time of one
``Objective.value_gradient_hessian`` at the start point, the median time of
one LU solve of the Newton system it returns (``np.linalg.solve``, as the
solver takes it), the median wall time of one ``btrank.fit`` and the peak
RSS of the interpreter. The column is stored under ``--label`` in the JSON
file, next to any columns already there, so that two checkouts can be
compared on the same cases.
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
#: (teams, seed, kernel evaluations, fits) per case
CASES = {"sparse-t400": (400, 400, 50, 5), "sparse-t2000": (2000, 2000, 10, 3)}
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


def run_case(name: str) -> dict:
    import resource

    import btrank
    from btrank.likelihood import Objective
    from btrank.perturbation import perturb

    t, seed, evaluations, fits = CASES[name]
    a_home, a_away = league(t, seed)
    dataset = btrank.venue_dataset([f"T{k}" for k in range(t)], a_home, a_away)
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved("auto"))
    objective = Objective(spec.model, perturb(dataset, spec.perturbation))
    x = objective.initial_point()
    kernel, solve = [], []
    for _ in range(evaluations):
        clock = time.perf_counter()
        _, g, h = objective.value_gradient_hessian(x)
        kernel.append(time.perf_counter() - clock)
        clock = time.perf_counter()
        np.linalg.solve(-h, g)
        solve.append(time.perf_counter() - clock)
    wall = []
    for _ in range(fits):
        clock = time.perf_counter()
        result = btrank.fit(spec, dataset)
        wall.append(time.perf_counter() - clock)
    return {
        "teams": t,
        "met_pairs": int(((a_home + a_away.T) > 0).sum()) // 2,
        "kernel_median_s": statistics.median(kernel),
        "lu_solve_median_s": statistics.median(solve),
        "fit_median_s": statistics.median(wall),
        "iterations": result.iterations,
        "converged": result.converged,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding btrank")
    parser.add_argument("--label", default="change", help="column name in the JSON file")
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernel.json"))
    parser.add_argument("--case", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:  # the child interpreter of one case
        print(json.dumps(run_case(args.case)))
        return 0
    env = dict(os.environ, PYTHONPATH=args.src, **{var: "1" for var in THREAD_VARS})
    column = {}
    for name in CASES:
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
