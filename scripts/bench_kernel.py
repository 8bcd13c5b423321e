"""Time the Bradley-Terry kernel and Newton step on sparse leagues; write BENCH_kernel.json.

Usage, from the root of a btrank checkout:

    python scripts/bench_kernel.py [--src DIR] [--label NAME] [--out PATH]

Each league case is a home-and-away league drawn from a fixed seed: a ring
plus random chords, so every team meets about 6 others, one game at each
venue, and Bradley-Terry outcomes from evenly spaced merits. Its games are
built as records (``GameTable``) and aggregated by ``btrank.aggregate``, so
no t x t array is built for the input. It is fitted with Bradley-Terry
under ``Improved("auto")`` in its own single-threaded interpreter, which
imports btrank from ``--src`` (default: this checkout's ``src``), so that
the peak RSS is the case's own, aggregation included. Per case the column
records the number of games and met pairs, the median time of one
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
Each case named by ``--skip`` is recorded as not run, with the reason given
(for a checkout that would need a t x t array the host cannot hold).
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
    "sparse-t20000": (20000, 20000, 3, 2),
}
PROBE_TEAMS = 1000  # per league of the two-leagues case
PROBE_EPS = (1e-1, 1e-5, 1e-9, 1e-12)
OPPONENTS = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def league(t: int, seed: int, offset: int = 0):
    """``(home, away, outcome)`` per game of a home-and-away league of teams
    ``offset .. offset + t - 1`` with about ``OPPONENTS`` opponents per
    team; the outcome is a host win (0) or a visitor win (1)."""
    rng = np.random.default_rng(seed)
    ring = np.arange(t)
    chords = rng.integers(0, t, (2, t * (OPPONENTS - 2) // 2))
    i = np.concatenate([ring, chords[0]])
    j = np.concatenate([(ring + 1) % t, chords[1]])
    pairs = np.unique(np.sort(np.stack([i[i != j], j[i != j]]), axis=0), axis=1)
    beta = rng.permutation(np.linspace(-2.0, 2.0, t))
    home, away, outcome = [], [], []
    for host, visitor in (pairs, pairs[::-1]):  # one game at each venue
        host_wins = rng.random(host.size) < 1.0 / (1.0 + np.exp(beta[visitor] - beta[host]))
        home.append(host + offset)
        away.append(visitor + offset)
        outcome.append(np.where(host_wins, 0, 1))
    return tuple(np.concatenate(column) for column in (home, away, outcome))


def dataset(btrank, t: int, games):
    """The Dataset of t teams ``T0 ..`` that ``btrank.aggregate`` builds
    from the ``(home, away, outcome)`` records of ``games``."""
    home, away, outcome = games
    table = btrank.GameTable([f"T{k}" for k in range(t)], home, away, outcome, np.ones(len(home)))
    return btrank.aggregate(table)


def _step(solver, g, h, labels, rtol=None):
    """The solver's own Newton step on ``-H d = g``, an iterative one solved
    to the relative residual ``rtol`` (default: that of a fit's first step)."""
    if hasattr(solver, "_newton_direction"):
        return solver._newton_direction(g, h, labels, rtol or solver._CG_RTOL)[0]
    return np.linalg.solve(-h, g)


def _labels(solver, model, data, perturbed):
    """The coarse-space labels the solver's own fit uses, where it has them;
    a checkout with dense count fields passes the edge list, not its size."""
    if not hasattr(solver, "_raw_components"):
        return None
    if hasattr(perturbed, "edges"):
        return solver._raw_components(model, data, perturbed.edges)
    return solver._raw_components(model, data, len(perturbed.i))


def run_case(name: str) -> dict:
    import resource

    import btrank
    from btrank import solver
    from btrank.likelihood import Objective
    from btrank.perturbation import perturb

    t, seed, evaluations, fits = CASES[name]
    games = league(t, seed)
    data = dataset(btrank, t, games)
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved("auto"))
    perturbed = perturb(data, spec.perturbation)
    objective = Objective(spec.model, perturbed)
    labels = _labels(solver, spec.model, data, perturbed)
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
        result = btrank.fit(spec, data)
        wall.append(time.perf_counter() - clock)
    home, away, _ = games
    return {
        "teams": t,
        "games": len(home),
        "met_pairs": len(np.unique(np.minimum(home, away) * t + np.maximum(home, away))),
        "kernel_median_s": statistics.median(kernel),
        "step_median_s": statistics.median(step),
        "fit_median_s": statistics.median(wall),
        "iterations": result.iterations,
        "converged": result.converged,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def two_leagues(t: int):
    """``(home, away, outcome)`` of two t-team leagues joined by one win of
    team 0, hosting, over team t."""
    first, second = league(t, 1), league(t, 2, offset=t)
    return tuple(np.concatenate([a, b, [c]]) for a, b, c in zip(first, second, (0, t, 0)))


def run_probe() -> dict:
    import btrank
    from btrank import likelihood, solver
    from btrank.perturbation import perturb

    data = dataset(btrank, 2 * PROBE_TEAMS, two_leagues(PROBE_TEAMS))
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
        result = btrank.fit(spec, data)
        wall = time.perf_counter() - clock
        most = max(counts, default=0)
        perturbed = perturb(data, spec.perturbation)
        objective = likelihood.Objective(spec.model, perturbed)
        _, g, h = objective.value_gradient_hessian(result.beta[1:])
        d = _step(solver, g, h, _labels(solver, spec.model, data, perturbed), 1e-12)
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
    parser.add_argument(
        "--skip", action="append", default=[], choices=[*CASES, "two-leagues"],
        help="a case to record as not run (repeatable)",
    )
    parser.add_argument("--reason", default="skipped", help="why the --skip cases were not run")
    parser.add_argument("--case", choices=[*CASES, "two-leagues"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:  # the child interpreter of one case
        print(json.dumps(run_probe() if args.case == "two-leagues" else run_case(args.case)))
        return 0
    env = dict(os.environ, PYTHONPATH=args.src, **{var: "1" for var in THREAD_VARS})
    column = {}
    for name in [*CASES, "two-leagues"]:
        if name in args.skip:
            column[name] = f"not run: {args.reason}"
            continue
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
