"""Time the kernel and Newton step on sparse leagues and round-robins; write BENCH_kernel.json.

Usage, from the root of a btrank checkout:

    python scripts/bench_kernel.py [--src DIR] [--label NAME] [--out PATH]
    python scripts/bench_kernel.py --src DIR --label change --src BASE --label parent
    python scripts/bench_kernel.py --case two-leagues [--src DIR]

The last form runs one case, any key of ``RUNNERS``, alone and prints its
JSON line, writing nothing. Every form runs BLAS on one thread: the
script sets ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where they are unset, before numpy loads, so a
case run by hand gives the full run's numbers.

``--src`` must name the ``src`` of a btrank checkout whose kernels return
an ``EdgeHessian`` with ``__array__``, whose solver has ``edge_form``,
``_newton_direction``, ``_pcg`` and ``_coarse_layout`` (which builds the
coarse space those take from the raw labels), and whose connectivity
module labels the raw components with ``raw_components`` and has
``arcs``, ``strong_components`` and ``verify_existence(model, data,
perturbed, scheme)``.

``RUNNERS`` maps each case name to the function that runs it, and every
case is timed by the same helpers. ``median_s`` is the median wall time of
repeated calls, each call's result let go before the next one starts.
``kernel_and_step`` records the median time of one
``Objective.value_gradient_hessian`` at the start point
(``kernel_median_s``) and of one ``solver._newton_direction`` on the system
it returns (``step_median_s``), a fit's first step, timed in turn.
``fits`` records the median wall time of one ``btrank.fit``
(``fit_median_s``) and the last fit's Newton iterations, the
conjugate-gradient iterations of all its steps (``cg_iterations``) and
``converged``.

Each league case is a home-and-away league drawn from a fixed seed: a ring
plus random chords, so every team meets about 6 others, one game at each
venue, and Bradley-Terry outcomes from evenly spaced merits. Its games are
built as records (``GameTable``) and aggregated by ``btrank.aggregate``, so
no t x t array is built for the input. It is fitted with Bradley-Terry
under ``Improved("auto")`` in its own single-threaded interpreter, which
imports btrank from ``--src`` (default: this checkout's ``src``), so that
the peak RSS is the case's own, aggregation included. ``SCALE_CASES``
(``sparse-t100000``, one fit: 1.2 to 1.5 s and a 203 MB peak on a 2-core
x86-64 host since single-team components leave the coarse space at scale,
against 204 s and 1.45 GB before) are run only by ``--case``: a full run
runs every case in ``RUNS`` interpreters per checkout, and an older
checkout would take minutes per run. Per case the column records the
number of games and met pairs, ``kernel_and_step``, ``fits`` and the peak
RSS of the interpreter.

Each case of ``VENUE_CASES`` is a league drawn as above, with a seeded
tenth of its games made ties so that Davidson has ties to read, fitted with
Davidson and with home-field under ``Improved("auto")`` in its own
single-threaded interpreter. Per model it records ``fits``; per case, as a
league case does, its games, met pairs and peak RSS.

The ``venue-t14`` case is the venue league drawn as above at the
14 teams of perfbench's ``extended-models`` workload, where each step is
solved by LU and numpy's per-call costs outweigh the arithmetic. For each
of Rao-Kupper, Davidson, home-field and David (``SMALL_VENUE_MODELS``) it
records ``kernel_and_step`` at the model's start point; per case the number
of games and met pairs.

The ``two-leagues`` case joins two 1000-team leagues by a single win, so the
raw data fail strong connection, and fits them at each epsilon of
``PROBE_EPS``. Per epsilon it records the fit's time, iterations and
convergence, the conjugate-gradient iterations of all its steps and the
largest number a step took (0 where every step was solved by LU), and at
the fitted point the relative residual ``|H d + g| / |g|`` of the solver's
step, an iterative one solved to a relative residual of 1e-12, and of a
dense LU step.

The ``crowd-1e6`` case parses a CSV of ``CROWD_ROWS`` crowd comparisons
among ``CROWD_ITEMS`` items (uniformly random pairs of distinct items,
decided by Bradley-Terry with evenly spaced merits), drawn from a fixed
seed and written to a temporary file by an interpreter of its own before
the case's interpreter starts. For ``btrank.parse_records`` on the file's
text, then ``btrank.aggregate`` on the table, it records the median time of
a call and the tracemalloc peak of one more call (what it allocates over
its input); and the peak RSS of the interpreter, whose only large work is
reading, parsing and aggregating. The ``crowd-1e6-long`` case does the
same on the same records with 24-byte item ids: longer than the 8 bytes a
plain-CSV cell's key holds, so it times the csv module's row loop.

The ``crowd-1e6-cli`` case fits the ``crowd-1e6`` CSV the way a user does:
it starts ``CLI_PROCESSES`` fresh ``python -m btrank.cli fit --data <csv>
--model bt --out <tmp>.json`` processes, one after another, from the case's
own interpreter, which holds no CSV, so that the RSS high-water mark a
spawned process inherits from its spawner stays small. One untimed process
runs first, with ``PYTHONDONTWRITEBYTECODE`` unset, so that the timed ones
read compiled bytecode, as the ``import`` case does. It records the median
wall time of a process (interpreter start, imports, parse, aggregate, fit,
report and exit), its exit code (0 only if every process exited 0) and the
largest peak RSS of the processes (``RUSAGE_CHILDREN``).

Each case of ``PATH_TEAMS`` is a path league of t teams, each team
beating the next one at home, perturbed under ``Improved("auto")`` so that
its win digraph is the path in both directions, strongly connected with
diameter t - 1. It records the median time of
``connectivity.verify_existence`` (the check every fit runs) on a copy of
the dataset that has labelled nothing yet, so that each call labels the
comparison graph, and of ``connectivity.strong_components`` on the
perturbed arcs.

Each case of ``DENSE_TEAMS`` is a full round-robin of t teams (20, 50 and
100, the consistency grid of perfbench's ``small-fits``), four games
per pair, with merits uniform on [1, 2] and the wins drawn from a fixed
seed, as one replica of ``btrank.run_consistency`` draws them, and fitted
with Bradley-Terry under ``Improved("auto")``. Such fits are small and
solved by LU, so fixed per-call costs weigh on them. It records the number
of met pairs, ``kernel_and_step``, the time and iterations of ``fits``, and
the median time of one consistency replica: a ``btrank.run_consistency`` of
``DENSE_REPLICAS`` replicas at this t, divided by that number.

The ``import`` case starts ``IMPORT_INTERPRETERS`` fresh interpreters,
each of which imports ``numpy``, then ``btrank``, then ``btrank.cli``, and
times each of the three imports on its own. It records the median of each:
``btrank_s`` is what ``import btrank`` adds to an interpreter that has
numpy, and ``cli_s`` what the command line adds on top. One untimed
interpreter runs first, with ``PYTHONDONTWRITEBYTECODE`` unset, so that the
timed ones read compiled bytecode, as imports of an installed package do.

The column is stored under ``--label`` in the JSON file, next to any columns
already there, so that two checkouts can be compared on the same cases.
``--src`` and ``--label`` may be given once per checkout. Each case runs
in ``RUNS`` fresh interpreters per checkout, the checkouts taking turns and
the first of them rotating from run to run, and each column holds per key
the median of its runs (the lower median of integers; a value that is not
a number is kept if every run agrees, listed otherwise): on a shared host
one run per column cannot show a difference under 2x.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # one BLAS thread unless asked otherwise, set before numpy loads
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: (teams, seed, kernel evaluations, fits) per league case
CASES = {
    "sparse-t400": (400, 400, 50, 5),
    "sparse-t2000": (2000, 2000, 10, 3),
    "sparse-t4000": (4000, 4000, 5, 2),
    "sparse-t20000": (20000, 20000, 3, 2),
    "sparse-t100000": (100000, 100000, 1, 1),
}
#: the league cases a full run leaves out, run by ``--case`` alone
SCALE_CASES = ("sparse-t100000",)
#: (teams, seed, fits per model) per venue case
VENUE_CASES = {"venue-t2000": (2000, 2000, 3), "venue-t20000": (20000, 20000, 1)}
VENUE_MODELS = ("DAVIDSON", "HOME_FIELD")
#: (teams, seed, kernel evaluations and steps per model) per small venue case
SMALL_VENUE_CASES = {"venue-t14": (14, 14, 3000)}
SMALL_VENUE_MODELS = ("RAO_KUPPER", "DAVIDSON", "HOME_FIELD", "DAVID")
RUNS = 4  # interpreters per case and checkout of a full run; each column holds their medians
PROBE_TEAMS = 1000  # per league of the two-leagues case
PROBE_EPS = (1e-1, 1e-5, 1e-9, 1e-12)
OPPONENTS = 6
CROWD_ROWS, CROWD_ITEMS, CROWD_SEED, CROWD_REPEATS = 10**6, 300, 6, 3
#: the item id format of each crowd case
CROWD_IDS = {"crowd-1e6": "I{:03d}", "crowd-1e6-long": "crowd-item-{:03d}-of-set-AB"}
PATH_TEAMS = {"path-t400": 400, "path-t2000": 2000, "path-t5000": 5000}
PATH_REPEATS = 5
DENSE_TEAMS = {"dense-t20": 20, "dense-t50": 50, "dense-t100": 100}
#: (kernel evaluations and steps, fits, consistency runs) per dense case
DENSE_REPEATS = (300, 100, 15)
DENSE_REPLICAS = 10
IMPORT_INTERPRETERS = 15
CROWD_CLI, CLI_PROCESSES = "crowd-1e6-cli", 5  # it fits the crowd-1e6 CSV
#: run by each interpreter of the import case: the seconds of each import
IMPORT_PROBE = """
import time
marks = [time.perf_counter()]
for name in ("numpy", "btrank", "btrank.cli"):
    __import__(name)
    marks.append(time.perf_counter())
print(*(after - before for before, after in zip(marks, marks[1:])))
"""


def median_s(call, repeats: int) -> float:
    """The median wall time of ``repeats`` calls of ``call``, each call's
    result let go after its clock stops and before the next call starts."""
    seconds = []
    for _ in range(repeats):
        clock = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - clock)
        del result
    return statistics.median(seconds)


def kernel_and_step(objective, coarse, repeats: int) -> dict:
    """The median time of one ``objective.value_gradient_hessian`` at its start
    point and of one ``solver._newton_direction`` on the system it returns with
    the coarse space ``coarse``, a fit's first step, timed in turn ``repeats`` times."""
    from btrank import solver

    x = objective.initial_point()
    kernel, step = [], []
    for _ in range(repeats):
        clock = time.perf_counter()
        _, g, h = objective.value_gradient_hessian(x)
        kernel.append(time.perf_counter() - clock)
        clock = time.perf_counter()
        solver._newton_direction(g, h, coarse, solver._CG_RTOL)
        step.append(time.perf_counter() - clock)
    return {"kernel_median_s": statistics.median(kernel), "step_median_s": statistics.median(step)}


def fits(btrank, spec, data, repeats: int, counts: list) -> dict:
    """The median wall time of ``repeats`` calls of ``btrank.fit(spec, data)``
    and the last fit's iterations, conjugate-gradient iterations (``counts``,
    filled by ``count_cg``, is cleared before each fit) and ``converged``."""
    wall = []
    for _ in range(repeats):
        counts.clear()
        clock = time.perf_counter()
        result = btrank.fit(spec, data)
        wall.append(time.perf_counter() - clock)
    return {
        "fit_median_s": statistics.median(wall),
        "iterations": result.iterations,
        "cg_iterations": sum(counts),
        "converged": result.converged,
    }


def peak_rss_mb(who: str = "RUSAGE_SELF") -> float:
    """The peak RSS in MB of this interpreter, or of its largest waited-for child."""
    import resource

    return resource.getrusage(getattr(resource, who)).ru_maxrss / 1024.0


def bytecode_env() -> dict:
    """This environment without ``PYTHONDONTWRITEBYTECODE``, so that a child
    interpreter writes and reads compiled bytecode as an installed package does."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


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


def venue_league(t: int, seed: int):
    """``league(t, seed)`` with a seeded tenth of its games made ties (2)."""
    home, away, outcome = league(t, seed)
    rng = np.random.default_rng(seed)
    outcome[rng.choice(len(outcome), len(outcome) // 10, replace=False)] = 2
    return home, away, outcome


def dataset(btrank, t: int, games):
    """The Dataset of t teams ``T0 ..`` that ``btrank.aggregate`` builds
    from the ``(home, away, outcome)`` records of ``games``."""
    home, away, outcome = games
    table = btrank.GameTable([f"T{k}" for k in range(t)], home, away, outcome, np.ones(len(home)))
    return btrank.aggregate(table)


def league_size(t: int, games) -> dict:
    """The teams, games and met pairs of the ``(home, away, outcome)`` records ``games``."""
    home, away, _ = games
    met = np.unique(np.minimum(home, away) * t + np.maximum(home, away))
    return {"teams": t, "games": len(home), "met_pairs": len(met)}


def coarse_space(model, data, pairs: int, h):
    """The coarse space that ``solver._newton_direction`` takes for a fit's
    sparse step with Hessian ``h``, or None below ``solver.edge_form``,
    where the step is solved by LU: ``solver._coarse_layout`` of the raw
    components of ``connectivity.raw_components``."""
    from btrank import connectivity, solver

    if not solver.edge_form(data.num_teams, pairs):
        return None
    return solver._coarse_layout(connectivity.raw_components(model, data), h)


def count_cg(solver) -> list:
    """The list to which ``solver._pcg``, wrapped in place, appends the
    conjugate-gradient iterations of each solve from now on."""
    pcg, counts = solver._pcg, []

    def counted(*args):
        step, iterations = pcg(*args)
        counts.append(iterations)
        return step, iterations

    solver._pcg = counted
    return counts


def run_case(name: str) -> dict:
    import btrank
    from btrank import solver
    from btrank.likelihood import Objective
    from btrank.perturbation import perturb

    t, seed, evaluations, repeats = CASES[name]
    games = league(t, seed)
    data = dataset(btrank, t, games)
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved("auto"))
    perturbed = perturb(data, spec.perturbation)
    objective = Objective(spec.model, perturbed)
    start_hessian = objective.value_gradient_hessian(objective.initial_point())[2]
    coarse = coarse_space(spec.model, data, len(perturbed.i), start_hessian)
    timed = kernel_and_step(objective, coarse, evaluations)
    timed.update(fits(btrank, spec, data, repeats, count_cg(solver)))  # wrapped after the steps are timed
    return {**league_size(t, games), **timed, "peak_rss_mb": peak_rss_mb()}


def run_venue(name: str) -> dict:
    import btrank
    from btrank import solver

    t, seed, repeats = VENUE_CASES[name]
    games = venue_league(t, seed)
    data = dataset(btrank, t, games)
    out, counts = league_size(t, games), count_cg(solver)
    for model in VENUE_MODELS:
        spec = btrank.ModelSpec(btrank.Model[model], btrank.Improved("auto"))
        out[model.lower()] = fits(btrank, spec, data, repeats, counts)
    return {**out, "peak_rss_mb": peak_rss_mb()}


def run_small_venue(name: str) -> dict:
    import btrank
    from btrank.likelihood import Objective
    from btrank.perturbation import perturb

    t, seed, evaluations = SMALL_VENUE_CASES[name]
    games = venue_league(t, seed)
    data = dataset(btrank, t, games)
    out = league_size(t, games)
    for model in SMALL_VENUE_MODELS:
        objective = Objective(btrank.Model[model], perturb(data, btrank.Improved("auto")))
        out[model.lower()] = kernel_and_step(objective, None, evaluations)  # steps by LU
    return out


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
    counts = count_cg(solver)
    out = {}
    for eps in PROBE_EPS:
        spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(eps))
        counts.clear()
        clock = time.perf_counter()
        result = btrank.fit(spec, data)
        wall = time.perf_counter() - clock
        total, most = sum(counts), max(counts, default=0)
        perturbed = perturb(data, spec.perturbation)
        objective = likelihood.Objective(spec.model, perturbed)
        _, g, h = objective.value_gradient_hessian(result.beta[1:])
        coarse = coarse_space(spec.model, data, len(perturbed.i), h)
        d = solver._newton_direction(g, h, coarse, 1e-12)[0]
        dense = np.asarray(h)
        norm = np.linalg.norm(g)
        out[f"{eps:g}"] = {
            "fit_s": wall,
            "iterations": result.iterations,
            "converged": result.converged,
            "cg_iterations": total,
            "max_cg_iterations": most,
            "step_residual": float(np.linalg.norm(dense @ d + g) / norm),
            "lu_residual": float(np.linalg.norm(dense @ np.linalg.solve(dense, -g) + g) / norm),
        }
    return out


def run_path(t: int) -> dict:
    import btrank
    from btrank.connectivity import arcs, strong_components, verify_existence
    from btrank.perturbation import perturb

    first = np.arange(t - 1)
    data = dataset(btrank, t, (first, first + 1, np.zeros(t - 1, dtype=int)))
    model, scheme = btrank.Model.BRADLEY_TERRY, btrank.Improved("auto")
    perturbed = perturb(data, scheme)
    edges = arcs(perturbed.i, perturbed.j, perturbed.wins)
    # copies that have labelled nothing yet, built before the clock starts
    fresh = iter([btrank.Dataset(data.teams, data.counts, data.venueless) for _ in range(PATH_REPEATS)])
    check = median_s(lambda: verify_existence(model, next(fresh), perturbed, scheme), PATH_REPEATS)
    label = median_s(lambda: strong_components(t, *edges), PATH_REPEATS)
    return {
        "teams": t,
        "arcs": len(edges[0]),
        "components": len(np.unique(strong_components(t, *edges))),
        "verify_existence_s": check,
        "strong_components_s": label,
    }


def run_dense(t: int) -> dict:
    import btrank
    from btrank.likelihood import Objective
    from btrank.perturbation import perturb

    rng = np.random.default_rng(t)
    u = rng.uniform(1.0, 2.0, t)
    i, j = np.triu_indices(t, k=1)
    wins = rng.binomial(4, u[i] / (u[i] + u[j]))
    a = np.zeros((t, t))
    a[i, j], a[j, i] = wins, 4 - wins
    data = btrank.venue_free_dataset([f"T{k}" for k in range(t)], a)
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved("auto"))
    evaluations, repeats, runs = DENSE_REPEATS
    timed = kernel_and_step(Objective(spec.model, perturb(data, spec.perturbation)), None, evaluations)
    fit = fits(btrank, spec, data, repeats, [])  # every step by LU: no CG to count
    configs = iter([btrank.ConsistencyConfig((t,), DENSE_REPLICAS, seed=seed) for seed in range(runs)])
    return {
        "teams": t,
        "met_pairs": len(i),
        "iterations": fit["iterations"],
        **timed,
        "fit_median_s": fit["fit_median_s"],
        "replica_median_s": median_s(lambda: btrank.run_consistency(next(configs)), runs) / DENSE_REPLICAS,
    }


def crowd_csv(ids: str) -> str:
    """A CSV of ``CROWD_ROWS`` crowd comparisons among ``CROWD_ITEMS`` items
    ``ids.format(0) ..``: uniformly random pairs of distinct items, the
    first one listed as home, decided by Bradley-Terry with evenly spaced
    merits in [-2, 2]."""
    rng = np.random.default_rng(CROWD_SEED)
    beta = np.linspace(-2.0, 2.0, CROWD_ITEMS)
    first = rng.integers(0, CROWD_ITEMS, CROWD_ROWS)
    second = (first + rng.integers(1, CROWD_ITEMS, CROWD_ROWS)) % CROWD_ITEMS
    first_wins = rng.random(CROWD_ROWS) < 1.0 / (1.0 + np.exp(beta[second] - beta[first]))
    names = [ids.format(k) for k in range(CROWD_ITEMS)]
    lines = [
        f"{names[h]},{names[a]},{'home_win' if won else 'away_win'}"
        for h, a, won in zip(first.tolist(), second.tolist(), first_wins.tolist())
    ]
    return "home,away,outcome\n" + "\n".join(lines) + "\n"


def run_crowd(path: str) -> dict:
    import btrank

    text = Path(path).read_text(encoding="utf-8")  # as ``btrank fit --data`` reads it
    parse_s = median_s(lambda: btrank.parse_records(text, "csv"), CROWD_REPEATS)
    tracemalloc.start()
    table = btrank.parse_records(text, "csv")
    parse_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    aggregate_s = median_s(lambda: btrank.aggregate(table), CROWD_REPEATS)
    tracemalloc.start()
    data = btrank.aggregate(table)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "rows": len(table),
        "teams": data.num_teams,
        "parse_s": parse_s,
        "parse_peak_mb": parse_peak / 2**20,
        "aggregate_s": aggregate_s,
        "aggregate_peak_mb": peak / 2**20,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_cli(path: str, src: str) -> dict:
    env, codes = dict(bytecode_env(), PYTHONPATH=src), []
    with tempfile.TemporaryDirectory() as scratch:
        report = str(Path(scratch) / "fit.json")
        argv = [sys.executable, "-m", "btrank.cli", "fit", "--data", path, "--model", "bt", "--out", report]
        def process():
            codes.append(subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode)
        process()  # untimed: it writes the bytecode cache
        wall = median_s(process, CLI_PROCESSES)
    return {
        "processes": CLI_PROCESSES,
        "wall_median_s": wall,
        "exit_code": next((code for code in codes if code), 0),
        "peak_rss_mb": peak_rss_mb("RUSAGE_CHILDREN"),
    }


def run_imports(count: int) -> dict:
    seconds, probe = [], [sys.executable, "-c", IMPORT_PROBE]
    for _ in range(count + 1):  # the first writes the bytecode cache
        child = subprocess.run(probe, env=bytecode_env(), capture_output=True, text=True, check=True)
        seconds.append([float(value) for value in child.stdout.split()])
    numpy_s, btrank_s, cli_s = map(statistics.median, zip(*seconds[1:]))
    return {"interpreters": count, "numpy_s": numpy_s, "btrank_s": btrank_s, "cli_s": cli_s}


def median_of(values: list):
    """Per key, the median of the runs' values of a case: the lower median
    of integers, and a value that is not a number kept where all agree."""
    first = values[0]
    if isinstance(first, dict):
        return {key: median_of([value[key] for value in values]) for key in first}
    if isinstance(first, bool) or not isinstance(first, (int, float)):
        return first if all(value == first for value in values) else values
    return statistics.median_low(values) if isinstance(first, int) else statistics.median(values)


#: per case, in the order a full run runs them, its runner: f(case name, --csv, src of btrank)
RUNNERS = {
    **dict.fromkeys(CASES, lambda name, csv, src: run_case(name)),
    **dict.fromkeys(VENUE_CASES, lambda name, csv, src: run_venue(name)),
    **dict.fromkeys(SMALL_VENUE_CASES, lambda name, csv, src: run_small_venue(name)),
    "two-leagues": lambda name, csv, src: run_probe(),
    **dict.fromkeys(CROWD_IDS, lambda name, csv, src: run_crowd(csv)),
    CROWD_CLI: lambda name, csv, src: run_cli(csv, src),
    **dict.fromkeys(PATH_TEAMS, lambda name, csv, src: run_path(PATH_TEAMS[name])),
    **dict.fromkeys(DENSE_TEAMS, lambda name, csv, src: run_dense(DENSE_TEAMS[name])),
    "import": lambda name, csv, src: run_imports(IMPORT_INTERPRETERS),
}
ALL_CASES = [name for name in RUNNERS if name not in SCALE_CASES]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", help="directory holding btrank (repeatable)")
    parser.add_argument("--label", action="append", help="column name of each --src in the JSON file")
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernel.json"))
    parser.add_argument("--case", choices=RUNNERS, help=argparse.SUPPRESS)
    parser.add_argument("--csv", help=argparse.SUPPRESS)  # the input of a crowd case
    parser.add_argument("--write-csv", help=argparse.SUPPRESS)  # the input of --case
    args = parser.parse_args(argv)
    sources, labels = args.src or [str(ROOT / "src")], args.label or ["change"]
    if len(sources) != len(labels):
        parser.error("give one --label per --src")
    if args.write_csv:
        Path(args.write_csv).write_text(crowd_csv(CROWD_IDS[args.case]), encoding="utf-8")
        return 0
    if args.case:  # the child interpreter of one case
        sys.path.insert(0, sources[0])
        print(json.dumps(RUNNERS[args.case](args.case, args.csv, sources[0])))
        return 0
    columns = {label: {} for label in labels}
    with tempfile.TemporaryDirectory() as scratch:
        crowd = {name: str(Path(scratch) / f"{name}.csv") for name in CROWD_IDS}
        for name, path in crowd.items():
            # Written by a child: a case's peak RSS starts at this process's
            # own high-water mark, which a spawned interpreter inherits on Linux.
            subprocess.run([sys.executable, __file__, "--case", name, "--write-csv", path], check=True)
        crowd[CROWD_CLI] = crowd["crowd-1e6"]
        checkouts = list(zip(sources, labels))
        for name in ALL_CASES:
            runs = {label: [] for label in labels}
            for run in range(RUNS):
                turn = run % len(checkouts)  # each checkout goes first in turn
                for src, label in checkouts[turn:] + checkouts[:turn]:
                    case = ["--case", name, "--src", src, "--csv", crowd.get(name, "")]
                    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in THREAD_VARS})
                    child = subprocess.run(
                        [sys.executable, __file__, *case],
                        env=env, capture_output=True, text=True, check=True,
                    )
                    runs[label].append(json.loads(child.stdout.splitlines()[-1]))
            for label in labels:
                columns[label][name] = median_of(runs[label])
                print(label, name, columns[label][name], flush=True)
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("columns", {}).update(columns)
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
