"""Workload passes, or one timed import, in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the workload, the seed, the mode (``import``, ``passes`` or
``check-cli``), the seconds to measure, whether to trace, and where to write
the result JSON. The interpreter imports btrank before anything else, so
``import_s`` is the cost a fresh ``import btrank`` pays. Inputs are generated
after that and before the first pass. Passes repeat until the seconds have
gone by; each pass's outputs are checked after its clock stops, with the
tracer removed. A first, warm-up pass is checked but neither timed nor
counted in the seconds. With tracing on, untraced and traced passes
alternate after it. The machine-speed gauge (``gauge.py``) samples after
every pass, and each pass record carries its raw ``wall_s`` and its
``corrected_s``.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import sys
import time
from pathlib import Path

EPSILON_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
BUNDLED = ("load_four_teams", "load_five_teams", "load_ten_teams")
CONSISTENCY_GRID = (20, 50, 100)
CONSISTENCY_REPLICAS = 50
MAP_SHAPE = 2.0
EXTENDED_MODELS = ("rao-kupper", "davidson", "home-field", "david")


class Operations:
    """Attempted operations of one pass and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name, fn, *args):
        """Call ``fn``; an exception counts the operation as failed."""
        try:
            return fn(*args)
        except Exception as exc:  # the program under test may raise anything
            self.checked(name, [f"raised {exc!r}"])
            return None

    def checked(self, name, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"{name}: {f}" for f in failures)


def _ingest(btrank, text, check):
    dataset = btrank.aggregate(btrank.parse_records(text))
    witness = check(dataset)
    if witness is not None:
        raise RuntimeError(f"generated data fail an existence condition: {witness}")
    return dataset


def _fit_and_rank(btrank, spec, dataset):
    result = btrank.fit(spec, dataset)
    return result, btrank.extract_ranking(result)


def _map_and_rank(btrank, dataset):
    result = btrank.fit_map_em(dataset, btrank.MapPriorSpec(MAP_SHAPE))
    return result, btrank.extract_ranking(result)


def pass_sparse_league(btrank, inputs, ops):
    dataset = ops.run("ingest", _ingest, btrank, inputs["csv"], btrank.check_condition_b)
    if dataset is None:
        return []
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved("auto"))
    planted = inputs["planted"]
    return [
        ("bt", dataset, spec, ops.run("fit bt", _fit_and_rank, btrank, spec, dataset), planted),
        ("map-em", dataset, None, ops.run("fit map-em", _map_and_rank, btrank, dataset), planted),
    ]


def pass_extended_models(btrank, inputs, ops):
    dataset = ops.run("ingest", _ingest, btrank, inputs["csv"], btrank.check_condition_c)
    if dataset is None:
        return []
    fits = []
    for model in EXTENDED_MODELS:
        spec = btrank.ModelSpec(btrank.Model(model), btrank.Improved("auto"))
        outcome = ops.run(f"fit {model}", _fit_and_rank, btrank, spec, dataset)
        fits.append((model, dataset, spec, outcome, inputs["planted"]))
    return fits


def pass_small_fits(btrank, inputs, ops):
    config = btrank.ConsistencyConfig(
        t_grid=CONSISTENCY_GRID, replicas=CONSISTENCY_REPLICAS, seed=inputs["seed"]
    )
    inputs["consistency"] = ops.run("consistency", btrank.run_consistency, config)
    fits = []
    for loader in BUNDLED:
        dataset = ops.run(loader, getattr(btrank.datasets, loader))
        spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(1.0))
        sweep = ops.run(f"sweep {loader}", btrank.sweep_epsilon, spec, dataset, EPSILON_GRID)
        if sweep is None:
            continue
        # Only ten_teams has an intended order (B1 best to B10 worst).
        planted = inputs["planted"] if loader == "load_ten_teams" else None
        for entry in sweep.entries:
            entry_spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(entry.epsilon))
            outcome = (entry.fit, entry.ranking)
            fits.append((f"{loader} eps={entry.epsilon:g}", dataset, entry_spec, outcome, planted))
    return fits


def pass_crowd_cli(btrank, inputs, ops):
    argv = ["fit", "--data", inputs["csv_path"], "--model", "bt", "--out", inputs["out_path"]]
    inputs["exit_code"] = ops.run("cli", btrank.cli.main, argv)
    return []


PASSES = {
    "sparse-league": pass_sparse_league,
    "extended-models": pass_extended_models,
    "small-fits": pass_small_fits,
    "crowd-cli": pass_crowd_cli,
}


def _prepare(workload, job):
    import workloads

    inputs = {"seed": job["seed"]}
    if workload in ("sparse-league", "extended-models"):
        games = workloads.build(workload, job["seed"])
        inputs["csv"] = games.csv_text()
        inputs["planted"] = dict(zip(games.teams, games.beta.tolist()))
    elif workload == "crowd-cli":
        inputs["csv_path"] = job["csv_path"]
        inputs["out_path"] = str(Path(job["csv_path"]).with_suffix(".fit.json"))
        inputs["games"] = workloads.build(workload, job["seed"])
    elif workload == "small-fits":
        inputs["planted"] = {f"B{k}": float(-k) for k in range(1, 11)}
    return inputs


def _check_pass(btrank, workload, inputs, fits, ops):
    """Check every output of one pass; returns the largest recomputed
    gradient sup-norm, or None when no fit could be checked."""
    import checks

    grads = []
    for name, dataset, spec, outcome, planted in fits:
        if outcome is None:
            continue  # the fit raised and is already counted as failed
        result, ranking = outcome
        if spec is None:
            check, args = checks.check_map_fit, (MAP_SHAPE, result, ranking, planted, workload)
        else:
            check, args = checks.check_fit, (spec, result, ranking, planted, workload)
        checked = ops.run(f"check {name}", check, btrank, dataset, *args)
        if checked is not None:
            ops.checked(name, checked[0])
            grads.append(checked[1])
    if inputs.get("consistency") is not None:
        ops.checked("consistency", checks.consistency_ok(inputs["consistency"]))
    if inputs.get("exit_code") is not None:
        grads += _check_cli_outputs(btrank, inputs["games"], [inputs["out_path"]], ops, [inputs["exit_code"]])
        Path(inputs["out_path"]).unlink(missing_ok=True)
    grads = [g for g in grads if math.isfinite(g)]
    return max(grads) if grads else None


def _check_cli_outputs(btrank, games, out_paths, ops, exit_codes):
    import checks

    counts = (*games.counts(), games.teams)
    planted = dict(zip(games.teams, games.beta.tolist()))
    grads = []
    for path, code in zip(out_paths, exit_codes):
        if code != 0:
            ops.checked("cli", [f"exit code {code}"])
            continue
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            ops.checked("cli", [f"no parseable JSON output: {exc!r}"])
            continue
        checked = ops.run("check cli", checks.check_cli_payload, btrank, payload, counts, planted)
        if checked is not None:
            ops.checked("cli", checked[0])
            grads.append(checked[1])
    return grads


def _one_pass(btrank, workload, inputs, job, traced, index):
    """Run one pass, traced or not; returns its record, its operations and
    the fits to check."""
    from tracer import Tracer, layer_shares, summarize

    ops = Operations()
    tracer = Tracer(f"{job['run_id']}-pass{index}") if traced else None
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter()
    try:
        with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
            fits = PASSES[workload](btrank, inputs, ops)
    finally:
        wall_s = time.perf_counter() - clock
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(str(Path(job["trace_dir"]) / f"{tracer.run_id}.json"))
    record = {"traced": traced, "wall_s": wall_s}
    if tracer is not None:
        record["layers"] = summarize(tracer.spans)
        record["shares"] = layer_shares(tracer.spans)
        record["skipped"] = tracer.skipped
    return record, ops, fits


def run_passes(btrank, job) -> dict:
    from gauge import Gauge

    workload = job["workload"]
    inputs = _prepare(workload, job)
    records = []
    attempted = failed = 0
    failures: list[str] = []
    gauge = Gauge()
    before = None
    start = time.perf_counter()
    while before is None or not records or time.perf_counter() - start < job["seconds"]:
        for traced in (False, True) if job["trace"] and before is not None else (False,):
            record, ops, fits = _one_pass(btrank, workload, inputs, job, traced, len(records))
            after = gauge.around(record["wall_s"])
            record["grad_sup"] = _check_pass(btrank, workload, inputs, fits, ops)
            del fits
            if before is not None:  # the first pass only warms up
                record["blocks"] = (before, after)
                records.append(record)
            else:
                start = time.perf_counter()
            before = after
            attempted += ops.attempted
            failed += ops.failed
            failures += ops.failures
    for record in records:
        record["slowdown"] = gauge.slowdown(*record.pop("blocks"))
        record["corrected_s"] = record["wall_s"] / record["slowdown"]
    return {"passes": records, "attempted": attempted, "failed": failed, "failures": failures}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    workload = job["workload"]
    start = time.perf_counter()
    import btrank

    if workload == "crowd-cli":
        import btrank.cli
    import_s = time.perf_counter() - start
    src = Path(job["src"]).resolve()
    if src not in Path(btrank.__file__).resolve().parents:
        print(f"btrank was imported from {btrank.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"import_s": import_s}
    if job["mode"] == "passes":
        result.update(run_passes(btrank, job))
    elif job["mode"] == "check-cli":
        ops = Operations()
        import workloads

        games = workloads.build(workload, job["seed"])
        grads = _check_cli_outputs(btrank, games, job["out_paths"], ops, job["exit_codes"])
        grads = [g for g in grads if math.isfinite(g)]
        result.update(grad_sup=max(grads) if grads else None, attempted=ops.attempted,
                      failed=ops.failed, failures=ops.failures)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
