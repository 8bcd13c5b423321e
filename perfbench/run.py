"""Run one benchmark workload and print its metrics as JSON on the last line.

Usage, from the root of a btrank checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh single-threaded interpreters, one child process
at a time, with ``PYTHONPATH`` pointing at the checkout's ``src``. Set-up is
timed in five fresh interpreters that only import btrank. After one
untimed warm-up pass, the passes repeat for ``--seconds`` (at least one
pass): in one worker interpreter, or, for ``crowd-cli``, as one
``python -m btrank.cli fit`` subprocess each. The
run and its children share one CPU, and every timed import and pass is
corrected for host contention by the machine-speed gauge (``gauge.py``)
sampled right before and after it. Every metric is the median over them.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sparse-league", "crowd-cli", "extended-models", "small-fits")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
#: Children still running this long after the start are killed, so a run
#: ends well inside three minutes.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "grad_sup": "games",
}
PER_LAYER_UNITS = {
    "setup.import_scipy_s": "s",
    "setup.import_btrank_self_s": "s",
    "ingestion.parse_s": "s",
    "ingestion.aggregate_s": "s",
    "ingestion.records": "count",
    "cli.self_s": "s",
    "likelihood.eval_s": "s",
    "likelihood.evals": "count",
    "likelihood.evals_per_iter": "ratio",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.fits": "count",
    "solver.polish_s": "s",
    "solver.polish_calls": "count",
    "perturbation.perturb_s": "s",
    "perturbation.calls": "count",
    "connectivity.check_s": "s",
    "connectivity.calls": "count",
    "types.dataset_s": "s",
    "types.calls": "count",
    "ranking.self_s": "s",
    "simulation.self_s": "s",
    "trace.overhead_s": "s",
    "unconverged_ratio": "ratio",
    "failed_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Run:
    """Child processes of one benchmark run, all inside the checkout."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.traces = root / ".perfbench_work" / "traces"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.children = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(self.src)
        self.env = env
        from gauge import PROCESS_KERNEL_S, Gauge, process_kernel

        self.gauge = Gauge(process_kernel, PROCESS_KERNEL_S)

    def child(self, argv: list[str]) -> tuple[float, float, str, int]:
        """Run one child to completion; returns (seconds, peak RSS in MB,
        stderr text, exit code). Raises BenchError if it overruns, or if it
        fails and is not the program's own CLI."""
        self.children += 1
        stem = self.work / f"child{self.children}"
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            pid = os.posix_spawnp(argv[0], argv, self.env, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ])
            try:
                while True:
                    done, status, usage = os.wait4(pid, os.WNOHANG)
                    if done:
                        break
                    if time.monotonic() > self.deadline:
                        raise BenchError(f"{argv[1:]} overran the run's time limit")
                    time.sleep(0.002)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                raise
            elapsed = time.perf_counter() - start
        stderr = Path(f"{stem}.err").read_text(encoding="utf-8", errors="replace")
        code = os.waitstatus_to_exitcode(status)
        if code != 0 and argv[1:3] != ["-m", "btrank.cli"]:
            raise BenchError(f"{argv[1:]} exited with {code}:\n{stderr[-2000:]}")
        return elapsed, usage.ru_maxrss / 1024.0, stderr, code

    def worker(self, mode: str, **extra) -> dict:
        tag = f"{mode}{self.children + 1}"
        job = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "mode": mode,
            "trace": False,
            "src": str(self.src),
            "run_id": f"{self.workload}-seed{self.seed}",
            "result": str(self.work / f"{tag}.result.json"),
            "trace_dir": str(self.traces),
            **extra,
        }
        job_path = self.work / f"{tag}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        self.child([sys.executable, str(HERE / "worker.py"), str(job_path)])
        return json.loads(Path(job["result"]).read_text(encoding="utf-8"))

    def setup_times(self) -> list[tuple[float, int, int]]:
        """Seconds of fresh ``import btrank`` runs, each with the gauge
        blocks sampled before and after it."""
        times = []
        before = self.gauge.around(0.0)
        for _ in range(SETUP_SAMPLES):
            seconds = self.worker("import")["import_s"]
            after = self.gauge.around(seconds)
            times.append((seconds, before, after))
            before = after
        return times

    def crowd_csv(self) -> Path:
        import workloads

        path = self.work / "crowd.csv"
        path.write_text(workloads.build("crowd-cli", self.seed).csv_text(), encoding="utf-8")
        return path

    def importtime(self) -> tuple[float, float]:
        """Self import time of scipy and of btrank's own modules, in seconds,
        from ``-X importtime``."""
        modules = "btrank, btrank.cli" if self.workload == "crowd-cli" else "btrank"
        _, _, stderr, _ = self.child([sys.executable, "-X", "importtime", "-c", f"import {modules}"])
        scipy_us = btrank_us = 0
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            top = name.strip().split(".", 1)[0]
            if top == "scipy":
                scipy_us += int(self_us)
            elif top == "btrank":
                btrank_us += int(self_us)
        return scipy_us / 1e6, btrank_us / 1e6


def _median(values):
    return statistics.median(values) if values else None


def _rounded(values) -> list[float]:
    return [round(v, 4) for v in values]


def _metrics(values: dict, units: dict) -> dict:
    missing = [name for name in units if values.get(name) is None]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def _cli_passes(run: Run) -> dict:
    """Repeated ``btrank fit`` subprocesses, then one child that checks
    every output they wrote."""
    csv_path = run.crowd_csv()
    passes, outs, codes = [], [], []
    before = None
    start = time.perf_counter()
    while before is None or not passes or time.perf_counter() - start < run.seconds:
        out = run.work / f"fit{len(outs)}.json"
        argv = [sys.executable, "-m", "btrank.cli", "fit", "--data", str(csv_path),
                "--model", "bt", "--out", str(out)]
        elapsed, rss, _, code = run.child(argv)
        after = run.gauge.around(elapsed)
        if before is not None:  # the first run only warms up
            passes.append({"wall_s": elapsed, "peak_rss_mb": rss, "blocks": (before, after)})
        else:
            start = time.perf_counter()
        before = after
        outs.append(str(out))
        codes.append(code)
    checked = run.worker("check-cli", out_paths=outs, exit_codes=codes)
    for record in passes:
        record["grad_sup"] = checked["grad_sup"]
        record["slowdown"] = run.gauge.slowdown(*record.pop("blocks"))
        record["corrected_s"] = record["wall_s"] / record["slowdown"]
    return {**checked, "passes": passes}


def run_end_to_end(run: Run) -> dict:
    setup = run.setup_times()
    if run.workload == "crowd-cli":
        result = _cli_passes(run)
        rss = [p["peak_rss_mb"] for p in result["passes"]]
    else:
        result = run.worker("passes")
        rss = [result["peak_rss_mb"]]
    passes = result["passes"]
    walls = [p["corrected_s"] for p in passes]
    imports = [run.gauge.corrected(*sample) for sample in setup]
    values = {
        "wall_s": _median(walls),
        "setup_s": _median(imports),
        "peak_rss_mb": _median(rss),
        "grad_sup": _median([p["grad_sup"] for p in passes if p["grad_sup"] is not None]),
    }
    print(f"perfbench: {run.workload} seed {run.seed}: {len(passes)} passes; measured seconds "
          f"{_rounded([p['wall_s'] for p in passes])}; slowdowns "
          f"{_rounded([p['slowdown'] for p in passes])}; corrected {_rounded(walls)}")
    print(f"perfbench: set-up measured seconds {_rounded([s for s, _, _ in setup])}; "
          f"corrected {_rounded(imports)}")
    return {**result, "metrics": _metrics(values, END_TO_END_UNITS)}


def run_traced(run: Run) -> dict:
    extra = {"csv_path": str(run.crowd_csv())} if run.workload == "crowd-cli" else {}
    result = run.worker("passes", trace=True, **extra)
    imports = [run.importtime() for _ in range(IMPORTTIME_SAMPLES)]
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    values = {}
    for name in PER_LAYER_UNITS:
        samples = [p["layers"][name] for p in traced if name in p["layers"]]
        if samples:
            values[name] = _median(samples)
    values["setup.import_scipy_s"] = _median([s for s, _ in imports])
    values["setup.import_btrank_self_s"] = _median([b for _, b in imports])
    values["trace.overhead_s"] = (
        _median([p["corrected_s"] for p in traced]) - _median([p["corrected_s"] for p in plain])
    )
    values["failed_ratio"] = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    shares = traced[0]["shares"]
    top = next((layer for layer in shares if layer != "bench"), "bench")
    print(f"perfbench: {run.workload} seed {run.seed}: largest self-time layer {top}; shares "
          + ", ".join(f"{layer} {share:.3f}" for layer, share in shares.items()))
    if traced[0]["skipped"]:
        print(f"perfbench: trace targets not found (skipped): {traced[0]['skipped']}")
    return {**result, "metrics": _metrics(values, PER_LAYER_UNITS)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "btrank" / "__init__.py").is_file():
        print("perfbench: no btrank source at ./src/btrank; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"  # for the children, and before numpy is imported here
    sys.path.insert(0, str(HERE))
    # The gauge must sample the CPU the measured work runs on; children
    # inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    run = Run(root, args.workload, args.seed, args.seconds)
    run.work.mkdir(parents=True)
    run.traces.mkdir(parents=True, exist_ok=True)
    try:
        result = (run_traced if args.trace else run_end_to_end)(run)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for failure in result["failures"][:20]:
        print(f"perfbench: check failed: {failure}")
    if result["attempted"] < 1:
        print("perfbench: no operation was attempted", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
