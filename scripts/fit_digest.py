"""Print one SHA-256 over the fit outputs of every perfbench workload.

Usage, from the root of a btrank checkout:

    python scripts/fit_digest.py [--src DIR] [--seed N]

It runs one pass of each workload of ``perfbench/worker.py`` on the inputs
``perfbench/workloads.py`` builds for ``--seed`` (default 1), with btrank
imported from ``--src`` (default: this checkout's ``src``), and hashes, in
order: every fit's ``beta``, ``gradient_sup_norm``, ``iterations`` and
``converged``, the consistency ``errors``, and the JSON that ``btrank fit
--model bt --out`` writes for the crowd-cli CSV. Floats are hashed by their
bytes, so two checkouts print the same digest exactly when every one of
these outputs is bit for bit the same. The benchmark's own files are read,
never written.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(seed: int) -> str:
    """The SHA-256 of every workload's outputs at ``seed``."""
    import btrank
    import btrank.cli
    import numpy as np
    import worker
    import workloads

    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as scratch:
        csv_path = Path(scratch) / "crowd.csv"
        csv_path.write_text(workloads.build("crowd-cli", seed).csv_text(), encoding="utf-8")
        for workload, run_pass in worker.PASSES.items():
            inputs = worker._prepare(workload, {"seed": seed, "csv_path": str(csv_path)})
            ops = worker.Operations()
            fits = run_pass(btrank, inputs, ops)
            if ops.failed:
                raise RuntimeError(f"{workload}: {ops.failures}")
            for name, _, _, (result, _), _ in fits:
                sha.update(f"{workload} {name}".encode())
                outputs = result.beta, result.gradient_sup_norm, result.iterations, result.converged
                sha.update(b"".join(np.asarray(v, dtype=float).tobytes() for v in outputs))
            if "consistency" in inputs:
                sha.update(np.asarray(inputs["consistency"].errors, dtype=float).tobytes())
            if "out_path" in inputs:
                sha.update(Path(inputs["out_path"]).read_bytes())
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding btrank")
    parser.add_argument("--seed", type=int, default=1, help="the workload seed")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # single-threaded, as perfbench runs, before numpy loads
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    print(digest(args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
