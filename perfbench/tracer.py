"""In-memory span tracer installed around btrank's public entry points.

Spans are recorded from the benchmark's side: each target function or class
method is replaced by a wrapper that opens a span, calls the original and
closes the span. The program's source is not touched. A target whose module
attribute is gone (say, after a refactor deletes it) is skipped, so the
benchmark keeps running on later versions of the program.

A span's layer is the part of its name before the first dot. A layer's self
time is the duration of its spans minus the part of each span that its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

# (module, attribute or Class.method, span name, result attributes to keep)
TARGETS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("btrank.cli", "main", "cli.main", ()),
    ("btrank.ingestion", "parse_records", "ingestion.parse", ("__len__",)),
    ("btrank.ingestion", "parse_matrix", "ingestion.parse", ()),
    ("btrank.ingestion", "aggregate", "ingestion.aggregate", ()),
    ("btrank.types", "CountMatrices.__post_init__", "types.dataset", ()),
    ("btrank.types", "Dataset.__post_init__", "types.dataset", ()),
    ("btrank.types", "derive_totals", "types.dataset", ()),
    ("btrank.types", "venue_dataset", "types.dataset", ()),
    ("btrank.types", "venue_free_dataset", "types.dataset", ()),
    ("btrank.perturbation", "perturb", "perturbation.perturb", ()),
    ("btrank.connectivity", "check_condition_a", "connectivity.check", ()),
    ("btrank.connectivity", "check_condition_b", "connectivity.check", ()),
    ("btrank.connectivity", "check_condition_c", "connectivity.check", ()),
    ("btrank.connectivity", "strong_connectivity_witness", "connectivity.check", ()),
    ("btrank.likelihood", "Objective.value", "likelihood.eval", ()),
    ("btrank.likelihood", "Objective.value_and_gradient", "likelihood.eval", ()),
    ("btrank.likelihood", "log_likelihood", "likelihood.eval", ()),
    ("btrank.likelihood", "gradient", "likelihood.eval", ()),
    ("btrank.solver", "fit", "solver.fit", ("iterations", "converged")),
    ("btrank.solver", "fit_map_em", "solver.fit", ("iterations", "converged")),
    ("btrank.solver", "minimize", "solver.polish", ()),
    ("btrank.ranking", "extract_ranking", "ranking.call", ()),
    ("btrank.ranking", "score_ranking", "ranking.call", ()),
    ("btrank.ranking", "kendall_distance", "ranking.call", ()),
    ("btrank.ranking", "sweep_epsilon", "ranking.call", ()),
    ("btrank.simulation", "run_consistency", "simulation.call", ()),
    ("btrank.simulation", "max_relative_error", "simulation.call", ()),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Records spans for one workload run; single-threaded by design."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, start=time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name: str, keep: tuple[str, ...]):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            for attr in keep:
                if attr == "__len__":
                    span.attrs["len"] = len(result)
                else:
                    span.attrs[attr] = getattr(result, attr, None)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists, wherever btrank holds a reference."""
        for module_name, attr, name, keep in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, method = attr.split(".", 1)
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is None:
                    self.skipped.append(f"{module_name}.{attr}")
                    continue
                self._patch(cls, method, self._wrap(original, name, keep))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, keep)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".", 1)[0] != "btrank" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        payload = {
            "run_id": self.run_id,
            "skipped": self.skipped,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run_id": self.run_id,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(payload, out)


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced pass (names as in BENCHMARK.json)."""
    own = self_times(spans)

    def self_of(predicate) -> float:
        return sum(t for s, t in zip(spans, own) if predicate(s))

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    fits = [s for s in spans if s.name == "solver.fit"]
    iterations = sum(int(s.attrs.get("iterations") or 0) for s in fits)
    evals = count("likelihood.eval")
    out = {
        "ingestion.parse_s": self_of(lambda s: s.name == "ingestion.parse"),
        "ingestion.aggregate_s": self_of(lambda s: s.name == "ingestion.aggregate"),
        "ingestion.records": sum(int(s.attrs.get("len") or 0) for s in spans),
        "cli.self_s": self_of(lambda s: s.layer == "cli"),
        "likelihood.eval_s": self_of(lambda s: s.layer == "likelihood"),
        "likelihood.evals": evals,
        "likelihood.evals_per_iter": evals / iterations if iterations else 0.0,
        "solver.self_s": self_of(lambda s: s.layer == "solver"),
        "solver.iterations": iterations,
        "solver.fits": len(fits),
        "solver.polish_s": sum(s.end - s.start for s in spans if s.name == "solver.polish"),
        "solver.polish_calls": count("solver.polish"),
        "perturbation.perturb_s": self_of(lambda s: s.layer == "perturbation"),
        "perturbation.calls": count("perturbation.perturb"),
        "connectivity.check_s": self_of(lambda s: s.layer == "connectivity"),
        "connectivity.calls": count("connectivity.check"),
        "types.dataset_s": self_of(lambda s: s.layer == "types"),
        "types.calls": count("types.dataset"),
        "ranking.self_s": self_of(lambda s: s.layer == "ranking"),
        "simulation.self_s": self_of(lambda s: s.layer == "simulation"),
        "unconverged_ratio": (
            sum(1 for s in fits if s.attrs.get("converged") is False) / len(fits)
            if fits
            else 0.0
        ),
    }
    return out


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Self time per layer as a share of the root spans' total duration."""
    own = self_times(spans)
    total = sum(s.end - s.start for s in spans if s.parent is None)
    shares: dict[str, float] = {}
    for span, t in zip(spans, own):
        shares[span.layer] = shares.get(span.layer, 0.0) + t
    return {k: v / total for k, v in sorted(shares.items(), key=lambda kv: -kv[1])} if total else {}
