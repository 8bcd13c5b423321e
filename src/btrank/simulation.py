"""Consistency experiment: does the perturbed fit recover planted merits?

Each replica plants merits drawn uniformly from a bounded interval, plays a
full round-robin with a fixed number of games per pair sampled from the
model, fits with the size-based default perturbation sqrt(log t / t), and
records the worst relative merit error. Errors are summarized per team
count; as t grows they should shrink.

Merits are scale-free, so before comparing, the fitted and planted vectors
are each rescaled to geometric mean one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .perturbation import auto_epsilon
from .solver import fit
from .types import Array, CountMatrices, Dataset, Improved, Model, ModelSpec, is_integer


@dataclass(frozen=True)
class ConsistencyConfig:
    """Controls for one consistency run.

    ``n_per_pair`` games are played between every pair (full round-robin).
    Planted merits are uniform on [1, 2], keeping the merit spread bounded
    as t grows. Replica (seed, t, replica) index triples seed independent
    generator substreams, so reports are reproducible bit for bit and a
    replica's error does not depend on the rest of the grid. Every setting
    is an integer (bools refused): each t is at least 3, ``replicas`` and
    ``n_per_pair`` at least 1, and ``seed`` at least 0.
    """

    t_grid: tuple[int, ...]
    replicas: int = 50
    n_per_pair: int = 4
    seed: int = 0

    def __post_init__(self):
        t_grid = tuple(self.t_grid)
        if len(t_grid) == 0:
            raise ConfigError("t_grid must not be empty")
        if not all(is_integer(t) and t >= 3 for t in t_grid):
            raise ConfigError(f"every t in t_grid must be an integer >= 3, got {t_grid!r}")
        object.__setattr__(self, "t_grid", tuple(int(t) for t in t_grid))
        for name, least in (("replicas", 1), ("n_per_pair", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ConsistencyReport:
    """Max relative merit errors per (t, replica), with per-t summaries."""

    t_grid: tuple[int, ...]
    epsilons: tuple[float, ...]
    errors: tuple[tuple[float, ...], ...]
    medians: tuple[float, ...]
    p90: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "t_grid": list(self.t_grid),
            "epsilons": list(self.epsilons),
            "errors": [list(row) for row in self.errors],
            "medians": list(self.medians),
            "p90": list(self.p90),
        }


def _team_names(t: int) -> tuple[str, ...]:
    return tuple(f"T{k + 1}" for k in range(t))


def _round_robin(t: int, forward: Array, backward: Array) -> Dataset:
    """Venueless t-team dataset of a round-robin: ``forward`` and
    ``backward`` are the wins of i over j and of j over i on the pairs
    i < j in row-major order, pairs without a game left out."""
    i, j = np.triu_indices(t, k=1)
    met = forward + backward > 0
    games = np.zeros((3, 2, int(met.sum())))
    games[0] = forward[met], backward[met]
    counts = CountMatrices(t, i[met], j[met], games)
    return Dataset(_team_names(t), counts, venueless=True)


def _sample_dataset(u: Array, n_per_pair: int, rng: np.random.Generator) -> Dataset:
    rows, cols = np.triu_indices(len(u), k=1)
    wins = rng.binomial(n_per_pair, u[rows] / (u[rows] + u[cols]))
    return _round_robin(len(u), wins, n_per_pair - wins)


def expected_counts_dataset(merits, n_per_pair: int = 4) -> Dataset:
    """Round-robin dataset with fractional expected win counts.

    Replaces sampling noise with exact expectations: a_ij = n * p_ij. Useful
    for checking that the fit-and-align pipeline recovers planted merits up
    to the perturbation-induced bias alone.
    """
    u = np.asarray(merits, dtype=float)
    if u.ndim != 1 or len(u) < 2 or np.any(u <= 0):
        raise ConfigError("merits must be a vector of at least 2 positive values")
    i, j = np.triu_indices(len(u), k=1)
    forward, backward = n_per_pair * (u[i] / (u[i] + u[j])), n_per_pair * (u[j] / (u[j] + u[i]))
    return _round_robin(len(u), forward, backward)


def max_relative_error(fitted: Array, planted: Array) -> float:
    """Worst |fitted_i / planted_i - 1| after geometric-mean alignment."""
    fitted = np.asarray(fitted, dtype=float)
    planted = np.asarray(planted, dtype=float)
    fitted = fitted / np.exp(np.mean(np.log(fitted)))
    planted = planted / np.exp(np.mean(np.log(planted)))
    return float(np.max(np.abs(fitted / planted - 1.0)))


def _one_replica(config: ConsistencyConfig, t: int, replica: int) -> float:
    rng = np.random.default_rng([config.seed, t, replica])
    u = rng.uniform(1.0, 2.0, t)
    dataset = _sample_dataset(u, config.n_per_pair, rng)
    spec = ModelSpec(Model.BRADLEY_TERRY, Improved(auto_epsilon(t)))
    result = fit(spec, dataset)
    return max_relative_error(result.merits_u, u)


def run_consistency(config: ConsistencyConfig) -> ConsistencyReport:
    """Run the experiment and summarize errors per team count.

    A full round-robin with sampled wins always satisfies the existence
    condition for the perturbed fit, so fit errors are not expected; any
    that occur propagate.
    """
    errors = [
        tuple(_one_replica(config, t, r) for r in range(config.replicas))
        for t in config.t_grid
    ]
    medians = tuple(float(np.median(row)) for row in errors)
    p90 = tuple(float(np.percentile(row, 90)) for row in errors)
    return ConsistencyReport(
        t_grid=config.t_grid,
        epsilons=tuple(auto_epsilon(t) for t in config.t_grid),
        errors=tuple(errors),
        medians=medians,
        p90=p90,
    )
