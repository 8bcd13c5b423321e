"""Consistency experiment: does the perturbed fit recover planted merits?

Each replica plants merits drawn uniformly from a bounded interval, plays a
full round-robin with a fixed number of games per pair sampled from the
model, fits with the size-based default perturbation sqrt(log t / t), and
records the worst relative merit error. Errors are summarized per team
count; as t grows they should shrink. The team names, the pairs and the
fit's spec are built once per t; each replica draws only its counts.

Merits are scale-free, so before comparing, the fitted and planted vectors
are each rescaled to geometric mean one.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError
from .perturbation import auto_epsilon
from .solver import fit
from .types import (
    Array, CountMatrices, Dataset, Improved, Model, ModelSpec, Record, is_bool, is_integer,
)


class ConsistencyConfig(Record):
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


class ConsistencyReport(Record):
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


def _layout(t: int):
    """``(teams, pairs)`` of a t-team round-robin: the names ``T1 ..`` and
    the pairs i < j of ``np.triu_indices``."""
    return tuple(f"T{k + 1}" for k in range(t)), np.triu_indices(t, k=1)


def _round_robin(layout, forward: Array, backward: Array) -> Dataset:
    """Venueless dataset of a round-robin on a ``_layout``: ``forward`` and
    ``backward`` are the wins of i over j and of j over i on its pairs,
    each pair with a game."""
    (teams, pairs), games = layout, np.zeros((3, 2, len(forward)))
    games[0] = forward, backward
    return Dataset(teams, CountMatrices(len(teams), *pairs, games), venueless=True)


def expected_counts_dataset(merits, n_per_pair: float = 4) -> Dataset:
    """Round-robin dataset with fractional expected win counts.

    Replaces sampling noise with exact expectations: a_ij = n * p_ij. Useful
    for checking that the fit-and-align pipeline recovers planted merits up
    to the perturbation-induced bias alone. ``n_per_pair`` is a positive
    finite number of games, fractional allowed, not a bool.
    """
    u = np.asarray(merits, dtype=float)
    if u.ndim != 1 or len(u) < 2 or not np.all(np.isfinite(u) & (u > 0)):
        raise ConfigError("merits must be a vector of at least 2 positive finite values")
    real = isinstance(n_per_pair, numbers.Real) and not is_bool(n_per_pair)
    if not (real and math.isfinite(n_per_pair) and n_per_pair > 0):
        raise ConfigError(f"n_per_pair must be a positive finite number, got {n_per_pair!r}")
    _, (i, j) = layout = _layout(len(u))
    forward, backward = n_per_pair * (u[i] / (u[i] + u[j])), n_per_pair * (u[j] / (u[j] + u[i]))
    return _round_robin(layout, forward, backward)


def max_relative_error(fitted: Array, planted: Array) -> float:
    """Worst |fitted_i / planted_i - 1| after geometric-mean alignment."""
    fitted = np.asarray(fitted, dtype=float)
    planted = np.asarray(planted, dtype=float)
    fitted = fitted / np.exp(np.mean(np.log(fitted)))
    planted = planted / np.exp(np.mean(np.log(planted)))
    return float(np.max(np.abs(fitted / planted - 1.0)))


def _one_replica(config: ConsistencyConfig, layout, spec: ModelSpec, replica: int) -> float:
    """The error of one replica of ``spec`` fits on a t-team ``_layout``."""
    t, (rows, cols) = len(layout[0]), layout[1]
    rng = np.random.default_rng([config.seed, t, replica])
    u = rng.uniform(1.0, 2.0, t)
    u_i = u[rows]
    wins = rng.binomial(config.n_per_pair, u_i / (u_i + u[cols]))
    result = fit(spec, _round_robin(layout, wins, config.n_per_pair - wins))
    return max_relative_error(result.merits_u, u)


def run_consistency(config: ConsistencyConfig) -> ConsistencyReport:
    """Run the experiment and summarize errors per team count.

    A full round-robin with sampled wins always satisfies the existence
    condition for the perturbed fit, so fit errors are not expected; any
    that occur propagate.
    """
    errors = []
    for t in config.t_grid:  # one layout and spec per t, shared by its replicas
        layout, spec = _layout(t), ModelSpec(Model.BRADLEY_TERRY, Improved(auto_epsilon(t)))
        errors.append(tuple(_one_replica(config, layout, spec, r) for r in range(config.replicas)))
    medians = tuple(float(np.median(row)) for row in errors)
    p90 = tuple(float(np.percentile(row, 90)) for row in errors)
    return ConsistencyReport(
        t_grid=config.t_grid,
        epsilons=tuple(auto_epsilon(t) for t in config.t_grid),
        errors=tuple(errors),
        medians=medians,
        p90=p90,
    )
