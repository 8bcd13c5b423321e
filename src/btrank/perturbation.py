"""Apply a perturbation scheme to a dataset's win counts, per edge.

Tie counts are never perturbed. Each scheme is a rule over an edge list (the
layout of ``types.CountMatrices``), in O(edges):

* Improved(eps) keeps the dataset's edges, the pairs that met. It adds eps
  to both venue-free directions of every edge (to the raw wins, so a pair
  that met at both venues gains one eps, not two), and to the host and the
  visitor win of every orientation that has a game.
* ConnerGrant(eps) runs the same rule over every pair, met or not, and
  lifts every orientation. It is dense by definition: t (t - 1) / 2 edges.
* MatrixShift(a0) widens the edge list to the pairs where ``a0`` is
  nonzero. The venue-free wins of x over y gain ``a0[x][y]``; the games by
  venue stay raw, since only the venue-free models take a shift.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .types import (
    AUTO_EPSILON,
    ConnerGrant,
    Dataset,
    Improved,
    MatrixShift,
    PerturbationSpec,
    PerturbedCounts,
    pair_edges,
)


def auto_epsilon(t: int) -> float:
    """The default magnitude sqrt(log(t) / t) for a t-team dataset."""
    if t < 2:
        raise ShapeError(f"need at least 2 teams, got {t}")
    return math.sqrt(math.log(t) / t)


def resolve_epsilon(spec: PerturbationSpec, t: int) -> float | None:
    """The numeric magnitude a spec will use on a t-team dataset.

    Resolves the "auto" keyword; None for MatrixShift, which has no single
    magnitude.
    """
    if isinstance(spec, MatrixShift):
        return None
    if spec.epsilon == AUTO_EPSILON:
        return auto_epsilon(t)
    return float(spec.epsilon)


def _widen(dataset: Dataset, extra: np.ndarray):
    """The dataset's ``(i, j, games, wins)`` over its edges and the pairs
    where the boolean t x t ``extra`` holds (the dataset's pairs are marked
    in it), in row-major order; zero on the pairs the dataset lacks."""
    counts, t = dataset.counts, dataset.num_teams
    extra[counts.i, counts.j] = True
    i, j = pair_edges(extra)
    at = np.searchsorted(i * t + j, counts.i * t + counts.j)
    games = np.zeros((3, 2, len(i)))
    games[..., at] = counts.games
    wins = np.zeros((2, len(i)))
    wins[:, at] = dataset.totals[:2]
    return i, j, games, wins


def perturb(dataset: Dataset, spec: PerturbationSpec) -> PerturbedCounts:
    """Produce the perturbed win counts for a dataset under a scheme, by the
    rules of the module docstring; the ties pass through untouched."""
    counts, t = dataset.counts, dataset.num_teams
    if not isinstance(spec, (Improved, ConnerGrant, MatrixShift)):
        raise TypeError(f"unknown perturbation spec {spec!r}")
    eps = resolve_epsilon(spec, t)
    if isinstance(spec, MatrixShift):
        a0 = spec.a0
        if a0.shape[0] != t:
            raise ShapeError(f"a0 is {a0.shape[0]}x{a0.shape[1]} but the dataset has {t} teams")
        i, j, games, wins = _widen(dataset, a0 != 0)
        wins += np.stack([a0[i, j], a0[j, i]])
    else:
        if isinstance(spec, Improved):
            i, j, games, wins = counts.i, counts.j, counts.games, dataset.totals[:2]
            hosted = games.sum(axis=0) > 0
        else:  # ConnerGrant
            i, j, games, wins = _widen(dataset, np.ones((t, t), dtype=bool))
            hosted = True
        wins = wins + eps
        games = np.concatenate([games[:2] + eps * hosted, games[2:]])
    return PerturbedCounts(t, i, j, games, wins, dataset.venueless, eps)
