"""Apply a perturbation scheme to a dataset's win counts.

Tie counts are never perturbed. Three schemes are supported:

* Improved(eps): wins gain eps only where the pair actually met. At the
  venue level, ``a_home[i][j]`` gains eps when i has hosted j at all
  (``n_host[i][j] > 0``); the venue-free view gains eps on ``a[i][j]`` when
  ``n[i][j] > 0``. The venue-free view is computed directly from the pair
  totals rather than by summing the perturbed venue matrices, so a pair that
  met at both venues still gains exactly one eps in the venue-free view.
* ConnerGrant(eps): every off-diagonal win count gains eps, met or not.
* MatrixShift(a0): wins gain an arbitrary matrix with entries > -1. The
  venue-free view gains a0; each venue view gains a0 / 2 so the venue split
  sums back to the venue-free shift.
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


def perturb(dataset: Dataset, spec: PerturbationSpec) -> PerturbedCounts:
    """Produce the perturbed win counts for a dataset under a scheme.

    Each scheme picks the shift added to the venue-free, home and away win
    counts; the ties pass through untouched.
    """
    totals = dataset.totals
    counts = dataset.counts
    t = dataset.num_teams
    if not isinstance(spec, (Improved, ConnerGrant, MatrixShift)):
        raise TypeError(f"unknown perturbation spec {spec!r}")
    eps = resolve_epsilon(spec, t)
    if isinstance(spec, MatrixShift):
        if spec.a0.shape[0] != t:
            raise ShapeError(
                f"a0 is {spec.a0.shape[0]}x{spec.a0.shape[1]} "
                f"but the dataset has {t} teams"
            )
        free = spec.a0
        home = away = spec.a0 / 2.0
    elif isinstance(spec, Improved):
        free = eps * (totals.n > 0)
        home = eps * (totals.n_host > 0)
        away = eps * (totals.n_host.T > 0)
    else:  # ConnerGrant
        free = home = away = eps * ~np.eye(t, dtype=bool)
    return PerturbedCounts(
        a_home=counts.a_home + home,
        a_away=counts.a_away + away,
        a_free=totals.a + free,
        t_home=counts.t_home,
        venueless=dataset.venueless,
        epsilon=eps,
    )
