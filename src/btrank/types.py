"""Shared domain types.

Venue conventions used throughout the package:

* ``a_home[i][j]`` counts wins of team ``i`` over team ``j`` in games hosted
  by ``i``.
* ``a_away[i][j]`` counts wins of team ``i`` over team ``j`` in games hosted
  by ``j``.
* ``t_home[i][j]`` counts ties between ``i`` and ``j`` in games hosted by
  ``i`` (so the symmetric tie total between the pair is
  ``t_home[i][j] + t_home[j][i]``).

All matrices are square, indexed consistently with the team list, have a zero
diagonal, and are stored as read-only ``float64`` arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, NonPositiveEpsilonError, ShapeError

Array = npt.NDArray[np.float64]

#: Merits closer than this on the log scale form a tie group in a Ranking.
RANK_TOL = 1e-9


def _freeze(values, name: str, t: int | None = None) -> Array:
    """Coerce to a square read-only float64 matrix and validate it."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {arr.shape}")
    if t is not None and arr.shape[0] != t:
        raise ShapeError(f"{name} must be {t}x{t}, got {arr.shape[0]}x{arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    if np.any(np.diagonal(arr) != 0.0):
        raise ShapeError(f"{name} must have a zero diagonal")
    arr.setflags(write=False)
    return arr


def is_integer(value) -> bool:
    """True for a Python or numpy integer, False for a bool or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _freeze_vector(values) -> Array:
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CountMatrices:
    """Per-ordered-pair game counts, split by venue."""

    a_home: Array
    a_away: Array
    t_home: Array

    def __post_init__(self):
        from .errors import NegativeCountError

        a_home = _freeze(self.a_home, "a_home")
        t = a_home.shape[0]
        a_away = _freeze(self.a_away, "a_away", t)
        t_home = _freeze(self.t_home, "t_home", t)
        for name, arr in (("a_home", a_home), ("a_away", a_away), ("t_home", t_home)):
            if np.any(arr < 0):
                raise NegativeCountError(f"{name} contains a negative count")
        object.__setattr__(self, "a_home", a_home)
        object.__setattr__(self, "a_away", a_away)
        object.__setattr__(self, "t_home", t_home)

    @property
    def num_teams(self) -> int:
        return self.a_home.shape[0]


@dataclass(frozen=True)
class Totals:
    """Derived totals: ``a[i][j]`` wins of i over j anywhere, ``ties[i][j]``
    ties between the pair, ``n[i][j]`` games between the pair, and
    ``n_host[i][j]`` games between the pair hosted by i."""

    a: Array
    ties: Array
    n: Array
    n_host: Array


def derive_totals(counts: CountMatrices) -> Totals:
    """Fold venue-split counts into pair totals.

    ``a = a_home + a_away`` (wins anywhere), ``ties[i][j] = t_home[i][j] +
    t_home[j][i]``, ``n = a + a.T + ties``, and ``n_host[i][j] =
    a_home[i][j] + a_away[j][i] + t_home[i][j]`` (every game played at i's
    venue against j, whoever won).
    """
    a = counts.a_home + counts.a_away
    ties = counts.t_home + counts.t_home.T
    n = a + a.T + ties
    n_host = counts.a_home + counts.a_away.T + counts.t_home
    for arr in (a, ties, n, n_host):
        arr.setflags(write=False)
    return Totals(a=a, ties=ties, n=n, n_host=n_host)


@dataclass(frozen=True)
class Dataset:
    """A team registry plus venue-split game counts.

    ``venueless`` marks data ingested without home/away structure (a bare win
    matrix); venue-aware checks and models refuse such datasets instead of
    guessing venues.
    """

    teams: tuple[str, ...]
    counts: CountMatrices
    venueless: bool = False

    def __post_init__(self):
        teams = tuple(str(x) for x in self.teams)
        if len(teams) != len(set(teams)):
            raise ShapeError("team identifiers must be unique")
        if len(teams) < 2:
            raise ShapeError(f"need at least 2 teams, got {len(teams)}")
        if len(teams) != self.counts.num_teams:
            raise ShapeError(
                f"{len(teams)} teams but {self.counts.num_teams}x"
                f"{self.counts.num_teams} count matrices"
            )
        object.__setattr__(self, "teams", teams)

    @property
    def num_teams(self) -> int:
        return len(self.teams)

    @cached_property
    def totals(self) -> Totals:
        return derive_totals(self.counts)

    @cached_property
    def scores(self) -> Array:
        """Win score per team: ``a_i = sum_j a_ij``."""
        s = self.totals.a.sum(axis=1)
        s.setflags(write=False)
        return s


def venue_dataset(teams, a_home, a_away, t_home=None) -> Dataset:
    """Build a venue-aware Dataset from matrices (``t_home`` defaults to zero)."""
    a_home = np.asarray(a_home, dtype=np.float64)
    if t_home is None:
        t_home = np.zeros_like(a_home)
    return Dataset(
        teams=tuple(teams),
        counts=CountMatrices(a_home=a_home, a_away=a_away, t_home=t_home),
    )


def venue_free_dataset(teams, a, ties=None) -> Dataset:
    """Build a venueless Dataset from a win matrix ``a`` (and optional
    symmetric tie matrix).

    The win counts are stored on the home side purely as a container; the
    dataset is flagged venueless so venue-aware operations refuse it.
    """
    a = np.asarray(a, dtype=np.float64)
    zeros = np.zeros_like(a)
    if ties is None:
        t_home = zeros
    else:
        ties = np.asarray(ties, dtype=np.float64)
        if not np.array_equal(ties, ties.T):
            raise ShapeError("tie matrix must be symmetric for venueless data")
        # Store the upper triangle on the host side; derive_totals restores
        # the symmetric total.
        t_home = np.triu(ties)
    return Dataset(
        teams=tuple(teams),
        counts=CountMatrices(a_home=a, a_away=zeros, t_home=t_home),
        venueless=True,
    )


class Model(enum.Enum):
    """The five fitted models."""

    BRADLEY_TERRY = "bt"
    RAO_KUPPER = "rao-kupper"
    DAVIDSON = "davidson"
    HOME_FIELD = "home-field"
    DAVID = "david"

    @property
    def has_tie_parameter(self) -> bool:
        return self in (Model.RAO_KUPPER, Model.DAVIDSON, Model.DAVID)

    @property
    def has_home_parameter(self) -> bool:
        return self in (Model.HOME_FIELD, Model.DAVID)

    @property
    def needs_ties(self) -> bool:
        return self.has_tie_parameter

    @property
    def needs_venues(self) -> bool:
        return self.has_home_parameter


class Normalization(enum.Enum):
    REFERENCE = "reference"  # u_1 = 1
    SIMPLEX = "simplex"  # sum(u) = 1


AUTO_EPSILON = "auto"


def _check_epsilon(value) -> float | str:
    if isinstance(value, str):
        if value == AUTO_EPSILON:
            return value
        raise NonPositiveEpsilonError(
            f"epsilon must be a positive number or {AUTO_EPSILON!r}, got {value!r}"
        )
    eps = float(value)
    if not math.isfinite(eps) or eps <= 0.0:
        raise NonPositiveEpsilonError(f"epsilon must be positive, got {eps}")
    return eps


@dataclass(frozen=True)
class Improved:
    """Add ``epsilon`` to a win count only where the pair actually met.

    ``epsilon`` may be the string ``"auto"``, resolved against the dataset as
    ``sqrt(log(t) / t)`` at perturbation time.
    """

    epsilon: float | str

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))


@dataclass(frozen=True)
class ConnerGrant:
    """Add ``epsilon`` to every off-diagonal win count, met or not."""

    epsilon: float | str

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))


@dataclass(frozen=True)
class MatrixShift:
    """Add an arbitrary prior matrix ``a0`` to the win counts.

    Entries must exceed -1 and the diagonal must be zero. A fit refuses
    (ExistenceError) a shift that leaves any win count the model reads
    negative: the venue-free ``a + a0`` for the venue-free models, and
    ``a_home + a0 / 2`` or ``a_away + a0 / 2`` for the venue models. It also
    refuses a venue-model shift that leaves no positive home-win or no
    positive visitor-win weight, where the home advantage has no finite
    estimate.
    """

    a0: Array

    def __post_init__(self):
        a0 = _freeze(self.a0, "a0")
        if np.any(a0 <= -1.0):
            raise ConfigError("every a0 entry must be greater than -1")
        object.__setattr__(self, "a0", a0)


PerturbationSpec = Union[Improved, ConnerGrant, MatrixShift]


@dataclass(frozen=True)
class PerturbedCounts:
    """Win counts after perturbation, alongside the untouched tie counts.

    ``a_home`` and ``a_away`` are the venue-split perturbed wins consumed by
    the venue-aware models. ``a_free`` is the venue-free perturbed win matrix
    consumed by the other models; under the Improved scheme it is computed
    directly from the pair totals (``a_ij + eps * I(n_ij > 0)``), not by
    summing the venue-split matrices, which could add the perturbation twice
    for pairs that met at both venues.

    ``epsilon`` records the resolved magnitude (None for MatrixShift).
    """

    a_home: Array
    a_away: Array
    a_free: Array
    t_home: Array
    venueless: bool
    epsilon: float | None

    def __post_init__(self):
        for name in ("a_home", "a_away", "a_free", "t_home"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_teams(self) -> int:
        return self.a_free.shape[0]

    @cached_property
    def ties(self) -> Array:
        out = self.t_home + self.t_home.T
        out.setflags(write=False)
        return out

    @cached_property
    def n_host(self) -> Array:
        """Perturbed per-venue pair totals: games at i's venue against j."""
        out = self.a_home + self.a_away.T + self.t_home
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Which model to fit, how to perturb, and how to normalize the output."""

    model: Model
    perturbation: PerturbationSpec
    normalization: Normalization = Normalization.REFERENCE


@dataclass(frozen=True)
class ParameterPoint:
    """A point in the reparameterized space.

    ``beta[i] = log u_i - log u_1`` with ``beta[0] == 0`` exactly; ``phi`` is
    the log tie parameter (models without one carry None); ``log_gamma`` is
    the log home advantage (None for venue-free models).
    """

    beta: Array
    phi: float | None = None
    log_gamma: float | None = None

    def __post_init__(self):
        beta = _freeze_vector(self.beta)
        if beta.ndim != 1 or beta.shape[0] < 2:
            raise ShapeError("beta must be a vector of length >= 2")
        if beta[0] != 0.0:
            raise ShapeError("beta[0] must be exactly 0 (reference team)")
        object.__setattr__(self, "beta", beta)

    @property
    def theta(self) -> float | None:
        return None if self.phi is None else math.exp(self.phi)

    @property
    def gamma(self) -> float | None:
        return None if self.log_gamma is None else math.exp(self.log_gamma)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one model fit.

    ``log_likelihood`` is the final value of the maximized objective (the
    perturbed log-likelihood, or the log-posterior for the MAP fit).
    ``trace`` holds that objective per accepted iteration. ``scores`` carries
    the raw win scores ``a_i`` of the fitted dataset.
    """

    model: Model
    teams: tuple[str, ...]
    merits_u: Array
    beta: Array
    theta_hat: float | None
    gamma_hat: float | None
    log_likelihood: float
    iterations: int
    converged: bool
    gradient_sup_norm: float
    trace: tuple[float, ...]
    scores: Array
    normalization: Normalization
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "teams", tuple(self.teams))
        object.__setattr__(self, "merits_u", _freeze_vector(self.merits_u))
        object.__setattr__(self, "beta", _freeze_vector(self.beta))
        object.__setattr__(self, "scores", _freeze_vector(self.scores))
        object.__setattr__(self, "trace", tuple(float(v) for v in self.trace))
        t = len(self.teams)
        if not (len(self.merits_u) == len(self.beta) == len(self.scores) == t):
            raise ShapeError("result vectors must match the team count")

    def ensure_converged(self) -> "FitResult":
        """Return self, or raise NonConvergenceError if the fit gave up."""
        from .errors import NonConvergenceError

        if not self.converged:
            raise NonConvergenceError(
                f"no convergence after {self.iterations} iterations "
                f"(gradient sup-norm {self.gradient_sup_norm:.3e})"
            )
        return self


@dataclass(frozen=True)
class Ranking:
    """Teams ordered best to worst, with tie groups.

    ``order`` is a permutation of team indices; ``groups`` partitions
    ``order`` into consecutive runs whose log-merits differ by less than the
    grouping tolerance.
    """

    teams: tuple[str, ...]
    order: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "teams", tuple(self.teams))
        object.__setattr__(self, "order", tuple(int(i) for i in self.order))
        object.__setattr__(
            self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups)
        )
        if sorted(self.order) != list(range(len(self.teams))):
            raise ShapeError("order must be a permutation of the team indices")
        flat = [i for g in self.groups for i in g]
        if flat != list(self.order):
            raise ShapeError("groups must partition order in sequence")

    def team_order(self) -> tuple[str, ...]:
        return tuple(self.teams[i] for i in self.order)

    def describe(self) -> str:
        """Render like ``A > {B = C} > D``."""
        parts = []
        for g in self.groups:
            names = [self.teams[i] for i in g]
            if len(names) == 1:
                parts.append(names[0])
            else:
                parts.append("{" + " = ".join(names) + "}")
        return " > ".join(parts)


@dataclass(frozen=True)
class PartitionWitness:
    """A two-set split of the teams demonstrating a failed condition.

    ``condition`` is "A", "B", or "C"; ``detail`` states which direction of
    interaction is missing between ``q1`` and ``q2``.
    """

    condition: str
    q1: tuple[int, ...]
    q2: tuple[int, ...]
    detail: str

    def __post_init__(self):
        q1 = tuple(sorted(int(i) for i in self.q1))
        q2 = tuple(sorted(int(i) for i in self.q2))
        if not q1 or not q2 or set(q1) & set(q2):
            raise ShapeError("witness sets must be nonempty and disjoint")
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)

    def describe(self, teams: tuple[str, ...] | None = None) -> str:
        def fmt(ids):
            if teams is None:
                return "{" + ", ".join(str(i) for i in ids) + "}"
            return "{" + ", ".join(teams[i] for i in ids) + "}"

        return (
            f"condition {self.condition} fails for the split "
            f"{fmt(self.q1)} | {fmt(self.q2)}: {self.detail}"
        )
