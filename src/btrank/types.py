"""Shared domain types.

Game counts are stored once, per met pair (``CountMatrices``): the unordered
pairs ``i < j`` with at least one game, in row-major order, each with a
3 x 2 block ``games[outcome, orientation, e]``. The outcome is a host win
(0), a visitor win (1) or a tie (2); the orientation is a game ``i`` hosted
against ``j`` (0) or one ``j`` hosted against ``i`` (1). So, per edge:

* the wins of ``i`` over ``j`` anywhere are ``games[0, 0] + games[1, 1]``
  (as host, then as visitor), and those of ``j`` over ``i`` are
  ``games[0, 1] + games[1, 0]``;
* the ties between the pair are ``games[2, 0] + games[2, 1]``;
* the games ``i`` hosted against ``j`` are ``games[:, 0].sum()``, those
  ``j`` hosted ``games[:, 1].sum()``.

Venueless data keep every count in orientation 0 and the host slots: the
wins of ``i`` over ``j`` in ``games[0, 0]``, those of ``j`` over ``i`` in
``games[0, 1]``, the ties in ``games[2, 0]``.

t x t matrices are input only (``venue_dataset``, ``venue_free_dataset``,
``MatrixShift``). There ``a_home[i][j]`` counts wins of ``i`` over ``j``
hosted by ``i``, ``a_away[i][j]`` wins of ``i`` over ``j`` hosted by ``j``
and ``t_home[i][j]`` ties hosted by ``i``; every matrix is square, indexed
like the team list, and has a zero diagonal.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from itertools import chain
from typing import Union

import numpy as np

from .errors import ConfigError, NegativeCountError, NonConvergenceError, NonPositiveEpsilonError, ShapeError

Array = np.ndarray  # of float64; every module reads it in annotations only

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


def is_bool(value) -> bool:
    """True for a Python or numpy bool, which no numeric setting takes."""
    return isinstance(value, (bool, np.bool_))


def _freeze_vector(values) -> Array:
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


def pair_edges(mask) -> tuple[np.ndarray, np.ndarray]:
    """The unordered pairs ``(i, j)``, i < j, where the boolean t x t
    ``mask`` holds in either direction, in row-major order."""
    return np.divmod(np.flatnonzero(np.triu(mask | mask.T, 1)), len(mask))


class Record:
    """Base of the immutable value records: a subclass declares its fields as
    annotations (``_fields`` names them), with optional defaults, after those
    of its bases, and may check them in ``__post_init__``, writing through
    ``object.__setattr__``. Unlike ``dataclasses``, it generates no code per class."""

    _fields, _defaults = (), {}  # set per subclass by __init_subclass__, as is _names

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = (*cls._fields, *(name for name in own if name not in cls._fields))
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._names = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):  # every field, by position
            values = dict(zip(fields, args))
        elif not args and kwargs.keys() == self._names:  # every field, by keyword
            values = kwargs
        else:
            values = {**self._defaults, **kwargs}
            values.update(zip(fields, args))
            if len(args) > len(fields) or len(values) != len(fields) or kwargs and not (
                kwargs.keys() <= self._names and kwargs.keys().isdisjoint(fields[: len(args)])
            ):
                raise TypeError(f"{type(self).__name__}() takes each of {fields} once")
        # Assigned whole: filling ``self.__dict__`` would materialize it, and
        # CPython 3.11 then reads attributes about half as fast
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):  # field by field, arrays by value
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = zip(self._values(), other._values())
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated as a new record."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class CountMatrices(Record):
    """Game counts per met pair: the edges ``(i[e], j[e])`` and the
    (3, 2, edges) array ``games``, laid out as in the module docstring."""

    num_teams: int
    i: np.ndarray
    j: np.ndarray
    games: Array

    def __post_init__(self):
        t = self.num_teams
        i, j = (np.array(x, dtype=np.intp) for x in (self.i, self.j))
        games = np.array(self.games, dtype=np.float64)
        if not is_integer(t) or i.ndim != 1 or j.shape != i.shape or games.shape != (3, 2, len(i)):
            raise ShapeError(f"{t!r} teams, edges {i.shape} and {j.shape}, games {games.shape}")
        keys = i * t + j  # strictly increasing: distinct pairs in row-major order
        if len(i) and (i.min() < 0 or np.any(i >= j) or j.max() >= t or np.any(np.diff(keys) <= 0)):
            raise ShapeError("edges must be distinct pairs i < j of teams, in row-major order")
        if len(i):  # by reductions: NaN and +-inf reach the min or the max
            low, high = games.min(), games.max()
            if not (np.isfinite(low) and np.isfinite(high)):
                raise ShapeError("games contains non-finite entries")
            if low < 0:
                raise NegativeCountError("games contains a negative count")
            if not games.reshape(6, -1).any(axis=0).all():  # finite, nonnegative: a game is nonzero
                raise ShapeError("every edge needs at least one game")
        for name, arr in (("i", i), ("j", j), ("games", games)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _view(self, forward: Array, backward: Array) -> Array:
        out = np.zeros((self.num_teams, self.num_teams))
        out[self.i, self.j], out[self.j, self.i] = forward, backward
        return out

    # t x t views built on request, for the benchmark's own checks; the
    # package never reads them
    a_home = property(lambda self: self._view(self.games[0, 0], self.games[0, 1]))
    a_away = property(lambda self: self._view(self.games[1, 1], self.games[1, 0]))
    t_home = property(lambda self: self._view(self.games[2, 0], self.games[2, 1]))


def derive_totals(counts: CountMatrices) -> Array:
    """Venue-free totals per edge, shape (3, edges): the wins of i over j,
    the wins of j over i, and the ties between them."""
    g = counts.games
    out = np.stack([g[0, 0] + g[1, 1], g[0, 1] + g[1, 0], g[2, 0] + g[2, 1]])
    out.setflags(write=False)
    return out


def _dense_counts(a_home, a_away, t_home, names=("a_home", "a_away", "t_home")) -> CountMatrices:
    """The edge record of venue-split t x t count matrices. Refusals name
    each matrix by the input it came from, ``names``."""
    a_home = _freeze(a_home, names[0])
    t = a_home.shape[0]
    matrices = (a_home, _freeze(a_away, names[1], t), _freeze(t_home, names[2], t))
    for name, arr in zip(names, matrices):
        if np.any(arr < 0):
            raise NegativeCountError(f"{name} contains a negative count")
    a_home, a_away, t_home = matrices
    i, j = pair_edges((a_home != 0) | (a_away != 0) | (t_home != 0))
    games = [a_home[i, j], a_home[j, i], a_away[j, i], a_away[i, j], t_home[i, j], t_home[j, i]]
    return CountMatrices(t, i, j, np.reshape(games, (3, 2, len(i))))


class Dataset(Record):
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
            raise ShapeError(f"{len(teams)} teams but counts for {self.counts.num_teams}")
        object.__setattr__(self, "teams", teams)
        object.__setattr__(self, "_connectivity", {})  # raw labels and witnesses, by connectivity

    @property
    def num_teams(self) -> int:
        return len(self.teams)

    @cached_property
    def totals(self) -> Array:
        """``derive_totals`` of the counts."""
        return derive_totals(self.counts)

    @cached_property
    def scores(self) -> Array:
        """Win score per team: ``a_i = sum_j a_ij``."""
        counts, t = self.counts, self.num_teams
        s = np.bincount(counts.i, self.totals[0], t) + np.bincount(counts.j, self.totals[1], t)
        s.setflags(write=False)
        return s


def venue_dataset(teams, a_home, a_away, t_home=None) -> Dataset:
    """Build a venue-aware Dataset from matrices (``t_home`` defaults to zero)."""
    a_home = np.asarray(a_home, dtype=np.float64)
    t_home = np.zeros_like(a_home) if t_home is None else t_home
    return Dataset(teams=tuple(teams), counts=_dense_counts(a_home, a_away, t_home))


def venue_free_dataset(teams, a, ties=None) -> Dataset:
    """Build a venueless Dataset from a win matrix ``a`` (and optional
    symmetric tie matrix).

    The counts are stored in the host slots purely as a container (the ties
    as the upper triangle); the dataset is flagged venueless so venue-aware
    operations refuse it.
    """
    a = np.asarray(a, dtype=np.float64)
    ties = np.zeros_like(a) if ties is None else np.asarray(ties, dtype=np.float64)
    if not np.array_equal(ties, ties.T):
        raise ShapeError("tie matrix must be symmetric for venueless data")
    counts = _dense_counts(a, np.zeros_like(a), np.triu(ties), ("a", "a", "ties"))
    return Dataset(teams=tuple(teams), counts=counts, venueless=True)


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


class Normalization(enum.Enum):
    REFERENCE = "reference"  # u_1 = 1
    SIMPLEX = "simplex"  # sum(u) = 1


AUTO_EPSILON = "auto"


class _EpsilonScheme(Record):
    """A perturbation that adds one ``epsilon`` to win counts: a positive
    finite number, or the string ``"auto"``."""

    epsilon: float | str

    def __post_init__(self):
        value = self.epsilon
        if isinstance(value, str):
            if value == AUTO_EPSILON:
                return
            raise NonPositiveEpsilonError(
                f"epsilon must be a positive number or {AUTO_EPSILON!r}, got {value!r}"
            )
        if is_bool(value):
            raise NonPositiveEpsilonError(f"epsilon must be a positive number, got {value!r}")
        eps = float(value)
        if not math.isfinite(eps) or eps <= 0.0:
            raise NonPositiveEpsilonError(f"epsilon must be positive, got {eps}")
        object.__setattr__(self, "epsilon", eps)


class Improved(_EpsilonScheme):
    """Add ``epsilon`` to a win count only where the pair actually met.

    ``epsilon`` may be the string ``"auto"``, resolved against the dataset as
    ``sqrt(log(t) / t)`` at perturbation time.
    """


class ConnerGrant(_EpsilonScheme):
    """Add ``epsilon`` to every off-diagonal win count, met or not."""


class MatrixShift(Record):
    """Add an arbitrary prior matrix ``a0`` to the venue-free win counts.

    Entries must exceed -1 and the diagonal must be zero. Only the
    venue-free models take a shift (``ModelSpec`` refuses it for the venue
    models), and a fit refuses (ExistenceError) a shift that leaves any win
    count of ``a + a0`` negative.
    """

    a0: Array

    def __post_init__(self):
        a0 = _freeze(self.a0, "a0")
        if np.any(a0 <= -1.0):
            raise ConfigError("every a0 entry must be greater than -1")
        object.__setattr__(self, "a0", a0)


PerturbationSpec = Union[Improved, ConnerGrant, MatrixShift]


class PerturbedCounts(Record):
    """Counts after perturbation, over their own edge list.

    ``i``, ``j`` and ``games`` are laid out as in ``CountMatrices``, with
    the perturbed host and visitor wins the venue models read and the raw
    ties; a pair may carry only perturbation. On venueless data, which the
    venue models refuse, an epsilon scheme leaves ``games`` raw. ``wins``
    (2, edges) holds the perturbed venue-free wins of i over j and of j
    over i that the other models read (under Improved, the raw wins plus
    eps, not the sum of the perturbed venue wins, which would add eps twice
    to a pair that met at both venues).

    ``epsilon`` records the resolved magnitude (None for MatrixShift).
    """

    num_teams: int
    i: np.ndarray
    j: np.ndarray
    games: Array
    wins: Array
    venueless: bool
    epsilon: float | None

    def __post_init__(self):
        for name in ("games", "wins"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


class ModelSpec(Record):
    """Which model to fit, how to perturb, and how to normalize the output.

    A ``MatrixShift`` perturbs the venue-free wins only, so the venue
    models refuse it (ConfigError); they take an epsilon scheme.
    """

    model: Model
    perturbation: PerturbationSpec
    normalization: Normalization = Normalization.REFERENCE

    def __post_init__(self):
        for value, kind in ((self.model, Model), (self.normalization, Normalization)):
            if not isinstance(value, kind):
                raise ConfigError(f"expected a {kind.__name__}, got {value!r}")
        if not isinstance(self.perturbation, PerturbationSpec):
            raise ConfigError(
                "perturbation must be Improved, ConnerGrant or MatrixShift, "
                f"got {self.perturbation!r}"
            )
        if isinstance(self.perturbation, MatrixShift) and self.model.has_home_parameter:
            raise ConfigError(
                f"the {self.model.value} model takes no matrix shift, which perturbs "
                "the venue-free wins only; use improved or conner-grant"
            )


class ParameterPoint(Record):
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


class FitResult(Record):
    """Outcome of one model fit.

    ``log_likelihood`` and ``gradient_sup_norm`` are the maximized objective
    (the perturbed log-likelihood, or the log-posterior for the MAP fit) and
    its gradient's sup-norm at the returned point; ``trace`` holds the
    objective per accepted iteration. ``last_step`` is the sup-norm of the
    last Newton step solved, taken or not (inf if none). ``scores`` carries
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
    last_step: float
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
        if not self.converged:
            raise NonConvergenceError(
                f"no convergence after {self.iterations} iterations "
                f"(gradient sup-norm {self.gradient_sup_norm:.3e})"
            )
        return self


class Ranking(Record):
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
        object.__setattr__(self, "order", tuple(map(int, self.order)))
        groups = tuple(map(tuple, self.groups))
        if not set(map(type, chain.from_iterable(groups))) <= {int}:  # numpy integers, say
            groups = tuple([tuple(map(int, g)) for g in groups])
        object.__setattr__(self, "groups", groups)
        if sorted(self.order) != list(range(len(self.teams))):
            raise ShapeError("order must be a permutation of the team indices")
        if list(chain.from_iterable(groups)) != list(self.order):
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


class PartitionWitness(Record):
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
