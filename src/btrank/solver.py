"""Fit the five models by penalized maximum likelihood, plus the posterior
mode of the Bradley-Terry merits under Gamma priors.

All six fits maximize a concave function of the log merits (plus the log tie
and home parameters), with at most t + 1 free parameters, so one damped
Newton method serves them all (``maximize_concave``). Each iteration solves
``-H d = g`` for the Newton direction by an LU factorization (numpy's, so no
fit imports SciPy) and keeps it only if it ascends: the slope ``g' d`` must
be finite and positive, which it is whenever ``-H`` is positive definite.
A singular ``-H``, or one that is not positive definite along ``d`` (only a
caller-supplied objective or numerical breakdown can do that, as negative
shifted counts are refused), gets the gradient direction instead. It then
backtracks from the full step until the Armijo condition holds. An
objective marks its domain by returning ``(-inf, None, None)`` outside it
(the Rao-Kupper tie parameter), which fails the Armijo test, so steps
leaving the domain are halved like any other.

A fit stops converged once the gradient sup-norm reaches ``grad_tol``. Half
the Newton decrement ``g' (-H)^-1 g`` bounds the objective still to gain.
Once it is at most ``rel_ll_tol * max(1, |objective|)``, the objective is
flat at working precision and its quadratic model exact to rounding: only
the full Newton step is tried, and it is kept if it passes the Armijo test
or lowers the gradient sup-norm (the objective may then drop by rounding);
otherwise the fit stops converged. Above that bound, a line search that
finds no improving step stops the fit unconverged, as does using up
``max_iters`` iterations. Strict concavity makes the optimum unique, so
each fit runs once, from the objective's deterministic start.

Every fit re-verifies existence before iterating, refusing with a witness
rather than diverging. Building the Objective first refuses venue models on
venueless data and tie models on data without ties (tie counts are never
perturbed, so this holds whatever the scheme). Then one rule serves every
scheme, Ford's condition on the perturbed data (Assumption 1 of Hunter
2004): no perturbed win count the model reads may be negative, and the
perturbed win digraph must be strongly connected. For the venue models that
digraph has an edge i -> j where i hosted j in a game the model reads: a
decisive one (``a_home + a_away.T``) for home-field, any one (``n_host``)
for the model with ties. A venue model also needs some perturbed home-win
weight and some visitor-win weight, or the home advantage runs off to 0 or
infinity. Improved adds epsilon exactly where the pair met, to both
outcomes of every hosted pairing, so its perturbed ``a_free`` is positive
iff ``n > 0`` and both venue digraphs have an edge iff ``n_host > 0``: the
rule is then Condition B (venue-free models) or C (venue models) of the raw
data. ConnerGrant lifts every pair, so the rule always holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .connectivity import CONDITION_B, CONDITION_C, strong_connectivity_witness
from .errors import ConfigError, ExistenceError
from .likelihood import Objective, PosteriorObjective
from .perturbation import perturb
from .types import (
    Array,
    Dataset,
    FitResult,
    Improved,
    MatrixShift,
    Model,
    ModelSpec,
    Normalization,
    ParameterPoint,
    PerturbedCounts,
    is_integer,
)

_ARMIJO_C = 1e-4
_HALVINGS = 60  # the smallest trial step is 2**-59


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by all fits.

    A fit is converged when the gradient sup-norm reaches ``grad_tol``, or
    when half the Newton decrement, a bound on the objective still to gain,
    is at most ``rel_ll_tol * max(1, |objective|)`` and the full Newton step
    neither raises the objective nor lowers the gradient. ``max_iters``,
    an integer >= 1, bounds the Newton iterations. The final gradient sup-norm is recorded
    on the FitResult.
    """

    grad_tol: float = 1e-8
    rel_ll_tol: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        if not (0 < self.grad_tol < math.inf and 0 < self.rel_ll_tol < math.inf):
            raise ConfigError("tolerances must be positive and finite")
        iters = self.max_iters
        if not is_integer(iters) or iters < 1:
            raise ConfigError(f"max_iters must be a finite integer >= 1, got {iters!r}")


@dataclass(frozen=True)
class MapPriorSpec:
    """Independent Gamma(shape, rate) prior on every merit.

    ``rate=None`` resolves to ``shape * t - 1`` for a t-team dataset (see
    ``resolved_rate``). ``shape == 1`` with ``rate == 0`` is the flat prior,
    making the MAP coincide with the unpenalized maximum likelihood estimate.
    """

    shape: float
    rate: float | None = None

    def __post_init__(self):
        if not 1.0 <= self.shape < math.inf:
            raise ConfigError(f"prior shape must be finite and >= 1, got {self.shape}")
        if self.rate is not None and not 0.0 <= self.rate < math.inf:
            raise ConfigError(f"prior rate must be finite and >= 0, got {self.rate}")

    @property
    def ml_equivalent(self) -> bool:
        return self.shape == 1.0 and self.rate == 0.0

    def resolved_rate(self, t: int) -> float:
        """The rate for a t-team dataset: ``rate``, or ``shape * t - 1``."""
        if self.rate is not None:
            return float(self.rate)
        return float(self.shape) * t - 1.0


@dataclass(frozen=True)
class _Solution:
    x: Array
    value: float
    trace: tuple[float, ...]
    iterations: int
    gradient_sup_norm: float
    converged: bool


def _newton(objective, start: Array, config: SolverConfig) -> _Solution:
    """Damped Newton ascent with the stop rules of the module docstring."""
    x = np.array(start, dtype=float)
    f, g, h = objective.value_gradient_hessian(x)
    if not np.isfinite(f) or g is None:
        raise ConfigError("start point lies outside the objective's domain")

    trace = [float(f)]
    iterations = 0
    grad_norm = float(np.max(np.abs(g)))
    converged = grad_norm <= config.grad_tol
    while not converged and iterations < config.max_iters:
        iterations += 1
        try:
            direction = np.linalg.solve(-h, g)
            slope = float(g @ direction)  # the Newton decrement on a Newton step
        except LinAlgError:
            slope = math.nan
        newton = 0.0 < slope < math.inf
        if not newton:
            direction, slope = g, float(g @ g)
        at_rounding = newton and slope / 2.0 <= config.rel_ll_tol * max(1.0, abs(f))
        step = 1.0
        for _ in range(1 if at_rounding else _HALVINGS):
            candidate = x + step * direction
            trial = objective.value_gradient_hessian(candidate)
            if trial[0] > f + _ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            # No step improves the objective at working precision. Where it
            # is flat to rounding the quadratic model is exact, so the full
            # Newton step is still kept if it lowers the gradient.
            if not (
                at_rounding
                and trial[1] is not None
                and np.max(np.abs(trial[1])) < grad_norm
            ):
                converged = at_rounding
                break
        x = candidate
        f, g, h = trial
        trace.append(float(f))
        grad_norm = float(np.max(np.abs(g)))
        converged = grad_norm <= config.grad_tol

    return _Solution(
        x=x,
        value=float(f),
        trace=tuple(trace),
        iterations=iterations,
        gradient_sup_norm=grad_norm,
        converged=converged,
    )


def maximize_concave(objective, start, config: SolverConfig | None = None):
    """Maximize a concave objective from ``start`` by damped Newton.

    ``objective`` needs a ``value_gradient_hessian(x) -> (float, ndarray,
    ndarray)`` method, which every line-search trial calls and which returns
    ``(-inf, None, None)`` outside the domain. The stop rules are those of
    SolverConfig. Returns ``(point, trace)`` where ``trace`` lists the
    objective value at the start and after each accepted iteration; it is
    non-decreasing, up to rounding on steps taken where the objective is
    flat to rounding.
    """
    config = config or SolverConfig()
    result = _newton(objective, np.asarray(start, dtype=float), config)
    return result.x, result.trace


class _Negated:
    def __init__(self, objective):
        self._objective = objective

    def value_gradient_hessian(self, x):
        f, g, h = self._objective.value_gradient_hessian(x)
        if g is None:
            return -f, None, None
        return -f, -g, -h


def minimize(objective, start, config: SolverConfig | None = None):
    """Minimize a convex objective, such as a negative log-likelihood.

    The counterpart of ``maximize_concave``: the same damped Newton method
    and stop rules, run on the negated objective, whose
    ``value_gradient_hessian`` returns ``(inf, None, None)`` outside the
    domain. Returns ``(point, trace)`` with a non-increasing trace.
    """
    x, trace = maximize_concave(_Negated(objective), start, config)
    return x, tuple(-value for value in trace)


# Witness (condition, detail) by (Improved scheme, venue model): under
# Improved the perturbed digraphs have the raw data's edges (Conditions B, C).
_WITNESS_WORDING = {
    (True, False): CONDITION_B,
    (True, True): CONDITION_C,
    (False, False): (
        "A",
        "after the shift, no team in the second set has positive win weight "
        "over the first set",
    ),
    (False, True): (
        "C",
        "after the shift, no team in the second set hosts any team in the "
        "first set in a game the model reads",
    ),
}


def _verify_existence(spec: ModelSpec, teams, perturbed: PerturbedCounts) -> None:
    """Refuse unless the perturbed counts the model reads meet Ford's condition."""
    model = spec.model
    _refuse_negative_counts(model, perturbed, teams)
    if not model.needs_venues:
        weights = perturbed.a_free
    elif model.needs_ties:
        weights = perturbed.n_host
    else:  # home-field never reads the ties
        weights = perturbed.a_home + perturbed.a_away.T
    condition, detail = _WITNESS_WORDING[
        isinstance(spec.perturbation, Improved), model.needs_venues
    ]
    witness = strong_connectivity_witness(weights, condition, detail)
    if witness is not None:
        raise ExistenceError(
            f"the {model.value} estimate does not exist for these data: "
            + witness.describe(teams),
            witness=witness,
        )
    if model.needs_venues:
        for name in ("a_home", "a_away"):
            if not getattr(perturbed, name).sum() > 0:
                raise ExistenceError(
                    f"the {model.value} estimate does not exist for these data: after "
                    f"the shift, {name} holds no positive win weight, so the home "
                    "advantage has no finite estimate"
                )


def _refuse_negative_counts(model: Model, perturbed: PerturbedCounts, teams) -> None:
    """Refuse a shift that leaves a win count the model reads below zero.

    A negative count rewards driving that pair's win probability to 0, so
    the objective is no longer concave and need not be bounded above.
    """
    names = ("a_home", "a_away") if model.needs_venues else ("a_free",)
    for name in names:
        counts = getattr(perturbed, name)
        negative = counts < 0
        if negative.any():
            i, j = np.unravel_index(negative.argmax(), counts.shape)  # first in row order
            raise ExistenceError(
                f"refused: after the shift, {name} gives team {teams[i]!r} a "
                f"negative win count {counts[i, j]:g} over team {teams[j]!r}, so "
                f"the {model.value} estimate is not guaranteed to exist"
            )


def _fit_result(
    model: Model,
    dataset: Dataset,
    solution: _Solution,
    point: ParameterPoint,
    normalization: Normalization,
    epsilon: float | None,
) -> FitResult:
    """The FitResult of every fit, merits normalized as asked."""
    u = np.exp(point.beta - point.beta.max())  # guard against overflow for extreme merits
    return FitResult(
        model=model,
        teams=dataset.teams,
        merits_u=u / (u.sum() if normalization is Normalization.SIMPLEX else u[0]),
        beta=point.beta,
        theta_hat=point.theta,
        gamma_hat=point.gamma,
        log_likelihood=solution.value,
        iterations=solution.iterations,
        converged=solution.converged,
        gradient_sup_norm=solution.gradient_sup_norm,
        trace=solution.trace,
        scores=dataset.scores,
        normalization=normalization,
        epsilon=epsilon,
    )


def fit(model_spec: ModelSpec, dataset: Dataset, config: SolverConfig | None = None) -> FitResult:
    """Fit one model to a dataset by penalized maximum likelihood.

    Existence is re-verified here whatever the caller already checked;
    violations raise VenuelessDataError, NoTiesError or ExistenceError
    (with a witness), checked in that order. A fit that exhausts its
    iteration budget is still returned, with ``converged=False``; use
    ``FitResult.ensure_converged`` to turn that into an error.
    """
    config = config or SolverConfig()
    perturbed = perturb(dataset, model_spec.perturbation)
    objective = Objective(model_spec.model, perturbed)  # venue and tie refusals
    _verify_existence(model_spec, dataset.teams, perturbed)
    solution = _newton(objective, objective.initial_point(), config)
    point = objective.unpack(solution.x)
    return _fit_result(
        model_spec.model, dataset, solution, point, model_spec.normalization, perturbed.epsilon
    )


def _map_mode(dataset: Dataset, d: float, b: float, config: SolverConfig) -> _Solution:
    """The unnormalized posterior mode of a proper prior, over all t log merits."""
    posterior = PosteriorObjective(dataset.totals.a, d, b)
    return _newton(posterior, posterior.initial_point(), config)


def fit_map_em(
    dataset: Dataset,
    prior: MapPriorSpec,
    config: SolverConfig | None = None,
    normalization: Normalization = Normalization.SIMPLEX,
) -> FitResult:
    """Posterior mode of the Bradley-Terry merits under Gamma priors.

    The mode exists in the interior only for shape > 1 with rate > 0, or
    for the flat prior (shape 1, rate 0); any other prior is refused. The
    flat prior adds nothing to the likelihood, so its mode is the
    Bradley-Terry fit under a zero ``MatrixShift``, refused as that fit is
    when the win digraph is not strongly connected. Merits are reported on
    the simplex by default. ``log_likelihood`` on the result is the
    unnormalized log-posterior, and ``gradient_sup_norm`` is measured with
    respect to log-merits so it is scale-free.

    Ties in the data are ignored: the underlying outcome model is win/loss
    only.
    """
    if prior.ml_equivalent:
        t = dataset.num_teams
        flat = ModelSpec(Model.BRADLEY_TERRY, MatrixShift(np.zeros((t, t))), normalization)
        return fit(flat, dataset, config)
    config = config or SolverConfig()
    d = float(prior.shape)
    b = prior.resolved_rate(dataset.num_teams)
    if d == 1.0:
        raise ConfigError(
            "with shape 1 the posterior is scale-invariant in the likelihood "
            "but decays with the rate, so no interior mode exists; use rate 0"
        )
    if b == 0.0:
        raise ConfigError(
            "with shape > 1 and rate 0 the log-posterior grows without bound "
            "along uniform rescaling, so no mode exists"
        )
    mode = _map_mode(dataset, d, b, config)
    point = ParameterPoint(beta=mode.x - mode.x[0])
    return _fit_result(Model.BRADLEY_TERRY, dataset, mode, point, normalization, None)
