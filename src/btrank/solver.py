"""Fit the five models by penalized maximum likelihood, plus the posterior
mode of the Bradley-Terry merits under Gamma priors.

All six fits maximize a concave function of the log merits (plus the log tie
and home parameters), with at most t + 1 free parameters, so one damped
Newton method serves them all (``maximize_concave``). Each iteration solves
``-H d = g`` for the Newton direction and keeps it only if it ascends: the
slope ``g' d`` must be finite and positive, which it is whenever ``-H`` is
positive definite. A singular ``-H``, or one that is not positive definite
along ``d`` (only a caller-supplied objective or numerical breakdown can do
that, as negative shifted counts are refused), gets the gradient direction
instead. It then backtracks from the full step until the Armijo condition
holds. An objective marks its domain by returning ``(-inf, None, None)``
outside it (the Rao-Kupper tie parameter), which fails the Armijo test, so
steps leaving the domain are halved like any other.

The linear solve follows one size rule, ``likelihood.edge_form``: from 200
teams on, while fewer than ``t**2 / 16`` pairs have met, the Hessian comes
in edge form (``EdgeHessian``); otherwise it is a dense array, solved by
numpy's LU. Its constants are measured crossovers: on sparse leagues the LU
fit is faster up to about 150 teams and the sparse one from about 200, and a
dense league keeps the LU (a fully met 300-team league runs at par). An
edge-form step is solved by conjugate gradients on ``-H``, each product
O(t + edges) by ``np.bincount``, with a two-level preconditioner: Jacobi on
the fine level, plus the additive coarse correction ``Z (Z' -H Z)^-1 Z' r``
(Tang et al. 2009 compare such two-level preconditioners). ``Z`` has one
indicator column per strongly connected component of the raw digraph the
existence rule reads (the counts before perturbation), labelled once per
fit, and one per tie or home parameter; the m x m system ``Z' -H Z`` is
inverted once per step. When the raw data fail strong connection, only
O(eps) curvature joins those components, so their indicators are the
near-null directions of ``-H`` that leave plain Jacobi-PCG stalling as eps
goes to 0; the coarse level solves them exactly. The step is an inexact
Newton step (Eisenstat and Walker 1996): the first is solved to a residual of
a tenth of ``|g|`` (2-norms), each later one to the sup-norm of the step
before it (capped at a tenth), so the solves tighten as the steps shrink.

A fit stops converged once the Newton step at the current point has
sup-norm at most 1e-9, in log-merit units: near the maximizer that is its
distance from it, whatever the curvature (where only O(eps) curvature joins
the components, a small gradient does not make the point close). It also
stops converged where the gradient is exactly 0. The last step is not
taken. Half the Newton decrement ``g' (-H)^-1 g`` bounds the objective
still to gain. Once it is at most ``rel_ll_tol * max(1, |objective|)``, the
objective is flat at working precision and its quadratic model exact to
rounding: only the full Newton step is tried, and it is kept if it passes
the Armijo test or lowers the gradient sup-norm (the objective may then
drop by rounding); otherwise float64 cannot resolve the step and the fit
stops unconverged. Above that bound, a line search that finds no improving
step stops the fit unconverged, as does using up ``max_iters`` iterations.
Strict concavity makes the optimum unique, so each fit runs once, from the
objective's deterministic start.

Every fit re-verifies existence before iterating, refusing with a witness
rather than diverging. Building the Objective first refuses venue models on
venueless data and tie models on data without ties (tie counts are never
perturbed, so this holds whatever the scheme). Then one rule serves every
scheme, Ford's condition on the perturbed data (Assumption 1 of Hunter
2004): no perturbed win count the model reads may be negative, and the
perturbed win digraph must be strongly connected. Both are read per edge
(``_digraph``). For the venue models that digraph has an arc i -> j where i
hosted j in a game the model reads: a decisive one (host win or visitor
win) for home-field, any one for the model with ties. A venue model also
needs some perturbed home-win weight and some visitor-win weight, or the
home advantage runs off to 0 or infinity. Improved adds epsilon exactly
where the pair met, to both outcomes of every hosted orientation, so its
venue-free wins are positive both ways on every edge and both venue
digraphs have an arc wherever a game was hosted: the rule is then
Condition B (venue-free models) or C (venue models) of the raw data.
ConnerGrant lifts every pair, so the rule always holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .connectivity import (
    CONDITION_B,
    CONDITION_C,
    arcs,
    strong_components,
    strong_connectivity_witness,
)
from .errors import ConfigError, ExistenceError
from .likelihood import EdgeHessian, Objective, PosteriorObjective, edge_form
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
_STEP_TOL = 1e-9  # a fit is converged once the Newton step is this short
_CG_RTOL = 0.1  # the loosest relative residual of a sparse Newton step


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by all fits.

    A fit is converged when its Newton step is at most 1e-9 in sup-norm (see
    the module docstring). Where half the Newton decrement, a bound on the
    objective still to gain, is at most ``rel_ll_tol * max(1, |objective|)``,
    only the full Newton step is tried. ``max_iters``, an integer >= 1,
    bounds the Newton iterations. ``grad_tol`` is validated but unread: no
    fit stops on the gradient. The final gradient sup-norm is recorded on
    the FitResult.
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


def _pcg(h: EdgeHessian, g: Array, labels: np.ndarray | None, rtol: float):
    """``(d, iterations)``: the solution of ``-H d = g`` for an edge-form
    Hessian by conjugate gradients, preconditioned with two levels as in the
    module docstring, run until the residual is at most ``rtol`` times
    ``|g|`` (2-norms) or for ``len(g)`` iterations. ``labels`` (None: all
    merits in one) are the coarse components of the merits."""
    a = -h
    t, k, pinned = len(a.shift), len(a.block), a.pinned
    merit = np.zeros(t, dtype=np.intp) if labels is None else labels
    # renumbered, as a component of pinned merits only would have no column
    present, layout = np.unique(
        np.concatenate([merit[pinned:], merit.max() + 1 + np.arange(k)]), return_inverse=True
    )
    m = len(present)
    coarse = np.linalg.inv(a.galerkin(layout, m))
    jacobi = 1.0 / a.diagonal()

    def deflate(r):  # Z (Z' -H Z)^-1 Z' r
        return (coarse @ np.bincount(layout, r, m))[layout]

    d = deflate(g)
    r = g - a.matvec(d)
    goal = rtol * np.sqrt(g @ g)
    p = rho = None
    for iterations in range(len(g) + 1):
        if not np.sqrt(r @ r) > goal:
            break
        z = jacobi * r + deflate(r)
        rho, previous = r @ z, rho
        p = z if p is None else z + (rho / previous) * p
        q = a.matvec(p)
        alpha = rho / (p @ q)
        d = d + alpha * p
        r = r - alpha * q
    return d, iterations


def _newton_direction(g: Array, h, labels, rtol: float) -> tuple[Array, float, bool]:
    """``(direction, slope, newton)``: the Newton step if it ascends, else
    the gradient."""
    try:
        if isinstance(h, EdgeHessian):
            direction = _pcg(h, g, labels, rtol)[0]
        else:
            direction = -np.linalg.solve(h, g)
        slope = float(g @ direction)  # the Newton decrement on a Newton step
    except LinAlgError:
        slope = math.nan
    if 0.0 < slope < math.inf:
        return direction, slope, True
    return g, float(g @ g), False


def _newton(objective, start: Array, config: SolverConfig, labels=None) -> _Solution:
    """Damped Newton ascent with the stop rules of the module docstring;
    ``labels`` are the components of the coarse space of the sparse step."""
    x = np.array(start, dtype=float)
    f, g, h = objective.value_gradient_hessian(x)
    if not np.isfinite(f) or g is None:
        raise ConfigError("start point lies outside the objective's domain")

    trace = [float(f)]
    iterations = 0
    grad_norm = float(np.abs(g).max())
    converged = False
    rtol = _CG_RTOL
    while True:
        direction, slope, newton = _newton_direction(g, h, labels, rtol)
        size = float(np.abs(direction).max())
        if newton and size <= _STEP_TOL or not g.any():
            converged = True
            break
        rtol = min(_CG_RTOL, size)  # the next sparse step is solved this closely
        if iterations >= config.max_iters:
            break
        iterations += 1
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
            # Newton step is still kept if it lowers the gradient; otherwise
            # float64 cannot resolve the step and the fit stops unconverged.
            if not (
                at_rounding
                and trial[1] is not None
                and np.abs(trial[1]).max() < grad_norm
            ):
                break
        x = candidate
        f, g, h = trial
        trace.append(float(f))
        grad_norm = float(np.abs(g).max())

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
    Hessian)`` method, which every line-search trial calls and which returns
    ``(-inf, None, None)`` outside the domain. The Hessian is a square
    ndarray, solved by LU, or an ``EdgeHessian``, solved by the two-level
    PCG of the module docstring with all merits in one coarse component. The
    stop rules are those of the module docstring. Returns ``(point, trace)``
    where ``trace`` lists the objective value at the start and after each
    accepted iteration; it is non-decreasing, up to rounding on steps taken
    where the objective is flat to rounding.
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


def _digraph(model: Model, games: Array, wins: Array) -> Array:
    """Weights (2, edges) of the arcs i -> j and j -> i the existence rule
    reads: the venue-free wins, or the games a venue model reads by host."""
    if not model.needs_venues:
        return wins
    if model.needs_ties:
        return games.sum(axis=0)
    return games[0] + games[1]  # home-field never reads the ties


def _verify_existence(spec: ModelSpec, teams, perturbed: PerturbedCounts) -> None:
    """Refuse unless the perturbed counts the model reads meet Ford's condition."""
    model = spec.model
    _refuse_negative_counts(model, perturbed, teams)
    weights = _digraph(model, perturbed.games, perturbed.wins)
    condition, detail = _WITNESS_WORDING[
        isinstance(spec.perturbation, Improved), model.needs_venues
    ]
    witness = strong_connectivity_witness(
        perturbed.num_teams, *arcs(perturbed.i, perturbed.j, weights), condition, detail
    )
    if witness is not None:
        raise ExistenceError(
            f"the {model.value} estimate does not exist for these data: "
            + witness.describe(teams),
            witness=witness,
        )
    if model.needs_venues:
        for name, outcome in (("a_home", 0), ("a_away", 1)):
            if not perturbed.games[outcome].sum() > 0:
                raise ExistenceError(
                    f"the {model.value} estimate does not exist for these data: after "
                    f"the shift, {name} holds no positive win weight, so the home "
                    "advantage has no finite estimate"
                )


def _refuse_negative_counts(model: Model, perturbed: PerturbedCounts, teams) -> None:
    """Refuse a shift that leaves a win count the model reads below zero.

    A negative count rewards driving that pair's win probability to 0, so
    the objective is no longer concave and need not be bounded above.
    The first negative count in row order is named, as an entry of the
    t x t matrix it belongs to (``a_free``: the venue-free wins).
    """
    i, j, t, g = perturbed.i, perturbed.j, perturbed.num_teams, perturbed.games
    # each (2, edges): row 0 the wins of i over j, row 1 those of j over i
    views = {"a_free": perturbed.wins, "a_home": g[0], "a_away": g[1, ::-1]}
    for name in ("a_home", "a_away") if model.needs_venues else ("a_free",):
        counts = views[name]
        negative = counts < 0
        if negative.any():
            winner, loser = np.stack([i, j]), np.stack([j, i])
            first = np.argmin(np.where(negative, winner * t + loser, t * t))
            x, y = winner.flat[first], loser.flat[first]
            raise ExistenceError(
                f"refused: after the shift, {name} gives team {teams[x]!r} a "
                f"negative win count {counts.flat[first]:g} over team {teams[y]!r}, so "
                f"the {model.value} estimate is not guaranteed to exist"
            )


def _raw_components(model: Model, dataset: Dataset, pairs: int) -> np.ndarray | None:
    """Labels of the strongly connected components of the raw digraph the
    existence rule reads (the counts before perturbation); None below the
    size rule for ``pairs`` edges, where the step is solved by LU and needs
    no coarse space."""
    t = dataset.num_teams
    if not edge_form(t, pairs):
        return None
    counts = dataset.counts
    weights = _digraph(model, counts.games, dataset.totals[:2])
    return strong_components(t, *arcs(counts.i, counts.j, weights))


def _fit_result(
    model: Model,
    dataset: Dataset,
    solution: _Solution,
    point: ParameterPoint,
    normalization: Normalization,
    epsilon: float | None,
) -> FitResult:
    """The FitResult of every fit, merits normalized as asked."""
    simplex = normalization is Normalization.SIMPLEX
    # the simplex shift guards against overflow; under REFERENCE (beta[0] == 0)
    # a merit beyond float64 range reads inf
    with np.errstate(over="ignore"):
        u = np.exp(point.beta - point.beta.max() if simplex else point.beta)
    return FitResult(
        model=model,
        teams=dataset.teams,
        merits_u=u / u.sum() if simplex else u,
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
    labels = _raw_components(model_spec.model, dataset, len(perturbed.i))
    solution = _newton(objective, objective.initial_point(), config, labels)
    point = objective.unpack(solution.x)
    return _fit_result(
        model_spec.model, dataset, solution, point, model_spec.normalization, perturbed.epsilon
    )


def _map_mode(dataset: Dataset, d: float, b: float, config: SolverConfig) -> _Solution:
    """The unnormalized posterior mode of a proper prior, over all t log merits."""
    posterior = PosteriorObjective(dataset.counts, d, b)
    labels = _raw_components(Model.BRADLEY_TERRY, dataset, len(posterior.edges[0]))
    return _newton(posterior, posterior.initial_point(), config, labels)


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
