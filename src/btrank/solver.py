"""Fit the five models by penalized maximum likelihood, plus the posterior
mode of the Bradley-Terry merits under Gamma priors.

All six fits maximize a concave function of the log merits (plus the log tie
and home parameters), with at most t + 1 free parameters, so one damped
Newton method serves them all (``maximize_concave``). Each iteration solves
``H d = -g`` for the Newton direction, on the Hessian H as the objective
returns it, and keeps it only if it ascends: the slope ``g' d = -g' H^-1 g``
(the Newton decrement) must be finite and positive, which it is whenever H
is negative definite. A singular H, or one that is not negative definite
along ``d`` (only a caller-supplied objective or numerical breakdown can do
that, as negative shifted counts are refused), gets the gradient direction
instead. It then backtracks from the full step until the Armijo condition
holds. An objective marks its domain by returning ``(-inf, None, None)``
outside it (the Rao-Kupper tie parameter), which fails the Armijo test, so
steps leaving the domain are halved like any other.

The objectives return their Hessians in edge form (``EdgeHessian``), and
the linear solve follows one size rule, ``edge_form``, which ``_newton``
applies once per fit, to its first Hessian: from 200 teams on, while fewer
than ``t**2 / 16`` pairs have met, the step is solved in edge form;
otherwise the Hessian is scattered to a dense array (``np.asarray(h)``) and
solved by LAPACK's LU, the gesv gufunc ``numpy.linalg._umath_linalg.solve1``
that ``np.linalg.solve`` wraps, called under the same error state: the same
step without the wrapper's cost (the sparse step's coarse level calls the
``inv`` gufunc of ``np.linalg.inv`` the same way). Its constants are measured
crossovers: on sparse leagues the LU fit is faster up to about 150 teams and
the sparse one from about 200, and a dense league keeps the LU (a fully met
300-team league runs at par). An edge-form step is solved by conjugate
gradients on ``H d = -g``, each product O(t + edges) by ``np.bincount``,
with a two-level preconditioner: Jacobi ``1 / diag(H)`` on the fine level,
plus the additive coarse correction ``Z (Z' H Z)^-1 Z' r`` (Tang et al.
2009 compare such two-level preconditioners). Every inner product flips
sign with H and rounding is symmetric in sign, so the iterates are bit for
bit those of CG on ``-H d = g``. ``Z`` has one indicator column per
strongly connected component of the raw digraph the existence rule reads
(the counts before perturbation), and one per tie or home parameter, last.
Its plan (``_coarse_layout``), the layout and every index of ``Z' H Z``, is
built once per fit, and a step only sums (``_galerkin``) and inverts
``Z' H Z``. When the raw data fail strong connection, only O(eps) curvature
joins those components, so their indicators are the near-null directions of
H that leave plain Jacobi-PCG stalling as eps goes to 0; the coarse level
solves them exactly. From ``_COARSE_PRUNE`` raw components on, a single
team's component gets no column: Jacobi scales its merit exactly, and the
O(m^3) inverse of an m-column ``Z' H Z`` costs more than the CG iterations
the column saves (the constant gives the measured crossover). The step is
an inexact Newton step (Eisenstat and Walker 1996): the first is solved to
a residual of a tenth of ``|g|`` (2-norms), each later one to the sup-norm
of the step before it (capped at a tenth), so the solves tighten as the
steps shrink, but never below ``_CG_FLOOR`` (1e-11) over that sup-norm. The
floor binds only after a step under about 3e-6, whose successor is mostly
the last step, of at most 1e-9, whose solve decides the stop (Dembo,
Eisenstat and Steihaug 1982).

A fit stops converged once the Newton step d at the current point x has
sup-norm at most 1e-9, in log-merit units, or the gradient is exactly 0.
On a Newton step the fit then evaluates x + d once and returns it if its
gradient sup-norm is no larger than at x: near the maximizer a Newton step
squares the error (Dennis and Schnabel 1983, ch. 5), so one evaluation buys
several digits. It is no iteration and has no ``trace`` entry; the value
and gradient returned are the returned point's. While float64 resolves the
step, its length is the distance from the maximizer, which a small gradient
is not where only O(eps) curvature joins the components. Below eps 1e-9, on
data that fail strong connection, the step along the component indicators
is rounding: a 5-team fit then stops converged 2.9e-5 from its maximizer at
eps 1e-12. Half the Newton decrement ``-g' H^-1 g`` bounds the objective
still to gain; once it is at most ``rel_ll_tol * max(1, |objective|)``, the
objective is flat at working precision and its quadratic model exact to
rounding: only the full Newton step is tried, and kept if it passes the
Armijo test or lowers the gradient sup-norm (the objective may then drop by
rounding); otherwise float64 cannot resolve the step and the fit stops
unconverged. Above that bound, a line search that finds no improving step,
or using up ``max_iters`` iterations, stops the fit unconverged. The
optimum is unique (strict concavity), so each fit runs once, from the
objective's deterministic start.

Every fit re-verifies existence before iterating, by Ford's condition on the
perturbed digraph the model reads (``connectivity.verify_existence``; that
module's docstring states the rule). The coarse space of the sparse step
reads the same digraph of the raw counts (``connectivity.raw_components``),
labelled once per dataset and digraph, which all fits of the dataset share:
each fit passes ``_newton`` its dataset and model.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import inv as _inv  # np.linalg.inv's gufunc
from numpy.linalg._umath_linalg import solve1 as _gesv  # np.linalg.solve's gufunc

from .connectivity import raw_components, verify_existence
from .errors import ConfigError
from .likelihood import EdgeHessian, Objective, PosteriorObjective
from .perturbation import perturb
from .types import (
    Array,
    Dataset,
    FitResult,
    Model,
    ModelSpec,
    Normalization,
    ParameterPoint,
    PerturbedCounts,
    Record,
    is_bool,
    is_integer,
)

_ARMIJO_C = 1e-4
_HALVINGS = 60  # the smallest trial step is 2**-59
_STEP_TOL = 1e-9  # a fit is converged once the Newton step is this short
_CG_RTOL = 0.1  # the loosest relative residual of a sparse Newton step
_CG_FLOOR = 0.01 * _STEP_TOL  # no sparse step is solved to a finer error
# single teams leave Z from this many raw components m on: on scripts/bench_kernel.py
# leagues, pruning takes 1.2-6x the CG iterations at m = 23 to 162 (fits 7% slower to
# 1.5x faster), and fits 2.5x faster at m = 274, 15x at m = 1,250 and 1,649
_COARSE_PRUNE = 200


class SolverConfig(Record):
    """Iteration controls shared by all fits.

    A fit is converged when its Newton step is at most 1e-9 in sup-norm; it
    then takes that step outside ``max_iters`` (see the module docstring).
    Where half the Newton decrement, a bound on the objective still to gain,
    is at most ``rel_ll_tol * max(1, |objective|)``, only the full Newton
    step is tried. ``max_iters``, an integer >= 1, bounds the Newton
    iterations. ``grad_tol`` is validated but unread: no fit stops on the
    gradient. The final gradient sup-norm is recorded on the FitResult.
    """

    grad_tol: float = 1e-8
    rel_ll_tol: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        tolerances = (self.grad_tol, self.rel_ll_tol)
        if any(is_bool(tol) or not 0 < tol < math.inf for tol in tolerances):
            raise ConfigError("tolerances must be positive and finite")
        iters = self.max_iters
        if not is_integer(iters) or iters < 1:
            raise ConfigError(f"max_iters must be a finite integer >= 1, got {iters!r}")


class MapPriorSpec(Record):
    """Independent Gamma(shape, rate) prior on every merit.

    ``rate=None`` resolves to ``shape * t - 1`` for a t-team dataset (see
    ``resolved_rate``). A prior is refused unless its posterior has a mode:
    shape > 1 with a rate that is not 0, or the flat prior, shape 1 with rate
    0, whose MAP is the unpenalized maximum likelihood estimate.
    """

    shape: float
    rate: float | None = None

    def __post_init__(self):
        if is_bool(self.shape) or not 1.0 <= self.shape < math.inf:
            raise ConfigError(f"prior shape must be a finite number >= 1, got {self.shape}")
        if self.rate is not None and (is_bool(self.rate) or not 0.0 <= self.rate < math.inf):
            raise ConfigError(f"prior rate must be a finite number >= 0, got {self.rate}")
        if self.shape == 1.0 and self.rate != 0.0:
            raise ConfigError(
                "with shape 1 the posterior is scale-invariant in the likelihood "
                "but decays with the rate, so no interior mode exists; use rate 0"
            )
        if self.shape > 1.0 and self.rate == 0.0:
            raise ConfigError(
                "with shape > 1 and rate 0 the log-posterior grows without bound "
                "along uniform rescaling, so no mode exists"
            )

    @property
    def ml_equivalent(self) -> bool:
        return self.shape == 1.0 and self.rate == 0.0

    def resolved_rate(self, t: int) -> float:
        """The rate for a t-team dataset: ``rate``, or ``shape * t - 1``."""
        if self.rate is not None:
            return float(self.rate)
        return float(self.shape) * t - 1.0


class _Solution(Record):
    x: Array
    value: float
    trace: tuple[float, ...]
    iterations: int
    gradient_sup_norm: float
    last_step: float
    converged: bool


def edge_form(t: int, pairs: int) -> bool:
    """The size rule: a Newton step over ``t`` merits and ``pairs`` met pairs
    is solved in edge form from 200 teams on, while fewer than ``t**2 / 16``
    pairs have met; otherwise by LU. The module docstring gives the
    crossovers behind the constants."""
    return t >= 200 and 16 * pairs < t * t


def _coarse_layout(labels: np.ndarray, h: EdgeHessian) -> SimpleNamespace:
    """The coarse plan of a fit laid out as ``h``: ``layout``, the column of
    Z of each unknown (of ``m``), one per component in ``labels`` with a free
    merit, then one per tie or home parameter, always the last k; ``merit``,
    those of the t merits (pinned ones on a dropped column m); ``cross``, the
    edges between columns, and ``flat``, the entries (a, b), (b, a), (a, a),
    (b, b) of ``Z' H Z`` their weights go to."""
    t, p, count = len(labels), h.pinned, labels.max() + 1
    extras = count + np.arange(len(h.block))
    dropped = count + len(h.block)  # a label past the tie and home columns
    if count >= _COARSE_PRUNE:
        labels = np.where(np.bincount(labels)[labels] > 1, labels, dropped)
    present, layout = np.unique(np.concatenate([labels[p:], extras]), return_inverse=True)
    m = len(present) - bool(present[-1] == dropped)
    merit = np.concatenate([np.full(p, m), layout[: t - p]])
    a, b = merit[h.arcs.i], merit[h.arcs.j]
    cross = a != b
    a, b, size = a[cross], b[cross], m + 1
    return SimpleNamespace(
        layout=layout, m=m, merit=merit, cross=cross,
        flat=np.concatenate([a * size + b, b * size + a, a * (size + 1), b * (size + 1)]),
    )


def _galerkin(h: EdgeHessian, plan: SimpleNamespace) -> Array:
    """``Z' H Z`` for the m indicator columns of a fit's coarse ``plan``
    (``_coarse_layout``), in O(t + edges + m^2): the plan's indices are fixed
    per fit, and only the weights are summed here."""
    size, w = plan.m + 1, h.weight[plan.cross]  # column m is dropped
    out = np.bincount(plan.flat, np.concatenate([w, w, -w, -w]), size * size)
    out = out.astype(float, copy=False)  # an int array where no edge crosses
    out[:: size + 1] += np.bincount(plan.merit, h.shift, size)  # the diagonal
    out = out.reshape(size, size)
    first = plan.m - len(h.block)  # the tie and home columns are the last k
    for column, row in enumerate(h.border, first):
        summed = np.bincount(plan.merit, row, size)
        out[column, :] += summed
        out[:, column] += summed
    out[first : plan.m, first : plan.m] += h.block
    return out[: plan.m, : plan.m]


def _pcg(h: EdgeHessian, g: Array, plan: SimpleNamespace, rtol: float):
    """``(d, iterations)``: the solution of ``H d = -g`` for an edge-form
    Hessian by conjugate gradients, preconditioned with two levels as in the
    module docstring (Jacobi ``1 / diag(H)`` plus ``Z (Z' H Z)^-1 Z' r``),
    run until the residual is at most ``rtol`` times ``|g|`` (2-norms) or
    for ``len(g)`` iterations. ``plan`` is the fit's coarse space."""
    layout, m = plan.layout, plan.m
    with np.errstate(**_LU_ERRORS):
        inverse = _inv(_galerkin(h, plan), signature="d->d")
    jacobi = 1.0 / h.diagonal()
    coarse = np.zeros(m + 1)  # entry m, of the dropped column, stays 0

    def deflate(r):  # Z (Z' H Z)^-1 Z' r
        np.matmul(inverse, np.bincount(layout, r, m + 1)[:m], out=coarse[:m])
        return coarse[layout]

    r = -g
    d = deflate(r)
    r -= h.matvec(d)
    goal = rtol * math.sqrt(g @ g)
    p = rho = None
    for iterations in range(len(g) + 1):
        if not math.sqrt(r @ r) > goal:
            break
        z = jacobi * r + deflate(r)
        rho, previous = r @ z, rho
        p = z if p is None else np.add(z, np.multiply(p, rho / previous, out=p), out=p)
        q = h.matvec(p)
        alpha = rho / (p @ q)
        d += alpha * p
        r -= alpha * q
    return d, iterations


def _singular(error, flag):
    raise LinAlgError("Singular matrix")


# the error state of np.linalg.solve and .inv: a singular matrix raises through _singular
_LU_ERRORS = {"call": _singular, "invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}


def _newton_direction(g: Array, h, coarse, rtol: float) -> tuple[Array, float, bool]:
    """``(direction, slope, newton)``: the Newton step if it ascends, else
    the gradient. The step is solved by LU on ``np.asarray(h)`` without a
    ``coarse`` layout (raising ``LinAlgError`` where H is singular, as
    ``np.linalg.solve`` does), by ``_pcg`` with one."""
    try:
        if coarse is None:
            with np.errstate(**_LU_ERRORS):
                direction = _gesv(np.asarray(h), -g, signature="dd->d")
        else:
            direction = _pcg(h, g, coarse, rtol)[0]
        slope = float(g @ direction)  # the Newton decrement on a Newton step
    except LinAlgError:
        slope = math.nan
    if 0.0 < slope < math.inf:
        return direction, slope, True
    return g, float(g @ g), False


def _newton(objective, start: Array, config: SolverConfig | None, dataset=None, model=None):
    """Damped Newton ascent with the stop rules of the module docstring. A
    fit of ``dataset`` by ``model`` applies ``edge_form`` to its first
    Hessian; without a dataset every step is solved by LU."""
    config = config or SolverConfig()
    x = np.array(start, dtype=float)
    f, g, h = objective.value_gradient_hessian(x)
    if not np.isfinite(f) or g is None:
        raise ConfigError("start point lies outside the objective's domain")
    sparse = dataset is not None and edge_form(len(h.shift), len(h.arcs.i))
    coarse = _coarse_layout(raw_components(model, dataset), h) if sparse else None

    trace = [float(f)]
    iterations = 0
    converged = False
    rtol, last_step = _CG_RTOL, math.inf
    while True:
        direction, slope, newton = _newton_direction(g, h, coarse, rtol)
        size = float(np.abs(direction).max())
        last_step = size if newton or not g.any() else last_step  # 0 at a zero gradient
        if newton and size <= _STEP_TOL or not g.any():
            converged = True
            if newton:  # the last step, kept unless it raises the gradient; no iteration
                trial = objective.value_gradient_hessian(x + direction)
                if trial[1] is not None and np.abs(trial[1]).max() <= np.abs(g).max():
                    x, (f, g, h) = x + direction, trial
            break
        # the next sparse step is solved as closely as this one was long, but no
        # closer than _CG_FLOOR needs; size > 0 guards the division whatever stops above
        floor = _CG_FLOOR / size if size > 0.0 else 0.0
        rtol = min(_CG_RTOL, max(size, floor))
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
                and np.abs(trial[1]).max() < np.abs(g).max()
            ):
                break
        x = candidate
        f, g, h = trial
        trace.append(float(f))

    return _Solution(
        x=x,
        value=float(f),
        trace=tuple(trace),
        iterations=iterations,
        gradient_sup_norm=float(np.abs(g).max()),
        last_step=last_step,
        converged=converged,
    )


def maximize_concave(objective, start, config: SolverConfig | None = None):
    """Maximize a concave objective from ``start`` by damped Newton.

    ``objective`` needs a ``value_gradient_hessian(x) -> (float, ndarray,
    Hessian)`` method, which every line-search trial calls and which returns
    ``(-inf, None, None)`` outside the domain. The Hessian is anything
    ``np.asarray`` makes a square array of, such as an ndarray or an
    ``EdgeHessian``: with no dataset to label a coarse space, every step is
    solved densely by LU, whatever the size. The stop rules are those of the
    module docstring. Returns ``(point, trace)``
    where ``trace`` lists the objective value at the start and after each
    accepted iteration; it is non-decreasing, up to rounding on steps taken
    where the objective is flat to rounding.
    """
    result = _newton(objective, np.asarray(start, dtype=float), config)
    return result.x, result.trace


class _Negated:
    def __init__(self, objective):
        self._objective = objective

    def value_gradient_hessian(self, x):
        f, g, h = self._objective.value_gradient_hessian(x)
        if g is None:
            return -f, None, None
        return -f, -g, -np.asarray(h)


def minimize(objective, start, config: SolverConfig | None = None):
    """Minimize a convex objective, such as a negative log-likelihood.

    The counterpart of ``maximize_concave``: the same damped Newton method
    and stop rules, run on the negated objective, whose
    ``value_gradient_hessian`` returns ``(inf, None, None)`` outside the
    domain. Returns ``(point, trace)`` with a non-increasing trace.
    """
    x, trace = maximize_concave(_Negated(objective), start, config)
    return x, tuple(-value for value in trace)


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
        last_step=solution.last_step,
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
    perturbed = perturb(dataset, model_spec.perturbation)
    return _fit_counts(model_spec.model, dataset, perturbed, model_spec.normalization, config)


def _fit_counts(
    model: Model,
    dataset: Dataset,
    perturbed: PerturbedCounts,
    normalization: Normalization,
    config: SolverConfig | None,
) -> FitResult:
    """``fit`` from its perturbed counts on."""
    objective = Objective(model, perturbed)  # venue and tie refusals
    verify_existence(model, perturbed, dataset.teams)
    solution = _newton(objective, objective.initial_point(), config, dataset, model)
    point = objective.unpack(solution.x)
    return _fit_result(model, dataset, solution, point, normalization, perturbed.epsilon)


def _map_mode(dataset: Dataset, d: float, b: float, config: SolverConfig) -> _Solution:
    """The unnormalized posterior mode of a proper prior, over all t log merits."""
    posterior = PosteriorObjective(dataset.counts, d, b)
    return _newton(posterior, posterior.initial_point(), config, dataset, Model.BRADLEY_TERRY)


def fit_map_em(
    dataset: Dataset,
    prior: MapPriorSpec,
    config: SolverConfig | None = None,
    normalization: Normalization = Normalization.SIMPLEX,
) -> FitResult:
    """Posterior mode of the Bradley-Terry merits under Gamma priors.

    ``MapPriorSpec`` admits only priors whose mode exists. The flat prior
    (shape 1, rate 0) adds nothing to the likelihood, so its mode is the
    Bradley-Terry fit of the raw counts (the fit under a zero
    ``MatrixShift``), refused as that fit is when the win digraph is not
    strongly connected. Merits are reported on the simplex by default.
    ``log_likelihood`` on the result is the unnormalized log-posterior, and
    ``gradient_sup_norm`` is measured with respect to log-merits so it is
    scale-free.

    Ties in the data are ignored: the underlying outcome model is win/loss
    only.
    """
    if prior.ml_equivalent:
        c, venueless = dataset.counts, dataset.venueless
        raw = PerturbedCounts(c.num_teams, c.i, c.j, c.games, dataset.totals[:2], venueless, None)
        return _fit_counts(Model.BRADLEY_TERRY, dataset, raw, normalization, config)
    mode = _map_mode(dataset, float(prior.shape), prior.resolved_rate(dataset.num_teams), config)
    point = ParameterPoint(beta=mode.x - mode.x[0])
    return _fit_result(Model.BRADLEY_TERRY, dataset, mode, point, normalization, None)
