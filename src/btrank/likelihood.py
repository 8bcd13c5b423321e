"""Penalized log-likelihoods, gradients and Hessians for the five models.

All models are evaluated in the reparameterized space: merits enter as
``beta_i = log u_i - log u_1`` (so ``beta[0] == 0``), the tie parameter as
``phi = log theta``, and the home advantage as ``log_gamma``. Every
evaluation runs in log space with log-sum-exp so that merits spanning many
orders of magnitude (small perturbations produce them) stay finite.

Free parameter vectors are laid out ``[beta_2 .. beta_t]`` plus ``phi`` for
models with a tie parameter, plus ``log_gamma`` for models with a home
parameter, in that order.

Pair terms for the venue-free models (per unordered pair i < j, with
perturbed wins ``w`` and raw ties ``tw``):

* Bradley-Terry: ``w_ij (beta_i - lse(beta_i, beta_j))`` summed over ordered
  pairs; ties do not enter.
* Rao-Kupper (theta > 1): wins ``w_ij (beta_i - lse(beta_i, phi + beta_j))``
  and ties ``tw (log(theta^2 - 1) + beta_i + beta_j - D_ij - D_ji)`` where
  ``D_ij = lse(beta_i, phi + beta_j)`` and ``log(theta^2 - 1)`` is computed
  as ``2 phi + log1p(-exp(-2 phi))``.
* Davidson (theta > 0): with ``mid = phi + (beta_i + beta_j) / 2`` and
  ``D = lse(beta_i, beta_j, mid)``, the pair contributes
  ``w_ij beta_i + w_ji beta_j + tw mid - (w_ij + w_ji + tw) D``.

The venue models sum over ordered hosting pairs (host i, visitor j) with
venue-split perturbed wins ``wh[i][j]`` (host win) and ``wv[i][j]``
(visitor win at i's venue), plus hosted ties ``wt[i][j]`` for the model
with both parameters:

* home-field: host denominator ``D = lse(log_gamma + beta_i, beta_j)``,
  contribution ``wh (log_gamma + beta_i) + wv beta_j - (wh + wv) D``.
* home-field with ties: adds ``wt mid`` and extends the denominator to
  ``lse(log_gamma + beta_i, beta_j, mid)``.

Derivatives. Every pair term depends on the merits only through
``beta_i - beta_j``, so its merit gradient is a multiple of ``e_i - e_j``
and its merit Hessian a multiple of ``(e_i - e_j)(e_i - e_j)'``. Each model
therefore reduces to per-pair arrays: a residual (the gradient along
``e_i - e_j``), a curvature (the merit block of the Hessian is minus the
graph Laplacian with pair weights ``curv + curv'``), one border array per
tie or home parameter, and a small block for those parameters. For
Bradley-Terry the curvature is ``w_ij p_ij (1 - p_ij)``. All models except
Rao-Kupper share one kernel: the outcome is a softmax of the host, visitor
and tie scores above, and Bradley-Terry and Davidson are its venue-free
cases (ordered pairs carry i's wins over j and half the pair's ties).

Every evaluator is a slice of one kernel call per model, ``_terms``, which
returns the value, gradient and Hessian together: ``log_likelihood`` and
``gradient`` take its first and second parts, and ``Objective.value`` and
``Objective.value_and_gradient`` slice ``Objective.value_gradient_hessian``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
    NoTiesError,
    ThetaDomainError,
    VenuelessDataError,
)
from .types import Array, Model, ParameterPoint, PerturbedCounts

#: Smallest phi admitted for the Rao-Kupper model (theta must exceed 1).
RK_PHI_MIN = 1e-10


def _lse3(x, y, z):
    return np.logaddexp(np.logaddexp(x, y), z)


def _check_point(model: Model, point: ParameterPoint, t: int) -> None:
    if len(point.beta) != t:
        raise DimensionError(
            f"point has {len(point.beta)} merits but the data have {t} teams"
        )
    if model.has_tie_parameter and point.phi is None:
        raise DimensionError(f"{model.value} needs a tie parameter (phi)")
    if not model.has_tie_parameter and point.phi is not None:
        raise DimensionError(f"{model.value} takes no tie parameter")
    if model.has_home_parameter and point.log_gamma is None:
        raise DimensionError(f"{model.value} needs a home parameter (log_gamma)")
    if not model.has_home_parameter and point.log_gamma is not None:
        raise DimensionError(f"{model.value} takes no home parameter")


def _refuse_data(model: Model, perturbed: PerturbedCounts) -> None:
    """Refuse data the model cannot read: venue models need home/away
    structure, tie models need a tie."""
    if model.needs_venues and perturbed.venueless:
        raise VenuelessDataError(
            f"{model.value} needs home/away structure and this dataset has none"
        )
    if model.needs_ties and perturbed.ties.sum() == 0:
        raise NoTiesError(
            f"{model.value} models tie probabilities and the data contain no tie"
        )


def _validate(model: Model, point: ParameterPoint, perturbed: PerturbedCounts) -> None:
    """Refuse a point or data set the model cannot evaluate, identically for
    every public entry point."""
    _check_point(model, point, perturbed.num_teams)
    _refuse_data(model, perturbed)
    if model is Model.RAO_KUPPER and point.phi <= 0.0:
        raise ThetaDomainError(f"Rao-Kupper needs theta > 1, got phi={point.phi}")


def _logistic(x):
    """``(s(x), s(-x), log s(x), log s(-x))`` for the logistic function s,
    stable for any x, from one exp and one log."""
    e = np.exp(-np.abs(x))
    log1pe = np.log1p(e)
    big = 1.0 / (1.0 + e)
    small = e * big
    positive = x >= 0.0
    return (
        np.where(positive, big, small),
        np.where(positive, small, big),
        -(np.maximum(-x, 0.0) + log1pe),
        -(np.maximum(x, 0.0) + log1pe),
    )


def _assemble(value, resid, grads, curv, borders=(), block=()):
    """``(value, gradient, Hessian)`` over ``[beta_1 .. beta_t, extras]`` from
    the per-pair arrays described in the module docstring; the curvature
    must have a zero diagonal."""
    grad = np.concatenate([resid.sum(axis=1) - resid.sum(axis=0), grads])
    t, k = len(resid), len(grads)
    hess = np.empty((t + k, t + k))
    merits = hess[:t, :t]
    np.add(curv, curv.T, out=merits)
    merits[np.diag_indices(t)] = -merits.sum(axis=1)
    for a, border in enumerate(borders):
        hess[:t, t + a] = hess[t + a, :t] = border.sum(axis=1) - border.sum(axis=0)
    hess[t:, t:] = block
    return value, grad, hess


def _outcome_terms(beta, wh, wv, wt, phi, lg):
    """Kernel of the models whose outcome is a softmax of three scores per
    ordered pair (host i, visitor j): host win ``lg + beta_i``, visitor win
    ``beta_j`` and, unless ``phi`` is None, tie ``phi + (beta_i + beta_j)/2``,
    observed ``wh``, ``wv`` and ``wt`` times. ``lg=None`` pins the home
    parameter at 0 and leaves it out of the gradient. Returns ``(value,
    gradient, Hessian)``."""
    host = beta[:, None] + (0.0 if lg is None else lg)
    visitor = beta[None, :]
    if phi is None:
        p_h, p_v, log_h, log_v = _logistic(host - visitor)
        value = float((wh * log_h + wv * log_v).sum())
        p_t = 0.0
    else:
        tie = phi + (beta[:, None] + visitor) / 2.0
        d = _lse3(host, visitor, tie)
        value = float((wh * (host - d) + wv * (visitor - d) + wt * (tie - d)).sum())
        p_h, p_v, p_t = np.exp(host - d), np.exp(visitor - d), np.exp(tie - d)
    # expected coefficients of beta_i and beta_j in the outcome's score
    m_h, m_v = p_h + p_t / 2.0, p_v + p_t / 2.0
    n = wh + wv + wt
    resid = wh * m_v - wv * m_h + wt * (m_v - m_h) / 2.0
    # the tie and host-win outcomes carry phi and lg, with coefficient 1:
    # (observed count, probability, coefficient of beta_i) of each
    extras = []
    if phi is not None:
        extras.append((wt, p_t, 0.5))
    if lg is not None:
        extras.append((wh, p_h, 1.0))
    grads = [float((w - n * p).sum()) for w, p, _ in extras]
    curv = n * (m_h * m_v - p_t / 4.0)
    borders = [n * p * (m_h - share) for _, p, share in extras]
    block = [
        [float((n * p * (q - float(a == b))).sum()) for b, (_, q, _) in enumerate(extras)]
        for a, (_, p, _) in enumerate(extras)
    ]
    return _assemble(value, resid, grads, curv, borders, block)


def _rao_kupper_terms(beta, w, ties, phi):
    """Rao-Kupper as ordered-pair terms in ``x = beta_i - beta_j - phi``:
    ``w_ij log s(x) + ties_ij log s(-x)`` with s the logistic function, plus
    ``log(1 - theta^-2)`` per tied game."""
    s, s_rev, log_s, log_s_rev = _logistic(beta[:, None] - beta[None, :] - phi)
    tied = ties.sum() / 2.0
    q, r = np.exp(-2.0 * phi), -np.expm1(-2.0 * phi)  # theta^-2 and 1 - theta^-2
    value = tied * np.log(r) + float((w * log_s + ties * log_s_rev).sum())
    resid = w * s_rev - ties * s
    grads = [tied * 2.0 * q / r - float(resid.sum())]
    curv = (w + ties) * s * s_rev
    block = [[-tied * 4.0 * q / r**2 - float(curv.sum())]]
    return _assemble(value, resid, grads, curv, [curv], block)


def _terms(model: Model, point: ParameterPoint, perturbed: PerturbedCounts):
    """``(value, gradient, Hessian)`` of one model's penalized log-likelihood
    over ``[beta_1 .. beta_t, phi?, log_gamma?]``."""
    beta, phi, lg = point.beta, point.phi, point.log_gamma
    if model is Model.RAO_KUPPER:
        return _rao_kupper_terms(beta, perturbed.a_free, perturbed.ties, phi)
    if model.needs_venues:
        wh, wv = perturbed.a_home, perturbed.a_away.T
        wt = perturbed.t_home if model is Model.DAVID else 0.0
    else:
        wh, wv = perturbed.a_free, 0.0
        wt = perturbed.ties / 2.0 if model is Model.DAVIDSON else 0.0
    return _outcome_terms(beta, wh, wv, wt, phi, lg)


def log_likelihood(
    model: Model, point: ParameterPoint, perturbed: PerturbedCounts
) -> float:
    _validate(model, point, perturbed)
    return _terms(model, point, perturbed)[0]


def gradient(
    model: Model, point: ParameterPoint, perturbed: PerturbedCounts
) -> Array:
    """Analytic gradient in the free layout ``[beta_2 .. beta_t, phi?, log_gamma?]``.

    Domains and data requirements are enforced exactly as for the matching
    log-likelihood.
    """
    _validate(model, point, perturbed)
    return _terms(model, point, perturbed)[1][1:]


class Objective:
    """One model's penalized log-likelihood as a function of a free vector.

    Bridges ParameterPoint to the flat layout the maximizer works in, and
    guards the Rao-Kupper tie domain by returning -inf (with no gradient or
    Hessian) outside it so line searches back off instead of raising.
    """

    def __init__(self, model: Model, perturbed: PerturbedCounts):
        self.model = model
        self.perturbed = perturbed
        t = perturbed.num_teams
        _refuse_data(model, perturbed)
        self.num_teams = t
        self.dimension = (
            (t - 1) + int(model.has_tie_parameter) + int(model.has_home_parameter)
        )

    def unpack(self, x: Array) -> ParameterPoint:
        t = self.num_teams
        if len(x) != self.dimension:
            raise DimensionError(
                f"free vector has length {len(x)}, expected {self.dimension}"
            )
        beta = np.concatenate([[0.0], x[: t - 1]])
        phi = None
        log_gamma = None
        k = t - 1
        if self.model.has_tie_parameter:
            phi = float(x[k])
            k += 1
        if self.model.has_home_parameter:
            log_gamma = float(x[k])
        return ParameterPoint(beta=beta, phi=phi, log_gamma=log_gamma)

    def pack(self, point: ParameterPoint) -> Array:
        _check_point(self.model, point, self.num_teams)
        parts = [np.asarray(point.beta[1:], dtype=float)]
        if self.model.has_tie_parameter:
            parts.append(np.array([point.phi]))
        if self.model.has_home_parameter:
            parts.append(np.array([point.log_gamma]))
        return np.concatenate(parts)

    def initial_point(self) -> Array:
        """The deterministic start: flat merits, theta = 2 for Rao-Kupper
        (interior to its domain), theta = 1 and gamma = 1 elsewhere."""
        x = np.zeros(self.dimension)
        if self.model is Model.RAO_KUPPER:
            x[self.num_teams - 1] = np.log(2.0)
        return x

    def random_point(self, rng: np.random.Generator) -> Array:
        x = rng.uniform(-1.0, 1.0, self.dimension)
        if self.model is Model.RAO_KUPPER:
            x[self.num_teams - 1] = rng.uniform(0.05, 1.5)
        return x

    def in_domain(self, x: Array) -> bool:
        """False only where the Rao-Kupper phi falls below ``RK_PHI_MIN``."""
        return self.model is not Model.RAO_KUPPER or bool(x[self.num_teams - 1] >= RK_PHI_MIN)

    def value_gradient_hessian(
        self, x: Array
    ) -> tuple[float, Array | None, Array | None]:
        """Value, gradient and Hessian in the free layout; ``(-inf, None,
        None)`` outside the Rao-Kupper domain."""
        if not self.in_domain(x):
            return -np.inf, None, None
        value, grad, hess = _terms(self.model, self.unpack(x), self.perturbed)
        # the free layout leaves out beta_1, which is pinned at 0
        return value, grad[1:], hess[1:, 1:]

    def value(self, x: Array) -> float:
        return self.value_gradient_hessian(x)[0]

    def value_and_gradient(self, x: Array) -> tuple[float, Array | None]:
        return self.value_gradient_hessian(x)[:2]


class PosteriorObjective:
    """Unnormalized log-posterior of the Bradley-Terry log merits under
    independent Gamma(shape, rate) priors: the log-likelihood of the win
    counts ``wins`` plus ``(shape - 1) beta_i - rate exp(beta_i)`` per team.

    With a proper prior (rate > 0) all t log merits are free. The flat prior
    (shape 1, rate 0) adds nothing and leaves the posterior scale-invariant,
    so beta_1 is pinned at 0 and left out of the free vector.
    """

    def __init__(self, wins: Array, shape: float, rate: float):
        self.wins, self.shape, self.rate = wins, shape, rate
        self.pinned = rate == 0.0

    def initial_point(self) -> Array:
        t = len(self.wins)
        if self.pinned:
            return np.zeros(t - 1)
        # uniform merits at the scale of every stationary point,
        # sum(u) = t (shape - 1) / rate
        return np.full(t, np.log((self.shape - 1.0) / self.rate))

    def log_merits(self, x: Array) -> Array:
        """All t log merits of a free vector."""
        return np.concatenate([[0.0], x]) if self.pinned else x

    def value_gradient_hessian(self, x: Array) -> tuple[float, Array, Array]:
        beta = self.log_merits(x)
        value, grad, hess = _outcome_terms(beta, self.wins, 0.0, 0.0, None, None)
        if self.pinned:
            return value, grad[1:], hess[1:, 1:]
        with np.errstate(over="ignore"):  # a line-search trial may overflow to -inf
            u = np.exp(beta)
        value += float(((self.shape - 1.0) * beta - self.rate * u).sum())
        grad += (self.shape - 1.0) - self.rate * u
        hess[np.diag_indices(len(beta))] -= self.rate * u
        return value, grad, hess
