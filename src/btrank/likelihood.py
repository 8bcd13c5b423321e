"""Penalized log-likelihoods, gradients and Hessians for the five models.

All models are evaluated in the reparameterized space: merits enter as
``beta_i = log u_i - log u_1`` (so ``beta[0] == 0``), the tie parameter as
``phi = log theta``, and the home advantage as ``log_gamma``. Every
evaluation runs in log space with log-sum-exp so that merits spanning many
orders of magnitude (small perturbations produce them) stay finite.

Free parameter vectors are laid out ``[beta_2 .. beta_t]`` plus ``phi`` for
models with a tie parameter, plus ``log_gamma`` for models with a home
parameter, in that order.

Every kernel runs over the edge list of ``PerturbedCounts`` (the layout of
``types.CountMatrices``: unordered pairs i < j, as sparse as the schedule
under Improved, every pair under ConnerGrant) and forms no t x t array but a
dense Hessian. Each kernel reads its counts as slices of the per-edge arrays
(``_edge_data``), gathering nothing. With perturbed wins ``w`` and raw ties
``tw``, one term per edge covers both orders for:

* Bradley-Terry: ``w_ij log s(beta_i - beta_j) + w_ji log s(beta_j - beta_i)``
  with s the logistic function; ties do not enter. The MAP posterior
  (``PosteriorObjective``) takes these terms over the pairs with a raw win.
* Davidson (theta > 0): with ``mid = phi + (beta_i + beta_j) / 2`` and
  ``D = lse(beta_i, beta_j, mid)``, the pair contributes
  ``w_ij beta_i + w_ji beta_j + tw mid - (w_ij + w_ji + tw) D``.

The other models take both orientations of each edge, (host i, visitor j)
and (host j, visitor i):

* Rao-Kupper (theta > 1): wins ``w_ij (beta_i - lse(beta_i, phi + beta_j))``
  and ties ``tw (log(theta^2 - 1) + beta_i + beta_j - D_ij - D_ji)`` where
  ``D_ij = lse(beta_i, phi + beta_j)`` and ``log(theta^2 - 1)`` is computed
  as ``2 phi + log1p(-exp(-2 phi))``.
* home-field, with perturbed host wins ``wh`` and visitor wins ``wv`` per
  orientation (``games[0]`` and ``games[1]``): host denominator ``D =
  lse(log_gamma + beta_i, beta_j)``, contribution ``wh (log_gamma + beta_i)
  + wv beta_j - (wh + wv) D``.
* home-field with ties: adds hosted ties ``wt mid`` (``games[2]``) and
  extends the denominator to ``lse(log_gamma + beta_i, beta_j, mid)``.

Derivatives. Every term depends on the merits only through ``beta_i -
beta_j``, so each model reduces to arrays of shape (orientations, edges): a
residual (the gradient along ``e_host - e_visitor``), a curvature (the merit
block of the Hessian is minus the graph Laplacian with edge weights the
summed curvature), one border array per tie or home parameter, and a small
block for those parameters. ``_assemble`` scatters the gradient and the
border rows with ``np.bincount``. The Hessian takes one of two forms, by the
size rule of ``edge_form`` (a function of t and the number of edges): a
dense array, with each edge's weight written to its two off-diagonal
entries, or an ``EdgeHessian`` holding the per-edge weights, the diagonal
beyond the Laplacian, the border rows and the parameter block, whose
products with a vector cost O(t + edges). For Bradley-Terry the curvature is
``n_ij p_ij (1 - p_ij)``. All models except Rao-Kupper share one kernel, a
softmax of the host, visitor and tie scores above; Bradley-Terry and
Davidson are its venue-free cases.

Every evaluator is a slice of one kernel call per model, ``_terms``, which
returns the value, gradient and Hessian together: ``log_likelihood`` and
``gradient`` take its first and second parts, and ``Objective.value`` and
``Objective.value_and_gradient`` slice ``Objective.value_gradient_hessian``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    NoTiesError,
    ThetaDomainError,
    VenuelessDataError,
)
from .types import Array, CountMatrices, Model, ParameterPoint, PerturbedCounts, derive_totals

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
    if model.needs_ties and not perturbed.games[2].any():
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


def edge_form(t: int, pairs: int) -> bool:
    """The size rule: the Hessian of ``t`` merits over ``pairs`` met pairs is
    kept in edge form (``EdgeHessian``) from 200 teams on, while fewer than
    ``t**2 / 16`` pairs have met; otherwise it is a dense array. The solver
    docstring gives the crossovers behind the constants."""
    return t >= 200 and 16 * pairs < t * t


class EdgeHessian:  # a plain class: a dataclass adds about 1 ms to the import
    """A Hessian over ``[beta_1 .. beta_t, extras]`` kept by its edges.

    The merit block is ``diag(shift) - L``, with L the graph Laplacian of the
    edges ``(i[e], j[e])`` weighted by ``weight[e]`` (the summed curvature of
    the edge, its off-diagonal entry); ``border`` holds the rows of the k <= 2
    tie and home parameters over the merits, and ``block`` their k x k
    block. ``pinned`` merits at the front are left out of the layout, as the
    free layout leaves out ``beta_1``. ``matvec`` costs O(t + edges).
    """

    def __init__(self, i, j, weight: Array, shift: Array, border: Array, block: Array, pinned=0):
        self.i, self.j, self.weight, self.shift = i, j, weight, shift
        self.border, self.block, self.pinned = border, block, pinned

    def __neg__(self) -> "EdgeHessian":
        parts = (-self.weight, -self.shift, -self.border, -self.block, self.pinned)
        return EdgeHessian(self.i, self.j, *parts)

    def pin_first(self) -> "EdgeHessian":
        """The same Hessian over the free layout, without ``beta_1``."""
        return EdgeHessian(self.i, self.j, self.weight, self.shift, self.border, self.block, 1)

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.shift) - self.pinned + len(self.block)
        return n, n

    @cached_property
    def _layout_edges(self):
        """The edge ends over the layout, pinned merits sent to a zero slot
        past the merits (the pinned merit is 0 and its row is left out)."""
        t = len(self.shift)
        return (self.i - self.pinned) % t, (self.j - self.pinned) % t

    def matvec(self, x: Array) -> Array:
        """``H @ x`` over this layout, the Laplacian applied as edge flows."""
        t, p = len(self.shift), self.pinned
        i, j = self._layout_edges
        beta = np.concatenate([x[: t - p], np.zeros(p)])
        flow = self.weight * (beta[i] - beta[j])
        beta = beta[: t - p]
        laplacian = (np.bincount(i, flow, t) - np.bincount(j, flow, t))[: t - p]
        merits = self.shift[p:] * beta - laplacian
        if not len(self.block):
            return merits
        extra, border = x[t - p :], self.border[:, p:]
        return np.concatenate([merits + extra @ border, border @ beta + self.block @ extra])

    def diagonal(self) -> Array:
        """The diagonal of H over this layout."""
        t = len(self.shift)
        degree = np.bincount(self.i, self.weight, t) + np.bincount(self.j, self.weight, t)
        return np.concatenate([(self.shift - degree)[self.pinned :], np.diagonal(self.block)])

    def galerkin(self, labels: np.ndarray, m: int) -> Array:
        """``Z' H Z`` for the m indicator columns ``Z[v, labels[v]] = 1``
        over this layout, in O(t + edges + m^2)."""
        t, size = len(self.shift), m + 1  # pinned merits go to a dropped label m
        merit = np.concatenate([np.full(self.pinned, m), labels[: t - self.pinned]])
        extra = labels[t - self.pinned :]
        a, b = merit[self.i], merit[self.j]
        cross = a != b
        a, b, w = a[cross], b[cross], self.weight[cross]
        flat = np.concatenate([a * size + b, b * size + a, a * (size + 1), b * (size + 1)])
        out = np.zeros(size * size)
        out += np.bincount(flat, np.concatenate([w, w, -w, -w]), size * size)
        out = out.reshape(size, size)
        out[np.diag_indices(size)] += np.bincount(merit, self.shift, size)
        for row, k in zip(self.border, extra):
            column = np.bincount(merit, row, size)
            out[k, :] += column
            out[:, k] += column
        out[np.ix_(extra, extra)] += self.block
        return out[:m, :m]


def _assemble(t, host, visitor, value, resid, grads, curv, borders=(), block=(), shift=0.0):
    """``(value, gradient, Hessian)`` over ``[beta_1 .. beta_t, extras]`` from
    the per-edge arrays of the module docstring: row 0 holds the edges (i, j),
    i < j, and a row 1 their reverses, whose residuals and borders flip sign.
    The Hessian is an ``EdgeHessian`` under the size rule of ``edge_form``,
    else a dense array; ``shift`` is added to its merit diagonal."""
    i, j, k = host[0], visitor[0], len(grads)
    r = np.subtract.reduce(resid)
    grad = np.concatenate([np.bincount(i, r, t) - np.bincount(j, r, t), grads])
    rows = [np.bincount(i, b, t) - np.bincount(j, b, t) for b in map(np.subtract.reduce, borders)]
    c = np.add.reduce(curv)
    if edge_form(t, len(i)):
        border, block = np.reshape(rows, (k, t)), np.reshape(block, (k, k))
        return value, grad, EdgeHessian(i, j, c, np.zeros(t) + shift, border, block)
    n = t + k
    flat = np.zeros(n * n)  # flat indices scatter faster than index pairs
    flat[i * n + j] = flat[j * n + i] = c
    flat[: t * (n + 1) : n + 1] = shift - (np.bincount(i, c, t) + np.bincount(j, c, t))
    hess = flat.reshape(n, n)
    for a, row in enumerate(rows):
        hess[:t, t + a] = hess[t + a, :t] = row
    hess[t:, t:] = block
    return value, grad, hess


def _outcome_terms(beta, host, visitor, wh, wv, wt, phi, lg, shift=0.0):
    """Kernel of the models whose outcome is a softmax of three scores per
    oriented edge (``host``, ``visitor``): host win ``lg + beta_host``,
    visitor win ``beta_visitor`` and, unless ``phi`` is None, tie ``phi +
    (beta_host + beta_visitor)/2``, observed ``wh``, ``wv`` and ``wt`` times.
    ``lg=None`` pins the home parameter at 0 and leaves it out of the
    gradient; ``shift`` is added to the merit diagonal of the Hessian.
    Returns ``(value, gradient, Hessian)``."""
    b_h, b_v = beta[host], beta[visitor]
    h = b_h + (0.0 if lg is None else lg)
    if phi is None:
        p_h, p_v, log_h, log_v = _logistic(h - b_v)
        value = float((wh * log_h + wv * log_v).sum())
        p_t = 0.0
    else:
        tie = phi + (b_h + b_v) / 2.0
        d = _lse3(h, b_v, tie)
        value = float((wh * (h - d) + wv * (b_v - d) + wt * (tie - d)).sum())
        p_h, p_v, p_t = np.exp(h - d), np.exp(b_v - d), np.exp(tie - d)
    # expected coefficients of beta_host and beta_visitor in the outcome's score
    m_h, m_v = p_h + p_t / 2.0, p_v + p_t / 2.0
    n = wh + wv + wt
    resid = wh * m_v - wv * m_h + wt * (m_v - m_h) / 2.0
    # the tie and host-win outcomes carry phi and lg, with coefficient 1:
    # (observed count, probability, coefficient of beta_host) of each
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
    return _assemble(len(beta), host, visitor, value, resid, grads, curv, borders, block, shift)


def _rao_kupper_terms(beta, host, visitor, w, ties, phi):
    """Rao-Kupper as oriented-edge terms in ``x = beta_host - beta_visitor -
    phi``: ``w log s(x) + ties log s(-x)`` with s the logistic function, plus
    ``log(1 - theta^-2)`` per tied game."""
    s, s_rev, log_s, log_s_rev = _logistic(beta[host] - beta[visitor] - phi)
    tied = ties.sum() / 2.0
    q, r = np.exp(-2.0 * phi), -np.expm1(-2.0 * phi)  # theta^-2 and 1 - theta^-2
    value = tied * np.log(r) + float((w * log_s + ties * log_s_rev).sum())
    resid = w * s_rev - ties * s
    grads = [tied * 2.0 * q / r - float(resid.sum())]
    curv = (w + ties) * s * s_rev
    block = [[-tied * 4.0 * q / r**2 - float(curv.sum())]]
    return _assemble(len(beta), host, visitor, value, resid, grads, curv, [curv], block)


def _edge_data(model: Model, perturbed: PerturbedCounts):
    """``(host, visitor, counts)``: the oriented edges one model evaluates,
    and the perturbed counts its kernel reads on them, sliced from the
    per-edge arrays."""
    i, j, games, wins = perturbed.i, perturbed.j, perturbed.games, perturbed.wins
    ties = games[2, 0] + games[2, 1]
    if not (model.needs_venues or model is Model.RAO_KUPPER):
        wt = ties[None] if model is Model.DAVIDSON else 0.0
        return i[None], j[None], (wins[:1], wins[1:], wt)
    h, v = np.stack([i, j]), np.stack([j, i])
    if model is Model.RAO_KUPPER:
        return h, v, (wins, np.stack([ties, ties]))
    return h, v, (games[0], games[1], games[2] if model is Model.DAVID else 0.0)


def _terms(model: Model, beta, phi, log_gamma, edge_data):
    """``(value, gradient, Hessian)`` of one model's penalized log-likelihood
    over ``[beta_1 .. beta_t, phi?, log_gamma?]``."""
    h, v, counts = edge_data
    if model is Model.RAO_KUPPER:
        return _rao_kupper_terms(beta, h, v, *counts, phi)
    return _outcome_terms(beta, h, v, *counts, phi, log_gamma)


def log_likelihood(
    model: Model, point: ParameterPoint, perturbed: PerturbedCounts
) -> float:
    _validate(model, point, perturbed)
    return _terms(model, point.beta, point.phi, point.log_gamma, _edge_data(model, perturbed))[0]


def gradient(
    model: Model, point: ParameterPoint, perturbed: PerturbedCounts
) -> Array:
    """Analytic gradient in the free layout ``[beta_2 .. beta_t, phi?, log_gamma?]``.

    Domains and data requirements are enforced exactly as for the matching
    log-likelihood.
    """
    _validate(model, point, perturbed)
    edge_data = _edge_data(model, perturbed)
    return _terms(model, point.beta, point.phi, point.log_gamma, edge_data)[1][1:]


class Objective:
    """One model's penalized log-likelihood as a function of a free vector.

    Bridges ParameterPoint to the flat layout the maximizer works in, and
    guards the Rao-Kupper tie domain by returning -inf (with no gradient or
    Hessian) outside it so line searches back off instead of raising.
    """

    def __init__(self, model: Model, perturbed: PerturbedCounts):
        _refuse_data(model, perturbed)
        self.model, self.perturbed, self.num_teams = model, perturbed, perturbed.num_teams
        self._edge_data = _edge_data(model, perturbed)
        self.dimension = self.num_teams - 1 + model.has_tie_parameter + model.has_home_parameter

    def _split(self, x: Array):
        """``(beta, phi, log_gamma)`` of a free vector."""
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
        return beta, phi, log_gamma

    def unpack(self, x: Array) -> ParameterPoint:
        beta, phi, log_gamma = self._split(x)
        return ParameterPoint(beta=beta, phi=phi, log_gamma=log_gamma)

    def initial_point(self) -> Array:
        """The deterministic start: flat merits, theta = 2 for Rao-Kupper
        (interior to its domain), theta = 1 and gamma = 1 elsewhere."""
        x = np.zeros(self.dimension)
        if self.model is Model.RAO_KUPPER:
            x[self.num_teams - 1] = np.log(2.0)
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
        value, grad, hess = _terms(self.model, *self._split(x), self._edge_data)
        # the free layout leaves out beta_1, which is pinned at 0
        if isinstance(hess, EdgeHessian):
            return value, grad[1:], hess.pin_first()
        return value, grad[1:], hess[1:, 1:]

    def value(self, x: Array) -> float:
        return self.value_gradient_hessian(x)[0]

    def value_and_gradient(self, x: Array) -> tuple[float, Array | None]:
        return self.value_gradient_hessian(x)[:2]


class PosteriorObjective:
    """Unnormalized log-posterior of the Bradley-Terry log merits under
    independent Gamma(shape, rate) priors with shape > 1 and rate > 0: the
    log-likelihood of the venue-free wins of ``counts`` plus ``(shape - 1)
    beta_i - rate exp(beta_i)`` per team, over all t log merits. Its
    ``edges`` are the pairs with a raw win.
    """

    def __init__(self, counts: CountMatrices, shape: float, rate: float):
        self.num_teams, self.shape, self.rate = counts.num_teams, shape, rate
        wins = derive_totals(counts)[:2]
        won = (wins != 0).any(axis=0)
        self.edges = i, j = counts.i[won], counts.j[won]
        self._sides, self._wins = (i[None], j[None]), (wins[:1, won], wins[1:, won])

    def initial_point(self) -> Array:
        """Uniform merits at the scale of every stationary point,
        ``sum(u) = t (shape - 1) / rate``."""
        return np.full(self.num_teams, np.log((self.shape - 1.0) / self.rate))

    def value_gradient_hessian(self, x: Array) -> tuple[float, Array, Array | EdgeHessian]:
        with np.errstate(over="ignore"):  # a line-search trial may overflow to -inf
            u = np.exp(x)
        value, grad, hess = _outcome_terms(
            x, *self._sides, *self._wins, 0.0, None, None, shift=-self.rate * u
        )
        value += float(((self.shape - 1.0) * x - self.rate * u).sum())
        grad += (self.shape - 1.0) - self.rate * u
        return value, grad, hess
