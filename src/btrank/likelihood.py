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
under Improved, every pair under ConnerGrant) and forms no t x t array.
Each kernel reads its counts as slices of the per-edge arrays, gathering
nothing; an objective slices them, and sums each edge's total ``n``, once
(``_edge_data``). Bradley-Terry's edge data carry no tie totals: its ``n``
is the sum of the two perturbed wins. With perturbed wins ``w`` and raw
ties ``tw``, one term per edge covers both orders for:

* Bradley-Terry: ``w_ij log s(beta_i - beta_j) + w_ji log s(beta_j - beta_i)``
  with s the logistic function; ties do not enter. The MAP posterior
  (``PosteriorObjective``) takes these terms over the pairs with a raw win.
* Davidson (theta > 0): with ``mid = phi + (beta_i + beta_j) / 2`` and
  ``D = lse(beta_i, beta_j, mid)``, the pair contributes
  ``w_ij beta_i + w_ji beta_j + tw mid - (w_ij + w_ji + tw) D``.

The other models take both orientations of each edge, (host i, visitor j)
and (host j, visitor i):

* Rao-Kupper (theta > 1): ``P(i beats j) = s(x_ij)`` with ``x_ij = beta_i -
  beta_j - phi``, and ``P(tie) = (1 - theta^-2) s(-x_ij) s(-x_ji)``. So per
  orientation it is the two-outcome home-field term below with the
  visitor j hosting at home parameter phi, the host's ties as j's wins and
  the host's wins ``w_ij`` as the visitor's, plus ``log(1 - theta^-2)``
  per tied game, computed as ``log(-expm1(-2 phi))``.
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
block for those parameters, none at all where there are none (k = 0).
``_assemble`` scatters the gradient and the border rows with
``np.bincount``. The Hessian is an ``EdgeHessian``
holding the per-edge weights, the diagonal beyond the Laplacian, the border
rows and the parameter block: its products with a vector cost O(t + edges),
and ``np.asarray`` scatters it to the dense array, each edge's weight
written to its two off-diagonal entries, whose positions (``Arcs``) each
objective computes once; the solver's coarse level sums its fields
itself (``solver._galerkin``). For Bradley-Terry the curvature is
``n_ij p_ij (1 - p_ij)``. All five models and the MAP posterior share one
kernel, ``_outcome_terms``, a softmax of the host, visitor and tie scores
above: Bradley-Terry and Davidson are its venue-free cases, and Rao-Kupper
adds only its ``log(1 - theta^-2)`` per tied game.

Every evaluator is a slice of one kernel call per model, ``_terms``, which
returns the value, gradient and Hessian together: ``log_likelihood`` and
``gradient`` take its first and second parts, and ``Objective.value`` and
``Objective.value_and_gradient`` slice ``Objective.value_gradient_hessian``.

The kernel forms each product once and keeps the order of every operation:
the log-probabilities feed the value and the exp, ``n p`` of each outcome
and the sum and difference of the decisive probabilities feed all the
derivatives. A fit is then bit for bit what the formulas give written out
(``tests/oracles.py``, ``outcome_terms``). The two-outcome branch of
Bradley-Terry, the posterior, home-field and Rao-Kupper works in place:
``_logistic`` writes its four arrays into buffers it owns, and the value,
residual and curvature accumulate into those, each edge array passed over
once in the order the formulas give.
"""

from __future__ import annotations

import numpy as np

from .connectivity import require_venues
from .errors import DimensionError, NoTiesError, ThetaDomainError
from .types import Array, CountMatrices, Model, ParameterPoint, PerturbedCounts, derive_totals

#: Smallest phi admitted for the Rao-Kupper model (theta must exceed 1).
RK_PHI_MIN = 1e-10
_NONE = np.zeros((0, 0))  # the border and block of a model with no tie or home parameter
_ZERO = np.zeros(1)  # the pinned beta_1


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
    require_venues(model.value, model.has_home_parameter and perturbed.venueless)
    if model.has_tie_parameter and not perturbed.games[2].any():
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
    stable for any x, from one exp and one log: with ``e = exp(-|x|)``,
    ``1 / (1 + e)`` and ``e / (1 + e)`` ordered by the sign of x, and the
    logs ``-(max(-x, 0) + log1p(e))`` and ``-(max(x, 0) + log1p(e))``.

    Each step writes into a buffer shaped as x that this call owns (``out=``),
    and the two ``np.where`` pick the probabilities; x is taken as an array
    first, so a scalar gives 0-d arrays (a ufunc on a 0-d array returns a
    scalar unless given ``out``)."""
    x = np.asarray(x, dtype=np.float64)
    e, log1pe, big = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    np.negative(np.abs(x, out=e), out=e)
    np.exp(e, out=e)
    np.log1p(e, out=log1pe)
    np.divide(1.0, np.add(e, 1.0, out=big), out=big)
    small = np.multiply(e, big, out=e)
    positive = x >= 0.0
    p, q = np.where(positive, big, small), np.where(positive, small, big)
    log_p = np.negative(x, out=small)  # small and big are free from here on
    np.maximum(log_p, 0.0, out=log_p)
    np.negative(np.add(log_p, log1pe, out=log_p), out=log_p)
    log_q = np.maximum(x, 0.0, out=big)
    np.negative(np.add(log_q, log1pe, out=log_q), out=log_q)
    return p, q, log_p, log_q


class Arcs:  # a plain class, as EdgeHessian
    """The edges ``(i[e], j[e])`` every Hessian of one objective shares, over
    t merits and k tie or home parameters, the first ``pinned`` merits left
    out of the layout, and ``flat``, their off-diagonal positions in the
    flattened dense H, ``(i * n + j, j * n + i)`` with n = t + k."""

    def __init__(self, i, j, t: int, k: int, pinned: int = 0):
        self.i, self.j, self.t, self.pinned = i, j, t, pinned
        self.flat = i * (t + k) + j, j * (t + k) + i


class EdgeHessian:  # a plain class: a dataclass adds about 1 ms to the import
    """A Hessian H over ``[beta_1 .. beta_t, extras]`` kept by its edges.

    The merit block is ``diag(shift) - L``, with L the graph Laplacian of the
    edges ``(i[e], j[e])`` weighted by ``weight[e]`` (the summed curvature of
    the edge, its off-diagonal entry); ``border`` holds the rows of the k <= 2
    tie and home parameters over the merits, and ``block`` their k x k
    block. ``pinned`` merits at the front are left out of the layout, as the
    free layout leaves out ``beta_1``. The solver steps by ``H d = -g`` on H
    as it is, with Newton decrement ``-g' H^-1 g``. ``matvec`` costs
    O(t + edges), and ``np.asarray(h)`` is the dense array, O((t + k)^2).
    The edges and the pinned merits are the objective's ``arcs``.
    """

    def __init__(self, arcs: Arcs, weight: Array, shift: Array, border: Array, block: Array):
        self.arcs, self.weight, self.shift = arcs, weight, shift
        self.border, self.block, self.pinned = border, block, arcs.pinned
        self._padded, self._shift = np.zeros(arcs.t), shift[arcs.pinned :]  # for matvec

    def __array__(self, dtype=None, copy=None) -> Array:
        """The dense H over this layout."""
        t, a, c = len(self.shift), self.arcs, self.weight
        n = t + len(self.block)
        flat = np.zeros(n * n)  # flat indices scatter faster than index pairs
        flat[a.flat[0]] = flat[a.flat[1]] = c
        flat[: t * (n + 1) : n + 1] = self.shift - (np.bincount(a.i, c, t) + np.bincount(a.j, c, t))
        hess = flat.reshape(n, n)
        if n > t:
            hess[:t, t:], hess[t:, :t], hess[t:, t:] = self.border.T, self.border, self.block
        return hess[self.pinned :, self.pinned :]

    def matvec(self, x: Array) -> Array:
        """``H @ x`` over this layout, the Laplacian applied as edge flows of
        x padded in a work vector: the pinned merits are 0, their rows left out."""
        t, p, a, padded = len(self.shift), self.pinned, self.arcs, self._padded
        padded[p:] = beta = x[: t - p]  # the pinned merits stay 0
        flow = self.weight * (padded[a.i] - padded[a.j])
        laplacian = np.bincount(a.i, flow, t)
        laplacian -= np.bincount(a.j, flow, t)
        merits = self._shift * beta - laplacian[p:]
        if not len(self.block):
            return merits
        extra, border = x[t - p :], self.border[:, p:]
        return np.concatenate([merits + extra @ border, border @ beta + self.block @ extra])

    def diagonal(self) -> Array:
        """The diagonal of H over this layout."""
        t, a = len(self.shift), self.arcs
        degree = np.bincount(a.i, self.weight, t) + np.bincount(a.j, self.weight, t)
        diagonal = (self.shift - degree)[self.pinned :]
        return np.concatenate([diagonal, np.diagonal(self.block)]) if len(self.block) else diagonal


def _fold(rows, join):
    """Row 0 of a (1 or 2, edges) array, joined to its row 1 by ``join`` if it has one."""
    return rows[0] if len(rows) == 1 else join(rows[0], rows[1])


def _assemble(arcs, value, resid, curv, extras=()):
    """``(value, gradient, EdgeHessian)`` over ``[beta_1 .. beta_t, extras]``
    from the per-edge arrays of the module docstring: row 0 holds the edges
    (i, j), i < j, and a row 1 their reverses, whose residuals and borders
    flip sign. ``arcs`` are the objective's ``Arcs``; ``extras`` are the
    ``(gradients, borders, block)`` of the k tie and home parameters."""
    i, j, t = arcs.i, arcs.j, arcs.t
    r = _fold(resid, np.subtract)
    grad = np.subtract(np.bincount(i, r, t), np.bincount(j, r, t), dtype=float)  # int if no edges
    hess = EdgeHessian(arcs, _fold(curv, np.add), np.zeros(t), _NONE, _NONE)
    if extras:
        grads, borders, block = extras
        grad = np.concatenate([grad, grads])
        folded = [_fold(b, np.subtract) for b in borders]
        hess.border = np.array([np.bincount(i, b, t) - np.bincount(j, b, t) for b in folded])
        hess.block = np.array(block)
    return value, grad, hess


def _outcome_terms(beta, host, visitor, wh, wv, wt, n, phi, lg, arcs):
    """Kernel of the models whose outcome is a softmax of three scores per
    oriented edge (``host``, ``visitor``): host win ``lg + beta_host``,
    visitor win ``beta_visitor`` and, unless ``phi`` is None, tie ``phi +
    (beta_host + beta_visitor)/2``, observed ``wh``, ``wv`` and ``wt`` times,
    ``n`` in all. ``lg=None`` pins the home parameter at 0 and leaves it out
    of the gradient. Returns ``(value, gradient, Hessian)``."""
    b_h, b_v = beta[host], beta[visitor]
    h = b_h if lg is None else b_h + lg
    if phi is None:
        p_h, p_v, log_h, log_v = _logistic(h - b_v)
        # in _logistic's buffers, in the order of wh log_h + wv log_v,
        # wh p_v - wv p_h and n (p_h p_v): a product commutes exactly
        log_h *= wh
        log_h += np.multiply(wv, log_v, out=log_v)
        value = float(log_h.sum())
        resid = np.multiply(wh, p_v)
        resid -= np.multiply(wv, p_h, out=log_v)
        curv = np.multiply(p_h, p_v, out=log_h)
        curv *= n
        if lg is None:
            return _assemble(arcs, value, resid, curv)
    else:
        tie = phi + (b_h + b_v) / 2.0
        d = _lse3(h, b_v, tie)
        l_h, l_v, l_t = h - d, b_v - d, tie - d
        value = float((wh * l_h + wv * l_v + wt * l_t).sum())
        p_h, p_v, p_t = np.exp(l_h), np.exp(l_v), np.exp(l_t)
        del l_h, l_v, l_t  # at scale each is an array of the edges: free it here
        diff, both = p_h - p_v, p_h + p_v
        # sums of products of the probabilities: where one outcome is nearly
        # certain, a difference of near-equal terms would lose the eps-sized parts
        resid = (wh - wv) * p_t / 2.0 + wh * p_v - wv * p_h - wt * diff / 2.0
        curv = n * (p_h * p_v + p_t * both / 4.0)
    # the tie and host-win outcomes carry phi and lg, with coefficient 1: (observed
    # count, expected count n p, probability p, border row, own block entry) of each
    extras = []
    if phi is not None:
        n_t = n * p_t
        extras.append((wt, n_t, p_t, n_t * diff / 2.0, -(n_t * both)))
    if lg is not None:
        n_h = n * p_h  # with two outcomes, -curv is the lg-derivative of the residual
        border, own = (-curv,) * 2 if phi is None else (n_h * (p_h + p_t / 2.0 - 1.0), n_h * (p_h - 1.0))
        extras.append((wh, n_h, p_h, border, own))
    grads = [float((w - expected).sum()) for w, expected, _, _, _ in extras]
    block = [
        [float((own if a == b else expected * q).sum()) for b, (_, _, q, _, _) in enumerate(extras)]
        for a, (_, expected, _, _, own) in enumerate(extras)
    ]
    return _assemble(arcs, value, resid, curv, (grads, [e[3] for e in extras], block))


def _edge_data(model: Model, perturbed: PerturbedCounts, pinned: int = 0):
    """``(host, visitor, counts, arcs)``: the oriented edges one model
    evaluates, the perturbed counts its kernel reads on them, sliced from
    the per-edge arrays, with their totals ``n``, and the ``Arcs`` of its
    Hessians."""
    i, j, games, wins = perturbed.i, perturbed.j, perturbed.games, perturbed.wins
    t, k = perturbed.num_teams, model.has_tie_parameter + model.has_home_parameter
    if model is Model.BRADLEY_TERRY:  # no ties to read: n is the sum of the two wins
        counts = wins[:1], wins[1:], 0.0, wins[:1] + wins[1:]
        return i[None], j[None], counts, Arcs(i, j, t, k, pinned)
    ties = games[2, 0] + games[2, 1]
    if model is Model.DAVIDSON:
        h, v, arcs = i[None], j[None], Arcs(i, j, t, k, pinned)
        counts = wins[:1], wins[1:], ties[None]
    elif model is Model.RAO_KUPPER:  # the opponent hosts at phi; the host's ties are its wins
        h, v, arcs = np.stack([j, i]), np.stack([i, j]), Arcs(j, i, t, k, pinned)
        counts = np.stack([ties, ties]), wins, 0.0
    else:
        h, v, arcs = np.stack([i, j]), np.stack([j, i]), Arcs(i, j, t, k, pinned)
        counts = games[0], games[1], games[2] if model is Model.DAVID else 0.0
    return h, v, (*counts, counts[0] + counts[1] + counts[2]), arcs


def _terms(model: Model, beta, phi, log_gamma, edge_data):
    """``(value, gradient, Hessian)`` of one model's penalized log-likelihood
    over ``[beta_1 .. beta_t, phi?, log_gamma?]``."""
    h, v, counts, arcs = edge_data
    if model is not Model.RAO_KUPPER:
        return _outcome_terms(beta, h, v, *counts, phi, log_gamma, arcs)
    value, grad, hess = _outcome_terms(beta, h, v, *counts, None, phi, arcs)
    tied = counts[0][0].sum()  # plus log(1 - theta^-2) per tied game
    q, r = np.exp(-2.0 * phi), -np.expm1(-2.0 * phi)  # theta^-2 and 1 - theta^-2
    hess.block[-1, -1] -= tied * 4.0 * q / r**2
    grad[-1] += tied * 2.0 * q / r
    return value + tied * np.log(r), grad, hess


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
        self._edge_data = _edge_data(model, perturbed, pinned=1)  # beta_1 is pinned at 0
        self._tie, self._home = model.has_tie_parameter, model.has_home_parameter
        self.dimension = self.num_teams - 1 + self._tie + self._home

    def _split(self, x: Array):
        """``(beta, phi, log_gamma)`` of a free vector."""
        t = self.num_teams
        if len(x) != self.dimension:
            raise DimensionError(
                f"free vector has length {len(x)}, expected {self.dimension}"
            )
        beta = np.concatenate((_ZERO, x[: t - 1]))
        if self.dimension < t:  # no tie or home parameter
            return beta, None, None
        rest = x[t - 1 :].tolist()
        phi = rest.pop(0) if self._tie else None
        return beta, phi, rest.pop(0) if self._home else None

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
    ) -> tuple[float, Array | None, EdgeHessian | None]:
        """Value, gradient and Hessian in the free layout; ``(-inf, None,
        None)`` outside the Rao-Kupper domain."""
        if not self.in_domain(x):
            return -np.inf, None, None
        value, grad, hess = _terms(self.model, *self._split(x), self._edge_data)
        return value, grad[1:], hess

    def value(self, x: Array) -> float:
        return self.value_gradient_hessian(x)[0]

    def value_and_gradient(self, x: Array) -> tuple[float, Array | None]:
        return self.value_gradient_hessian(x)[:2]


class PosteriorObjective:
    """Unnormalized log-posterior of the Bradley-Terry log merits under
    independent Gamma(shape, rate) priors with shape > 1 and rate > 0: the
    log-likelihood of the venue-free wins of ``counts`` plus ``(shape - 1)
    beta_i - rate exp(beta_i)`` per team, over all t log merits, whose
    edges are the pairs with a raw win.
    """

    def __init__(self, counts: CountMatrices, shape: float, rate: float):
        self.num_teams, self.shape, self.rate = counts.num_teams, shape, rate
        wins = derive_totals(counts)[:2]
        won = (wins != 0).any(axis=0)
        i, j = counts.i[won], counts.j[won]
        wh, wv, arcs = wins[:1, won], wins[1:, won], Arcs(i, j, self.num_teams, 0)
        self._data = i[None], j[None], wh, wv, 0.0, wh + wv, None, None, arcs

    def initial_point(self) -> Array:
        """Uniform merits at the scale of every stationary point,
        ``sum(u) = t (shape - 1) / rate``."""
        return np.full(self.num_teams, np.log((self.shape - 1.0) / self.rate))

    def value_gradient_hessian(self, x: Array) -> tuple[float, Array, EdgeHessian]:
        with np.errstate(over="ignore"):  # a line-search trial may overflow to -inf
            u = np.exp(x)
        value, grad, hess = _outcome_terms(x, *self._data)
        value += float(((self.shape - 1.0) * x - self.rate * u).sum())
        grad += (self.shape - 1.0) - self.rate * u
        hess.shift -= self.rate * u
        return value, grad, hess
