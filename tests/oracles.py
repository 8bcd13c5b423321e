"""Independent oracles the tests check the package against.

``probabilities`` writes each model's outcome law in closed form, apart from
the likelihood kernels, so that a one-game likelihood can be compared with
the log of the outcome's probability. ``condition_c_by_enumeration`` decides
Condition C by scanning every split of the teams, exponentially, to
cross-check the strong-connectivity reduction on small t.
``kendall_distance_by_pairs`` counts discordant pairs one pair at a time.

``dense`` and ``dense_perturbed`` scatter the per-edge counts of a dataset
or of perturbed counts back to the t x t matrices of the venue conventions
in ``btrank.types``. ``dense_totals``, ``dense_perturb`` and
``dense_existence_refusal`` are the dense reference formulas the per-edge
layout replaced: the venue-free totals of venue-split matrices, the three
perturbation schemes applied to them, and the fit's existence rule read off
the perturbed matrices, with ``first_source_component`` found by a
transitive closure.

``edge_flow_product`` is ``EdgeHessian.matvec`` written out with fresh
arrays: the pinned merits padded with zeros, the edge flows gathered, and
the Laplacian as one bincount minus another, so the package's product,
which reuses a work vector, must match it bit for bit.

``outcome_terms`` is ``likelihood._outcome_terms`` as it was written before
its shared subexpressions were formed once: ``logistic``, the kernel and its
``assemble``, each border row scattered by its own pair of bincounts, so
the package's kernel, which forms each product once, must match it bit for
bit.

``home_field_has_unique_maximizer`` decides by linear programming whether
the home-field likelihood of perturbed counts has a unique maximizer, to
check the existence rule against.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from btrank.errors import (
    ConfigError,
    DimensionError,
    ThetaDomainError,
    VenuelessDataError,
)
from btrank.connectivity import CONDITION_B, CONDITION_C, FITTED_A
from btrank.likelihood import EdgeHessian, _check_point, _fold, _logistic, _lse3
from btrank.perturbation import resolve_epsilon
from btrank.types import (
    ConnerGrant,
    Dataset,
    Improved,
    MatrixShift,
    Model,
    ParameterPoint,
    PartitionWitness,
    PerturbedCounts,
    Ranking,
)


def _scatter(t: int, i, j, forward, backward) -> np.ndarray:
    """The t x t matrix with ``forward`` at (i, j) and ``backward`` at (j, i)."""
    out = np.zeros((t, t))
    out[i, j], out[j, i] = forward, backward
    return out


def _venue_matrices(t: int, i, j, games) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a_home, a_away, t_home)`` of per-edge games."""
    return (
        _scatter(t, i, j, games[0, 0], games[0, 1]),
        _scatter(t, i, j, games[1, 1], games[1, 0]),
        _scatter(t, i, j, games[2, 0], games[2, 1]),
    )


def dense_totals(a_home, a_away, t_home) -> SimpleNamespace:
    """The venue matrices with their dense totals: ``a = a_home + a_away``
    (wins anywhere), ``ties = t_home + t_home.T``, ``n = a + a.T + ties``
    and ``n_host = a_home + a_away.T + t_home`` (games at i's venue
    against j)."""
    a = a_home + a_away
    ties = t_home + t_home.T
    return SimpleNamespace(
        a_home=a_home,
        a_away=a_away,
        t_home=t_home,
        a=a,
        ties=ties,
        n=a + a.T + ties,
        n_host=a_home + a_away.T + t_home,
    )


def dense(dataset: Dataset) -> SimpleNamespace:
    """``dense_totals`` of a dataset's counts, scattered to t x t."""
    c = dataset.counts
    return dense_totals(*_venue_matrices(c.num_teams, c.i, c.j, c.games))


def dense_perturbed(perturbed: PerturbedCounts) -> SimpleNamespace:
    """Perturbed counts scattered to t x t: ``a_home``, ``a_away``,
    ``t_home``, the venue-free ``a_free``, ``ties`` and ``n_host``."""
    t, i, j = perturbed.num_teams, perturbed.i, perturbed.j
    a_home, a_away, t_home = _venue_matrices(t, i, j, perturbed.games)
    return SimpleNamespace(
        a_home=a_home,
        a_away=a_away,
        t_home=t_home,
        a_free=_scatter(t, i, j, perturbed.wins[0], perturbed.wins[1]),
        ties=t_home + t_home.T,
        n_host=a_home + a_away.T + t_home,
    )


def dense_perturb(dataset: Dataset, spec) -> SimpleNamespace:
    """The dense reference of ``perturb``, in the names of
    ``dense_perturbed``: Improved adds eps to ``a`` where ``n > 0``, to
    ``a_home`` where ``n_host > 0`` and to ``a_away`` where ``n_host.T >
    0``; ConnerGrant adds eps off the diagonal; MatrixShift adds ``a0`` to
    ``a`` alone. On venueless data ``a_home`` and ``a_away`` stay raw."""
    d = dense(dataset)
    t = dataset.num_teams
    if isinstance(spec, MatrixShift):
        free, home, away = spec.a0, 0.0, 0.0
    elif isinstance(spec, Improved):
        eps = resolve_epsilon(spec, t)
        free, home, away = eps * (d.n > 0), eps * (d.n_host > 0), eps * (d.n_host.T > 0)
    else:
        assert isinstance(spec, ConnerGrant)
        free = home = away = resolve_epsilon(spec, t) * ~np.eye(t, dtype=bool)
    if dataset.venueless:
        home = away = 0.0
    a_home, a_away = d.a_home + home, d.a_away + away
    return SimpleNamespace(
        a_home=a_home,
        a_away=a_away,
        t_home=d.t_home,
        a_free=d.a + free,
        ties=d.ties,
        n_host=a_home + a_away.T + d.t_home,
    )


def probabilities(
    model: Model,
    point: ParameterPoint,
    i: int,
    j: int,
    venue: int | None = None,
) -> tuple[float, float, float]:
    """Outcome probabilities (i wins, j wins, tie) for one pairing.

    The venue-free models ignore ``venue``. The venue models require
    ``venue`` to name the hosting team (either ``i`` or ``j``). Models
    without a tie probability return an exact 0.0 tie component.
    """
    t = len(point.beta)
    _check_point(model, point, t)
    if not (0 <= i < t and 0 <= j < t) or i == j:
        raise DimensionError(f"need two distinct team indices in [0, {t}), got {i}, {j}")
    beta = point.beta
    bi, bj = beta[i], beta[j]

    if model is Model.BRADLEY_TERRY:
        p_i = float(_logistic(bi - bj)[0])
        return p_i, 1.0 - p_i, 0.0

    if model is Model.RAO_KUPPER:
        if point.phi <= 0.0:
            raise ThetaDomainError(f"Rao-Kupper needs theta > 1, got phi={point.phi}")
        phi = point.phi
        p_i = float(_logistic(bi - phi - bj)[0])
        p_j = float(_logistic(bj - phi - bi)[0])
        tie_c = 2.0 * phi + np.log1p(-np.exp(-2.0 * phi))
        d_ij = np.logaddexp(bi, phi + bj)
        d_ji = np.logaddexp(bj, phi + bi)
        p_tie = float(np.exp(tie_c + bi + bj - d_ij - d_ji))
        return p_i, p_j, p_tie

    if model is Model.DAVIDSON:
        mid = point.phi + (bi + bj) / 2.0
        d = _lse3(bi, bj, mid)
        return float(np.exp(bi - d)), float(np.exp(bj - d)), float(np.exp(mid - d))

    if venue not in (i, j):
        raise ConfigError(
            f"{model.value} probabilities need venue set to the hosting team "
            f"({i} or {j})"
        )
    host, guest = (i, j) if venue == i else (j, i)
    bh, bg = beta[host], beta[guest]

    if model is Model.HOME_FIELD:
        p_host = float(_logistic(point.log_gamma + bh - bg)[0])
        p_i = p_host if host == i else 1.0 - p_host
        return p_i, 1.0 - p_i, 0.0

    # Model.DAVID
    mid = point.phi + (bh + bg) / 2.0
    d = _lse3(point.log_gamma + bh, bg, mid)
    p_host = float(np.exp(point.log_gamma + bh - d))
    p_guest = float(np.exp(bg - d))
    p_tie = float(np.exp(mid - d))
    if host == i:
        return p_host, p_guest, p_tie
    return p_guest, p_host, p_tie


def first_source_component(adjacency) -> tuple[int, ...]:
    """The source SCC holding the smallest vertex of a boolean adjacency
    matrix, read off its transitive closure (Warshall)."""
    t = adjacency.shape[0]
    reach = adjacency | np.eye(t, dtype=bool)
    for k in range(t):
        reach |= np.outer(reach[:, k], reach[k])
    for v in range(t):
        component = reach[v] & reach[:, v]
        if not (reach[:, v] & ~component).any():  # nothing outside reaches v
            return tuple(int(u) for u in np.flatnonzero(component))


def dense_existence_refusal(model: Model, spec, perturbed: SimpleNamespace, teams):
    """``(message, witness)`` of the refusal the existence rule gives on
    dense perturbed counts (``dense_perturb``), or None: a negative
    venue-free win count, first in row order, or a perturbed digraph the
    model reads that is not strongly connected."""
    negative = perturbed.a_free < 0
    if negative.any():
        i, j = np.unravel_index(negative.argmax(), negative.shape)
        return (
            f"refused: after the shift, a_free gives team {teams[i]!r} a "
            f"negative win count {perturbed.a_free[i, j]:g} over team {teams[j]!r}, so "
            f"the {model.value} estimate is not guaranteed to exist"
        ), None
    if not model.has_home_parameter:
        weights = perturbed.a_free
    elif model.has_tie_parameter:
        weights = perturbed.n_host
    else:
        weights = perturbed.a_home + perturbed.a_away.T
    q1 = first_source_component(weights > 0)
    if len(q1) < len(teams):
        if isinstance(spec, Improved):  # ConnerGrant lifts every pair: never here
            condition, detail = CONDITION_C if model.has_home_parameter else CONDITION_B
        else:
            condition, detail = FITTED_A
        q2 = sorted(set(range(len(teams))) - set(q1))
        witness = PartitionWitness(condition, q1, q2, detail)
        message = f"the {model.value} estimate does not exist for these data: "
        return message + witness.describe(teams), witness
    return None


def edge_flow_product(h, x) -> np.ndarray:
    """``H @ x`` for an ``EdgeHessian`` h over its layout: pad the pinned
    merits with zeros, gather the edge flows ``w_e (x_i - x_j)``, subtract
    their bincount over j from their bincount over i, then add the shift,
    border and block terms."""
    t, p, a = len(h.shift), h.pinned, h.arcs
    beta = np.concatenate([np.zeros(p), x[: t - p]])
    flow = h.weight * (beta[a.i] - beta[a.j])
    laplacian = np.bincount(a.i, flow, t) - np.bincount(a.j, flow, t)
    merits = h.shift[p:] * beta[p:] - laplacian[p:]
    if not len(h.block):
        return merits
    extra, border = x[t - p :], h.border[:, p:]
    return np.concatenate([merits + extra @ border, border @ beta[p:] + h.block @ extra])


def logistic(x):
    """``(s(x), s(-x), log s(x), log s(-x))`` by the formulas the kernel's
    ``_logistic`` must reproduce: the logs as ``-(max(-x, 0) + log1p(e))``
    and ``-(max(x, 0) + log1p(e))`` with ``e = exp(-|x|)``."""
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


def assemble(arcs, value, resid, curv, extras=()):
    """``(value, gradient, EdgeHessian)`` of the kernel's per-edge arrays,
    the gradient and each border row scattered by a pair of bincounts."""
    i, j, t = arcs.i, arcs.j, arcs.t
    r = _fold(resid, np.subtract)
    grad = np.subtract(np.bincount(i, r, t), np.bincount(j, r, t), dtype=float)
    hess = EdgeHessian(arcs, _fold(curv, np.add), np.zeros(t), np.zeros((0, 0)), np.zeros((0, 0)))
    if extras:
        grads, borders, block = extras
        grad = np.concatenate([grad, grads])
        folded = [_fold(b, np.subtract) for b in borders]
        hess.border = np.array([np.bincount(i, b, t) - np.bincount(j, b, t) for b in folded])
        hess.block = np.array(block)
    return value, grad, hess


def outcome_terms(beta, host, visitor, wh, wv, wt, n, phi, lg, arcs):
    """``likelihood._outcome_terms`` with every product written out where
    it is used, in the same order of operations."""
    b_h, b_v = beta[host], beta[visitor]
    h = b_h if lg is None else b_h + lg
    if phi is None:
        p_h, p_v, log_h, log_v = logistic(h - b_v)
        value = float((wh * log_h + wv * log_v).sum())
        resid, curv = wh * p_v - wv * p_h, n * (p_h * p_v)
        if lg is None:
            return assemble(arcs, value, resid, curv)
    else:
        tie = phi + (b_h + b_v) / 2.0
        d = _lse3(h, b_v, tie)
        value = float((wh * (h - d) + wv * (b_v - d) + wt * (tie - d)).sum())
        p_h, p_v, p_t = np.exp(h - d), np.exp(b_v - d), np.exp(tie - d)
        resid = (wh - wv) * p_t / 2.0 + wh * p_v - wv * p_h - wt * (p_h - p_v) / 2.0
        curv = n * (p_h * p_v + p_t * (p_h + p_v) / 4.0)
    extras = []
    if phi is not None:
        extras.append((wt, p_t, n * p_t * (p_h - p_v) / 2.0, -n * p_t * (p_h + p_v)))
        if lg is not None:
            extras.append((wh, p_h, n * p_h * (p_h + p_t / 2.0 - 1.0), n * p_h * (p_h - 1.0)))
    else:
        extras.append((wh, p_h, -curv, -curv))
    grads = [float((w - n * p).sum()) for w, p, _, _ in extras]
    block = [
        [float((own if a == b else n * p * q).sum()) for b, (_, q, _, _) in enumerate(extras)]
        for a, (_, p, _, own) in enumerate(extras)
    ]
    return assemble(arcs, value, resid, curv, (grads, [e[2] for e in extras], block))


def home_field_has_unique_maximizer(perturbed: PerturbedCounts) -> bool:
    """True when the home-field log-likelihood of the perturbed counts has a
    unique maximizer, for nonnegative counts.

    In z = (beta_1, ..., beta_{t-1}, log_gamma), a host win of h over v
    scores ``log_gamma + beta_h - beta_v`` and a visitor win the negative.
    The objective is a positive sum of log-logistic functions of the
    scores of the observed outcomes, so a maximizer exists and is unique
    exactly when its recession cone, the directions along which no
    observed score falls, is {0}. Each of the 2 t linear programs
    maximizes +z_k or -z_k over that cone cut to the box [-1, 1]; the cone
    is {0} when every optimum is 0.
    """
    t, i, j, games = perturbed.num_teams, perturbed.i, perturbed.j, perturbed.games
    rows = []
    for orientation, (host, visitor) in enumerate(((i, j), (j, i))):
        for outcome, sign in ((0, 1.0), (1, -1.0)):  # host win, visitor win
            observed = games[outcome, orientation] > 0
            score = np.zeros((observed.sum(), t + 1))
            at = np.arange(len(score))
            score[at, host[observed]] += sign
            score[at, visitor[observed]] -= sign
            score[:, t] = sign
            rows.append(score[:, 1:])  # beta_0 is pinned at 0
    cone = -np.concatenate(rows)  # cone @ z <= 0: no observed score falls
    for k in range(t):
        for sign in (1.0, -1.0):
            c = np.zeros(t)
            c[k] = -sign
            lp = linprog(c, A_ub=cone, b_ub=np.zeros(len(cone)), bounds=(-1.0, 1.0))
            if lp.status != 0 or -lp.fun > 1e-9:
                return False
    return True


def condition_c_by_enumeration(dataset: Dataset) -> bool:
    """Decide Condition C by scanning every split; exponential, for
    cross-checking the component-based reduction on small t."""
    if dataset.venueless:
        raise VenuelessDataError(
            "condition C needs home/away structure and this dataset has none"
        )
    n_host = dense(dataset).n_host
    t = dataset.num_teams
    for mask in range(1, 2**t - 1):
        q1 = [i for i in range(t) if mask >> i & 1]
        q2 = [i for i in range(t) if not mask >> i & 1]
        hosts = n_host[np.ix_(q1, q2)].sum() > 0
        visits = n_host[np.ix_(q2, q1)].sum() > 0
        if not (hosts and visits):
            return False
    return True


def kendall_distance_by_pairs(first: Ranking, second: Ranking) -> int:
    """Number of team pairs the two rankings order oppositely, by a double
    loop over the pairs."""
    pos_a = {team_idx: k for k, team_idx in enumerate(first.order)}
    pos_b = {team_idx: k for k, team_idx in enumerate(second.order)}
    t = len(first.teams)
    count = 0
    for i in range(t):
        for j in range(i + 1, t):
            if (pos_a[i] - pos_a[j]) * (pos_b[i] - pos_b[j]) < 0:
                count += 1
    return count
