"""Independent oracles the tests check the package against.

``probabilities`` writes each model's outcome law in closed form, apart from
the likelihood kernels, so that a one-game likelihood can be compared with
the log of the outcome's probability. ``condition_c_by_enumeration`` decides
Condition C by scanning every split of the teams, exponentially, to
cross-check the strong-connectivity reduction on small t.
``kendall_distance_by_pairs`` counts discordant pairs one pair at a time.
"""

from __future__ import annotations

import numpy as np

from btrank.errors import (
    ConfigError,
    DimensionError,
    ThetaDomainError,
    VenuelessDataError,
)
from btrank.likelihood import _check_point, _logistic, _lse3
from btrank.types import Dataset, Model, ParameterPoint, Ranking


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


def condition_c_by_enumeration(dataset: Dataset) -> bool:
    """Decide Condition C by scanning every split; exponential, for
    cross-checking the component-based reduction on small t."""
    if dataset.venueless:
        raise VenuelessDataError(
            "condition C needs home/away structure and this dataset has none"
        )
    n_host = dataset.totals.n_host
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
