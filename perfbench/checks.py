"""Output checks. Each returns a list of failure messages (empty when the
output is correct); every failure counts against the workload's operations.

Gradients are recomputed from the returned parameters with the public
``btrank.perturb`` and ``btrank.gradient``, never read back from the fit.
"""

from __future__ import annotations

import math

import numpy as np

#: Reported and recomputed gradient sup-norms must agree this closely
#: (relative), plus an absolute floor for fits that reach round-off.
GRAD_RTOL = 1e-6
GRAD_ATOL = 1e-9
#: The MAP-EM fit reports merits without their scale; the recomputation uses
#: the scale that is stationary along the returned ray, so the two agree only
#: in size (5% apart on sparse-league, a third apart on an 800-team league)
#: while a wrong beta is off by orders of magnitude.
MAP_GRAD_RTOL = 0.5

#: Largest share of team pairs a fitted ranking may order opposite to the
#: planted merits, per workload (a random order scores about 0.5). Measured
#: on the pinned tournaments: sparse-league 0.21-0.22, crowd-cli 0.01,
#: extended-models 0.17-0.18, ten_teams 0.
KENDALL_BOUND = {
    "sparse-league": 0.30,
    "crowd-cli": 0.05,
    "extended-models": 0.30,
    "small-fits": 0.10,
}


def merits_ok(merits) -> list[str]:
    merits = np.asarray(merits, dtype=float)
    if merits.size == 0 or not np.all(np.isfinite(merits)) or np.any(merits <= 0):
        return ["merits must be finite and positive"]
    return []


def kendall_share(ranked_teams, planted: dict[str, float]) -> float:
    """Share of team pairs the ranking (best first) orders opposite to the
    planted log-merits."""
    beta = np.array([planted[name] for name in ranked_teams])
    t = len(beta)
    rows, cols = np.triu_indices(t, 1)
    # rows come earlier in the ranking, so the pair is discordant when the
    # planted merit of the earlier team is lower
    return float(np.count_nonzero(beta[rows] < beta[cols])) / len(rows)


def ranking_ok(ranked_teams, planted: dict[str, float], workload: str) -> list[str]:
    share = kendall_share(ranked_teams, planted)
    bound = KENDALL_BOUND[workload]
    if not share <= bound:
        return [f"Kendall share {share:.3f} to the planted order exceeds {bound}"]
    return []


def _agree(reported: float, recomputed: float, rtol: float) -> list[str]:
    if not (math.isfinite(reported) and math.isfinite(recomputed)):
        return [f"gradient sup-norm not finite: {reported} vs {recomputed}"]
    if abs(reported - recomputed) > GRAD_ATOL + rtol * max(reported, recomputed):
        return [f"reported gradient sup-norm {reported:.6g} != recomputed {recomputed:.6g}"]
    return []


def fit_gradient(btrank, dataset, spec, beta, theta=None, gamma=None) -> float:
    """Sup-norm of the penalized log-likelihood gradient at the returned point."""
    point = btrank.ParameterPoint(
        beta=np.asarray(beta, dtype=float),
        phi=None if theta is None else math.log(theta),
        log_gamma=None if gamma is None else math.log(gamma),
    )
    perturbed = btrank.perturb(dataset, spec.perturbation)
    return float(np.max(np.abs(btrank.gradient(spec.model, point, perturbed))))


def map_gradient(btrank, dataset, shape: float, beta) -> float:
    """Sup-norm of the Gamma(shape, shape*t - 1) log-posterior gradient with
    respect to log-merits, at the returned merits rescaled to the stationary
    scale ``sum(u) = t (shape - 1) / rate``."""
    t = dataset.num_teams
    rate = shape * t - 1.0
    beta = np.asarray(beta, dtype=float)
    u = np.exp(beta)
    u *= t * (shape - 1.0) / (rate * u.sum())
    zeros = btrank.MatrixShift(np.zeros((t, t)))
    g_free = btrank.gradient(
        btrank.Model.BRADLEY_TERRY, btrank.ParameterPoint(beta=beta), btrank.perturb(dataset, zeros)
    )
    # The likelihood gradient over all t teams sums to zero.
    g_lik = np.concatenate([[-g_free.sum()], g_free])
    return float(np.max(np.abs(g_lik + (shape - 1.0) - rate * u)))


def check_fit(btrank, dataset, spec, result, ranking, planted, workload):
    """Checks on one penalized fit and its ranking; returns the failures and
    the recomputed gradient sup-norm."""
    failures = merits_ok(result.merits_u)
    grad = fit_gradient(btrank, dataset, spec, result.beta, result.theta_hat, result.gamma_hat)
    failures += _agree(result.gradient_sup_norm, grad, GRAD_RTOL)
    if planted is not None:
        failures += ranking_ok(ranking.team_order(), planted, workload)
    return failures, grad


def check_map_fit(btrank, dataset, shape, result, ranking, planted, workload):
    """As :func:`check_fit`, for a MAP-EM fit under a Gamma(shape) prior."""
    failures = merits_ok(result.merits_u)
    grad = map_gradient(btrank, dataset, shape, result.beta)
    failures += _agree(result.gradient_sup_norm, grad, MAP_GRAD_RTOL)
    if planted is not None:
        failures += ranking_ok(ranking.team_order(), planted, workload)
    return failures, grad


def consistency_ok(report) -> list[str]:
    """Errors are finite and their medians shrink as the field grows."""
    errors = np.asarray(report.errors, dtype=float)
    if not np.all(np.isfinite(errors)) or np.any(errors < 0):
        return ["consistency errors must be finite and nonnegative"]
    medians = list(report.medians)
    if any(later >= earlier for earlier, later in zip(medians, medians[1:])):
        return [f"median errors {medians} do not shrink as t grows"]
    return []


def check_cli_payload(btrank, payload: dict, counts, planted) -> tuple[list[str], float]:
    """Checks on the JSON a ``btrank fit --model bt`` run wrote.

    ``counts`` is ``(a_home, a_away, t_home, names)`` from the generator, so
    the dataset is rebuilt without the program's own parsing.
    """
    try:
        teams = list(payload["teams"])
        beta = np.asarray(payload["beta"], dtype=float)
        reported = float(payload["gradient_sup_norm"])
        epsilon = float(payload["epsilon"])
        ranking = list(payload["ranking"])
        merits = payload["merits"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"fit JSON is missing or malformed: {exc!r}"], math.nan
    a_home, a_away, t_home, names = counts
    if sorted(teams) != sorted(names) or len(beta) != len(teams):
        return ["fit JSON does not cover the generated teams"], math.nan
    index = {name: k for k, name in enumerate(names)}
    order = np.array([index[name] for name in teams])
    dataset = btrank.venue_dataset(
        teams,
        a_home[np.ix_(order, order)],
        a_away[np.ix_(order, order)],
        t_home[np.ix_(order, order)],
    )
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(epsilon))
    failures = merits_ok(merits)
    if beta[0] != 0.0:
        return failures + ["beta of the reference team is not 0"], math.nan
    grad = fit_gradient(btrank, dataset, spec, beta)
    failures += _agree(reported, grad, GRAD_RTOL)
    failures += ranking_ok(ranking, planted, "crowd-cli")
    return failures, grad
