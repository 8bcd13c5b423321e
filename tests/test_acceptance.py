"""Whole-package acceptance checks.

These tests exercise the public API end to end: pinned reference outputs on
the bundled example datasets, refusal guarantees on unfittable inputs,
agreement between independent computations of the same quantity, and the
statistical behavior the estimator is designed to have. Finer-grained unit
tests live in the per-module files; nothing here reaches into private
helpers.

The reference merits below are frozen oracles: they were computed once with
independent high-precision runs (fixed-point iteration and grid refinement
pushed far past the package's default tolerances) and are asserted at the
precision they are quoted at.
"""

import math
import os
import time

import numpy as np
import pytest

import btrank
from btrank import Model, ModelSpec

from conftest import (
    names,
    random_balanced_dataset,
    random_connected_dataset,
    random_point,
    random_strongly_connected_dataset,
    random_venue_dataset,
)
from oracles import condition_c_by_enumeration

TIGHT = btrank.SolverConfig(rel_ll_tol=1e-14, max_iters=100_000)
LONG = btrank.SolverConfig(max_iters=200_000)


def bt_spec(perturbation):
    return ModelSpec(Model.BRADLEY_TERRY, perturbation)


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for k in range(len(x)):
        step = np.zeros_like(g)
        step[k] = h
        g[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# Reference outputs on the bundled datasets.

# Four-team example: merits of teams 2..4 relative to team 1, per epsilon.
FOUR_TEAM_MERITS = (
    (0.001, (0.500, 5.0e-4, 0.001)),
    (0.01, (0.502, 0.005, 0.010)),
    (0.1, (0.524, 0.048, 0.091)),
    (0.5, (0.600, 0.200, 0.333)),
    (1.0, (0.667, 0.333, 0.500)),
    (2.0, (0.750, 0.500, 0.667)),
)

# Ten-team example: merits of B1..B9 with B10 pinned to 1.
TEN_TEAM_MERITS = (
    (10**-0.5, (17.13, 11.23, 8.353, 5.348, 4.544, 3.552, 2.918, 2.451, 1.427)),
    (
        math.sqrt(math.log(10) / 10),
        (9.414, 6.558, 5.133, 3.731, 3.267, 2.743, 2.317, 2.022, 1.353),
    ),
    (0.8, (5.062, 3.815, 3.166, 2.581, 2.337, 2.091, 1.829, 1.660, 1.267)),
    (1.0, (4.017, 3.131, 2.660, 2.252, 2.066, 1.887, 1.675, 1.543, 1.232)),
    (2.0, (2.277, 1.945, 1.758, 1.614, 1.531, 1.462, 1.354, 1.292, 1.142)),
)

# Five-team example: merits of B2..B5 relative to B1.
FIVE_TEAM_MERITS = (
    (0.01, (50.00, 0.030, 0.001, 0.000)),
    (0.05, (10.03, 0.154, 0.030, 0.003)),
    (0.1, (5.122, 0.298, 0.104, 0.017)),
    (1.0, (1.339, 0.867, 0.772, 0.421)),
    (2.0, (1.176, 0.931, 0.886, 0.607)),
)

# Posterior modes on the four-team example with rate = shape * 4 - 1,
# reported on the simplex, and the order they induce.
POSTERIOR_MERITS = (
    (1.1, (0.572, 0.281, 0.053, 0.094), (0, 1, 3, 2)),
    (1.5, (0.430, 0.229, 0.139, 0.201), (0, 1, 3, 2)),
    (2.0, (0.374, 0.221, 0.175, 0.230), (0, 3, 1, 2)),
    (3.0, (0.330, 0.224, 0.204, 0.243), (0, 3, 1, 2)),
)


def within_quoted_precision(got, expected, abs_tol=1e-3, rel_tol=0.02):
    for g, e in zip(got, expected):
        assert abs(g - e) <= max(abs_tol, rel_tol * abs(e)), (got, expected)


def test_four_team_merits_across_epsilon_within_a_second(four_teams):
    elapsed = 0.0
    for eps, expected in FOUR_TEAM_MERITS:
        t0 = time.perf_counter()
        result = btrank.fit(bt_spec(btrank.Improved(eps)), four_teams, LONG)
        elapsed += time.perf_counter() - t0
        assert result.converged
        within_quoted_precision(result.merits_u[1:], expected)
    assert elapsed < 1.0


def test_ten_team_merits_and_strict_ranking(ten_teams):
    for eps, expected in TEN_TEAM_MERITS:
        result = btrank.fit(bt_spec(btrank.Improved(eps)), ten_teams, LONG)
        assert result.converged
        rel = result.merits_u / result.merits_u[-1]
        assert np.abs(rel[:-1] - np.asarray(expected)).max() <= 1e-2
        ranking = btrank.extract_ranking(result)
        assert ranking.order == tuple(range(10))
        assert all(len(group) == 1 for group in ranking.groups)


def test_five_team_merits_and_strict_ranking(five_teams):
    for eps, expected in FIVE_TEAM_MERITS:
        result = btrank.fit(bt_spec(btrank.Improved(eps)), five_teams, LONG)
        assert result.converged
        within_quoted_precision(result.merits_u[1:], expected)
        assert btrank.extract_ranking(result).order == (1, 0, 2, 3, 4)


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_small_epsilon_fits_converge_to_the_gradient_target(ten_teams, eps):
    result = btrank.fit(bt_spec(btrank.Improved(eps)), ten_teams)
    assert result.converged
    assert result.gradient_sup_norm <= 1e-8


def test_blanket_lift_moves_merits_and_flips_ranking(four_teams):
    light = btrank.fit(bt_spec(btrank.ConnerGrant(0.1)), four_teams, LONG)
    heavy = btrank.fit(bt_spec(btrank.ConnerGrant(0.5)), four_teams, LONG)
    assert np.abs(light.merits_u[1:] - np.array([0.470, 0.162, 0.262])).max() <= 1e-3
    assert np.abs(heavy.merits_u[1:] - np.array([0.569, 0.453, 0.585])).max() <= 1e-3
    assert btrank.extract_ranking(light).order == (0, 1, 3, 2)
    assert btrank.extract_ranking(heavy).order == (0, 3, 1, 2)


def test_posterior_mode_merits_and_prior_strength_flip(four_teams):
    for shape, expected, order in POSTERIOR_MERITS:
        result = btrank.fit_map_em(four_teams, btrank.MapPriorSpec(shape=shape), TIGHT)
        assert result.converged
        assert np.abs(result.merits_u - np.asarray(expected)).max() <= 1e-3
        assert btrank.extract_ranking(result).order == order


# ---------------------------------------------------------------------------
# Refusal guarantees.


def _two_islands(rng):
    """Win matrix with two groups of teams that never meet."""
    t = int(rng.integers(4, 8))
    split = int(rng.integers(2, t - 1))
    a = np.zeros((t, t))
    a[:split, :split] = rng.integers(0, 3, (split, split))
    a[split:, split:] = rng.integers(0, 3, (t - split, t - split))
    np.fill_diagonal(a, 0)
    a[0, 1] += 1
    a[split, split + 1] += 1
    return btrank.venue_free_dataset(names(t), a)


def _one_way_hosting(rng, with_ties):
    """Venue data where team 0 hosts everyone but never plays on the road."""
    t = int(rng.integers(3, 7))
    a_home = np.zeros((t, t))
    a_away = np.zeros((t, t))
    t_home = np.zeros((t, t))
    for j in range(1, t):
        a_home[0, j] = 1 + rng.integers(0, 2)
        a_away[j, 0] = rng.integers(0, 2)
    for i in range(1, t):
        for j in range(1, t):
            if i != j:
                a_home[i, j] = rng.integers(0, 3)
                a_away[i, j] = rng.integers(0, 3)
    if with_ties:
        t_home[0, 1] = 1
    return btrank.venue_dataset(names(t), a_home, a_away, t_home)


def test_unfittable_data_is_always_refused_with_evidence():
    rng = np.random.default_rng(2026)
    refused = 0

    for _ in range(20):
        data = _two_islands(rng)
        with pytest.raises(btrank.ExistenceError) as err:
            btrank.fit(bt_spec(btrank.Improved(0.3)), data)
        assert err.value.witness is not None
        assert btrank.witness_is_valid(data, err.value.witness)
        refused += 1

    for model in (Model.RAO_KUPPER, Model.DAVIDSON):
        for _ in range(5):
            data = random_connected_dataset(rng, t=5, with_ties=False)
            with pytest.raises(btrank.NoTiesError):
                btrank.fit(ModelSpec(model, btrank.Improved(0.3)), data)
            refused += 1

    for _ in range(5):
        data = random_venue_dataset(rng, t=4, with_ties=False)
        with pytest.raises(btrank.NoTiesError):
            btrank.fit(ModelSpec(Model.DAVID, btrank.Improved(0.3)), data)
        refused += 1

    for _ in range(8):
        data = _one_way_hosting(rng, with_ties=False)
        with pytest.raises(btrank.ExistenceError) as err:
            btrank.fit(ModelSpec(Model.HOME_FIELD, btrank.Improved(0.3)), data)
        assert btrank.witness_is_valid(data, err.value.witness)
        refused += 1

    for _ in range(7):
        data = _one_way_hosting(rng, with_ties=True)
        with pytest.raises(btrank.ExistenceError) as err:
            btrank.fit(ModelSpec(Model.DAVID, btrank.Improved(0.3)), data)
        assert btrank.witness_is_valid(data, err.value.witness)
        refused += 1

    assert refused == 50


# ---------------------------------------------------------------------------
# Agreement between independent computations.


def _fittable_dataset(model, rng, t_free=6, t_venue=5, max_games=3):
    ties = model.has_tie_parameter
    if model.has_home_parameter:
        return random_venue_dataset(rng, t=t_venue, max_games=max_games, with_ties=ties)
    return random_connected_dataset(rng, t=t_free, max_games=max_games, with_ties=ties)


@pytest.mark.parametrize("model", list(Model))
def test_gradients_match_finite_differences(model):
    rng = np.random.default_rng(100 + list(Model).index(model))
    checked = 0
    for _ in range(5):
        data = _fittable_dataset(model, rng)
        objective = btrank.Objective(model, btrank.perturb(data, btrank.Improved(0.3)))
        for _ in range(20):
            x = random_point(objective, rng)
            value, analytic = objective.value_and_gradient(x)
            assert math.isfinite(value)
            numeric = fd_gradient(objective.value, x)
            scale = max(1.0, float(np.abs(analytic).max()))
            assert np.abs(analytic - numeric).max() / scale <= 1e-5
            checked += 1
    assert checked == 100


def _map_objective(rng):
    """A posterior objective on random fittable data, with a proper Gamma
    prior or, one time in three, the flat prior (which needs win cycles):
    the Bradley-Terry objective of the unshifted counts."""
    if rng.random() < 1.0 / 3.0:
        data = random_strongly_connected_dataset(rng, t=5)
        zeros = btrank.MatrixShift(np.zeros((5, 5)))
        return btrank.Objective(Model.BRADLEY_TERRY, btrank.perturb(data, zeros))
    data = random_connected_dataset(rng, t=6)
    shape = float(rng.uniform(1.1, 3.0))
    return btrank.PosteriorObjective(data.counts, shape, shape * 6 - 1.0)


@pytest.mark.parametrize("model", list(Model) + ["map"])
def test_hessians_match_finite_differences(model):
    rng = np.random.default_rng(300 + (list(Model) + ["map"]).index(model))
    checked = 0
    for _ in range(5):
        if model == "map":
            objective = _map_objective(rng)
        else:
            data = _fittable_dataset(model, rng)
            objective = btrank.Objective(model, btrank.perturb(data, btrank.Improved(0.3)))
        dimension = len(objective.initial_point())
        for _ in range(20):
            if model == "map":
                x = objective.initial_point() + rng.uniform(-1.0, 1.0, dimension)
            else:
                x = random_point(objective, rng)
            value, _, hess = objective.value_gradient_hessian(x)
            analytic = np.asarray(hess)
            assert math.isfinite(value)
            numeric = np.stack(
                [
                    fd_gradient(lambda z: objective.value_gradient_hessian(z)[1][k], x)
                    for k in range(dimension)
                ]
            )
            scale = max(1.0, float(np.abs(analytic).max()))
            assert np.abs(analytic - analytic.T).max() / scale <= 1e-12
            assert np.abs(analytic - numeric).max() / scale <= 1e-5
            checked += 1
    assert checked == 100


@pytest.mark.parametrize("model", list(Model))
def test_five_restarts_land_on_the_same_maximizer(model):
    rng = np.random.default_rng(200 + list(Model).index(model))
    for _ in range(30):
        data = _fittable_dataset(model, rng, t_free=5, t_venue=4, max_games=2)
        objective = btrank.Objective(model, btrank.perturb(data, btrank.Improved(0.4)))
        t = data.num_teams
        betas = []
        for _ in range(5):
            x, _ = btrank.maximize_concave(objective, random_point(objective, rng))
            betas.append(x[: t - 1])
        stack = np.stack(betas)
        assert np.abs(stack - stack[0]).max() <= 1e-6


def test_hosting_connectivity_shortcut_matches_enumeration():
    rng = np.random.default_rng(31)
    verdicts = set()
    checked = 0
    while checked < 100:
        t = int(rng.integers(3, 8))
        density = float(rng.uniform(0.1, 0.9))
        a_home = rng.integers(0, 3, (t, t)) * (rng.random((t, t)) < density)
        a_away = rng.integers(0, 3, (t, t)) * (rng.random((t, t)) < density)
        t_home = rng.integers(0, 2, (t, t)) * (rng.random((t, t)) < 0.2)
        for m in (a_home, a_away, t_home):
            np.fill_diagonal(m, 0)
        if a_home.sum() + a_away.sum() + t_home.sum() == 0:
            continue
        data = btrank.venue_dataset(
            names(t), a_home.astype(float), a_away.astype(float), t_home.astype(float)
        )
        fast = btrank.check_condition_c(data) is None
        assert fast == condition_c_by_enumeration(data)
        verdicts.add(fast)
        checked += 1
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Behavior the estimator is designed to have.


def canonical_groups(ranking):
    """Tie groups in rank order, each sorted by team index.

    Two teams with exactly equal merits may come out of different fits in
    either float order, so comparing flat order tuples would be flaky;
    group structure is the meaningful notion of "same ranking".
    """
    return tuple(tuple(sorted(group)) for group in ranking.groups)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the perturbed ranking is NOT always the unperturbed one at moderate "
        "epsilon; see the docstring for a six-team counterexample"
    ),
)
def test_moderate_epsilon_preserves_unperturbed_ranking():
    """Asserted claim: whenever the unperturbed maximum likelihood estimate
    exists, the met-pairs perturbation leaves the ranking unchanged for any
    epsilon. That claim is false, and this test documents it failing.

    Counterexample (t=6 wins matrix, rows beat columns)::

        [[0 1 0 0 0 0]
         [0 0 0 3 2 0]
         [0 2 0 1 0 0]
         [2 3 3 0 0 3]
         [3 2 1 0 0 2]
         [3 0 0 0 0 0]]

    The win digraph is strongly connected, so the plain estimate exists and
    puts team 4 above team 3 by 0.075 in log merit. At epsilon 0.5 the
    perturbed fit puts team 3 above team 4 by 0.006, and by 0.024 at
    epsilon 1 (confirmed with two independent optimizers). Teams 3 and 4
    never met, so the perturbation changes their strength only through
    opponents, and not proportionally. Across 300 random strongly connected
    draws, 14 flipped a resolved pair at epsilon 0.1, 49 at 0.5, and 76 at
    1.0. What is actually true is the small-epsilon statement pinned by
    test_small_epsilon_preserves_resolved_comparisons.
    """
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = int(rng.integers(4, 7))
        data = random_strongly_connected_dataset(rng, t=t)
        plain = btrank.fit(bt_spec(btrank.MatrixShift(np.zeros((t, t)))), data, TIGHT)
        baseline = btrank.extract_ranking(plain, rank_tol=1e-6)
        for eps in (0.1, 0.5, 1.0):
            result = btrank.fit(bt_spec(btrank.Improved(eps)), data, TIGHT)
            ranking = btrank.extract_ranking(result, rank_tol=1e-6)
            assert canonical_groups(ranking) == canonical_groups(baseline)


def test_small_epsilon_preserves_resolved_comparisons():
    """Every pair the unperturbed estimate resolves decisively keeps its
    order under a small perturbation. Exact merit ties are excluded: they
    can be coincidental rather than structural (one four-team draw below
    has an exact tie between teams with different schedules), and any
    positive epsilon may legitimately break such a tie.
    """
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = int(rng.integers(4, 7))
        data = random_strongly_connected_dataset(rng, t=t)
        plain = btrank.fit(bt_spec(btrank.MatrixShift(np.zeros((t, t)))), data, TIGHT)
        small = btrank.fit(bt_spec(btrank.Improved(1e-3)), data, TIGHT)
        for i in range(t):
            for j in range(t):
                if plain.beta[i] - plain.beta[j] > 1e-3:
                    assert small.beta[i] > small.beta[j]


def test_balanced_round_robin_ranking_matches_scores():
    rng = np.random.default_rng(11)
    for _ in range(30):
        t = int(rng.integers(4, 7))
        n = int(rng.integers(1, 4))
        data = random_balanced_dataset(rng, t=t, n=n)
        by_score = btrank.score_ranking(data)
        for eps in (0.1, 1.0):
            result = btrank.fit(bt_spec(btrank.Improved(eps)), data, TIGHT)
            ranking = btrank.extract_ranking(result, rank_tol=1e-6)
            assert canonical_groups(ranking) == canonical_groups(by_score)


def test_error_medians_shrink_as_fields_grow():
    config = btrank.ConsistencyConfig(t_grid=(20, 50, 100), replicas=50, n_per_pair=4, seed=0)
    t0 = time.perf_counter()
    report = btrank.run_consistency(config)
    elapsed = time.perf_counter() - t0
    assert report.medians[0] > report.medians[1] > report.medians[2]
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Optional reproduction on the 2008 NFL regular season. The data are not
# bundled; point BTRANK_NFL_2008 at a game file in any format the CLI
# accepts (see the README for the expected team labels) to enable this.

NFL_ENV = "BTRANK_NFL_2008"

NFL_DIVISIONS = {
    "AFC East": ("patriots", "dolphins", "jets", "bills"),
    "AFC North": ("steelers", "ravens", "bengals", "browns"),
    "AFC South": ("titans", "colts", "texans", "jaguars"),
    "AFC West": ("chargers", "broncos", "raiders", "chiefs"),
    "NFC East": ("giants", "eagles", "cowboys", "redskins"),
    "NFC North": ("vikings", "bears", "packers", "lions"),
    "NFC South": ("panthers", "falcons", "buccaneers", "saints"),
    "NFC West": ("cardinals", "49ers", "seahawks", "rams"),
}

# The Washington franchise has carried several names; accept any of them.
NFL_ALIASES = {"redskins": ("redskins", "washington", "commanders")}


def _load_games(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".csv"):
        return btrank.aggregate(btrank.parse_records(text, "csv"))
    if text.lstrip().startswith("["):
        return btrank.aggregate(btrank.parse_records(text, "json"))
    return btrank.parse_matrix(text)


def _nickname(team_label):
    label = team_label.lower()
    hits = [
        nick
        for nicks in NFL_DIVISIONS.values()
        for nick in nicks
        if any(alias in label for alias in NFL_ALIASES.get(nick, (nick,)))
    ]
    assert len(hits) == 1, f"cannot place team {team_label!r} in a division"
    return hits[0]


@pytest.mark.skipif(
    NFL_ENV not in os.environ,
    reason=f"set {NFL_ENV} to a 2008 NFL season game file to run this check",
)
def test_nfl_2008_tie_and_home_fits_and_seeding():
    data = _load_games(os.environ[NFL_ENV])
    assert data.num_teams == 32

    eps = btrank.Improved(0.329)
    rao = btrank.fit(ModelSpec(Model.RAO_KUPPER, eps), data, TIGHT)
    assert abs(rao.theta_hat - 1.001) <= 5e-3

    david = btrank.fit(ModelSpec(Model.DAVID, eps), data, TIGHT)
    assert abs(david.theta_hat - 0.006) <= 5e-3
    assert abs(david.gamma_hat - 1.221) <= 5e-3

    teams_by_nick = {_nickname(team): team for team in data.teams}
    assert len(teams_by_nick) == 32
    conferences = {
        conf: {
            name: [teams_by_nick[nick] for nick in nicks]
            for name, nicks in NFL_DIVISIONS.items()
            if name.startswith(conf)
        }
        for conf in ("AFC", "NFC")
    }

    by_merit = btrank.select_seeds(btrank.merit_table(david), conferences)
    by_pct = btrank.select_seeds(btrank.pct_table(data), conferences)
    assert "patriots" in by_merit.conference("AFC")[2].team.lower()
    assert "dolphins" in by_pct.conference("AFC")[2].team.lower()
