import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import btrank
from btrank.connectivity import (
    check_condition_a,
    check_condition_b,
    check_condition_c,
    raw_components,
    verify_existence,
)
from btrank.errors import (
    ConfigError,
    ExistenceError,
    NonConvergenceError,
    NoTiesError,
    VenuelessDataError,
)
from btrank import likelihood, solver
from btrank.likelihood import RK_PHI_MIN, Objective, log_likelihood
from btrank.perturbation import perturb
from btrank.solver import (
    MapPriorSpec,
    SolverConfig,
    _map_mode,
    fit,
    fit_map_em,
    maximize_concave,
    minimize,
)
from btrank.types import (
    ConnerGrant,
    Improved,
    MatrixShift,
    Model,
    ModelSpec,
    Normalization,
    ParameterPoint,
    venue_dataset,
    venue_free_dataset,
)

from conftest import names, random_point, random_strongly_connected_dataset
from oracles import dense as dense_counts
from oracles import dense_perturb, home_field_has_unique_maximizer

TIGHT = SolverConfig(rel_ll_tol=1e-14, max_iters=100_000)


def spec(model, perturbation=Improved(0.5), normalization=Normalization.REFERENCE):
    return ModelSpec(model=model, perturbation=perturbation, normalization=normalization)


@pytest.fixture
def islands():
    """Two components that never meet, so connectivity-based fits refuse."""
    a = np.array(
        [
            [0, 2, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 3],
            [0, 0, 1, 0],
        ]
    )
    return venue_free_dataset(names(4), a)


@pytest.fixture
def one_way_hosting():
    # team 0 hosts both games; nobody ever hosts team 0
    a_home = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    a_away = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    return venue_dataset(names(3), a_home, a_away)


def test_mm_trace_is_monotone(ten_teams):
    result = fit(spec(Model.BRADLEY_TERRY, Improved(1.0)), ten_teams)
    assert result.converged
    assert np.all(np.diff(result.trace) >= -1e-12)


@pytest.mark.parametrize("model", [Model.RAO_KUPPER, Model.DAVIDSON])
def test_tie_model_traces_are_monotone(model, tied_dataset):
    result = fit(spec(model), tied_dataset)
    assert result.converged
    assert np.all(np.diff(result.trace) >= -1e-9)


@pytest.mark.parametrize("model", [Model.HOME_FIELD, Model.DAVID])
def test_venue_model_traces_are_monotone(model, venue_tied_dataset):
    result = fit(spec(model), venue_tied_dataset)
    assert result.converged
    assert np.all(np.diff(result.trace) >= -1e-9)


class _Quadratic:
    """Concave test function -(x - c)' A (x - c) with a known maximizer."""

    def __init__(self, center, matrix):
        self.center = np.asarray(center, dtype=float)
        self.matrix = np.asarray(matrix, dtype=float)

    def value_gradient_hessian(self, x):
        r = x - self.center
        return -float(r @ self.matrix @ r), -2.0 * self.matrix @ r, -2.0 * self.matrix


def test_maximizer_solves_a_quadratic():
    center = np.array([1.5, -2.0, 0.25])
    matrix = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 3.0]])
    x, trace = maximize_concave(_Quadratic(center, matrix), np.zeros(3))
    assert np.abs(x - center).max() < 1e-6
    assert np.all(np.diff(trace) >= -1e-12)


class _Exponential:
    """Concave sum(x - exp(x)), maximized at 0; records every point it is
    evaluated at."""

    def __init__(self):
        self.points = []

    def value_gradient_hessian(self, x):
        self.points.append(x.copy())
        u = np.exp(x)
        return float((x - u).sum()), 1.0 - u, -np.diag(u)


def test_maximize_concave_takes_the_last_newton_step():
    # the stop is decided about 1e-10 from the maximizer; the step then
    # taken squares that error, and is no iteration with a trace entry
    objective = _Exponential()
    x, trace = maximize_concave(objective, np.array([1.0, -2.0, 0.5]))
    decided = objective.points[-2]
    assert np.abs(decided).max() > 1e-11 and np.abs(x).max() <= 1e-15
    np.testing.assert_array_equal(x, objective.points[-1])
    assert trace[-1] == float((decided - np.exp(decided)).sum())


class _WrongCurvature:
    """Concave f(x) = -|x - c|^2 reporting a fixed, wrong Hessian ``h``."""

    def __init__(self, center, h):
        self.center = np.asarray(center, dtype=float)
        self.h = np.asarray(h, dtype=float)

    def value_gradient_hessian(self, x):
        r = x - self.center
        return -float(r @ r), -2.0 * r, self.h


@pytest.mark.parametrize(
    "h",
    [
        # -H d = g gives d = (g1, g0), whose slope 2 g0 g1 = -8 descends at 0
        pytest.param([[0.0, -1.0], [-1.0, 0.0]], id="indefinite"),
        # the LU solve raises LinAlgError
        pytest.param([[0.0, 0.0], [0.0, 0.0]], id="singular"),
    ],
)
def test_a_newton_direction_that_does_not_ascend_falls_back_to_the_gradient(h):
    objective = _WrongCurvature([1.0, -1.0], h)
    start = np.zeros(2)
    g = objective.value_gradient_hessian(start)[1]  # (2, -2)
    x, trace = maximize_concave(objective, start, SolverConfig(max_iters=1))
    # the full gradient step overshoots to (2, -2); the halved one lands on c
    np.testing.assert_array_equal(x, 0.5 * g)
    assert trace == (-2.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 15, 19, 33, 64, 120])
def test_the_lu_step_is_numpys_solve_bit_for_bit(n):
    # the model Hessians are checked in the sparse-step property below
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    h, g = -(a @ a.T) - 0.1 * np.eye(n), rng.normal(size=n)
    direction, slope, newton = solver._newton_direction(g, h, None, solver._CG_RTOL)
    assert newton and np.array_equal(direction, np.linalg.solve(h, -g))


class _Bowl:
    """Convex test function (x - c)' A (x - c), defined only for x >= 0."""

    def __init__(self, center, matrix):
        self.center = np.asarray(center, dtype=float)
        self.matrix = np.asarray(matrix, dtype=float)

    def value_gradient_hessian(self, x):
        if np.any(x < 0):
            return np.inf, None, None
        r = x - self.center
        return float(r @ self.matrix @ r), 2.0 * self.matrix @ r, 2.0 * self.matrix


def test_minimizer_solves_a_convex_quadratic():
    center = np.array([1.5, 2.0, 0.25])
    matrix = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 3.0]])
    bowl, start = _Bowl(center, matrix), np.full(3, 4.0)
    x, trace = minimize(bowl, start)
    assert np.abs(x - center).max() < 1e-6
    assert trace[0] == pytest.approx(bowl.value_gradient_hessian(start)[0])
    assert trace[-1] < 1e-12
    assert np.all(np.diff(trace) <= 1e-12)


def test_rao_kupper_steps_below_the_phi_bound_are_halved(monkeypatch):
    # Evenly matched teams with a single tie put the Rao-Kupper phi optimum
    # near 0, so full Newton steps overshoot below RK_PHI_MIN. The objective
    # returns -inf there, which fails the Armijo test and halves the step.
    refused = []

    class Counting(Objective):
        def value_gradient_hessian(self, x):
            out = super().value_gradient_hessian(x)
            if out[0] == -np.inf:
                refused.append(x[-1])
            return out

    monkeypatch.setattr(solver, "Objective", Counting)
    a = np.full((3, 3), 10.0) - 10.0 * np.eye(3)
    ties = np.zeros((3, 3))
    ties[0, 1] = ties[1, 0] = 1.0
    data = venue_free_dataset(("A", "B", "C"), a, ties)
    result = fit(ModelSpec(Model.RAO_KUPPER, Improved(0.1)), data)
    assert refused and all(phi < RK_PHI_MIN for phi in refused)
    assert result.converged
    assert np.log(result.theta_hat) >= RK_PHI_MIN
    assert result.gradient_sup_norm <= SolverConfig().grad_tol


def test_three_team_fit_matches_a_grid_search():
    a = np.array([[0, 2, 1], [1, 0, 1], [0, 2, 0]])
    data = venue_free_dataset(names(3), a)
    eps = 0.5
    w = dense_perturb(data, Improved(eps)).a_free

    def grid_loglik(b2, b3):
        d01 = np.logaddexp(0.0, b2)
        d02 = np.logaddexp(0.0, b3)
        d12 = np.logaddexp(b2, b3)
        return (
            -w[0, 1] * d01
            + w[1, 0] * (b2 - d01)
            - w[0, 2] * d02
            + w[2, 0] * (b3 - d02)
            + w[1, 2] * (b2 - d12)
            + w[2, 1] * (b3 - d12)
        )

    coarse = np.arange(-5.0, 5.0 + 1e-9, 0.01)
    b2, b3 = np.meshgrid(coarse, coarse, indexing="ij")
    values = grid_loglik(b2, b3)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    fine2 = np.arange(coarse[i] - 0.02, coarse[i] + 0.02 + 1e-12, 1e-4)
    fine3 = np.arange(coarse[j] - 0.02, coarse[j] + 0.02 + 1e-12, 1e-4)
    b2, b3 = np.meshgrid(fine2, fine3, indexing="ij")
    values = grid_loglik(b2, b3)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    oracle = np.array([fine2[i], fine3[j]])

    result = fit(spec(Model.BRADLEY_TERRY, Improved(eps)), data, TIGHT)
    assert np.abs(result.beta[1:] - oracle).max() < 1e-3


def test_two_default_fits_are_bit_identical(tied_dataset):
    first = fit(spec(Model.RAO_KUPPER), tied_dataset)
    second = fit(spec(Model.RAO_KUPPER), tied_dataset)
    assert np.array_equal(first.beta, second.beta)
    assert first.theta_hat == second.theta_hat
    assert first.log_likelihood == second.log_likelihood
    assert first.trace == second.trace


def test_home_slice_with_unit_gamma_reduces_to_venue_free_fit():
    # single-venue schedule: each team hosts the next two around the circle,
    # so every pair meets at exactly one venue and pinning gamma at 1 must
    # collapse the venue model onto the venue-free one
    t = 5
    rng = np.random.default_rng(17)
    a_home = np.zeros((t, t), dtype=int)
    a_away = np.zeros((t, t), dtype=int)
    for i in range(t):
        for step in (1, 2):
            j = (i + step) % t
            host_wins = int(rng.integers(0, 3))
            a_home[i, j] += host_wins
            a_away[j, i] += 2 - host_wins
    data = venue_dataset(names(t), a_home, a_away)
    perturbed = perturb(data, Improved(0.4))

    class PinnedGamma:
        def __init__(self, inner):
            self.inner = inner

        def value_gradient_hessian(self, x):
            value, grad, hess = self.inner.value_gradient_hessian(np.append(x, 0.0))
            if grad is None:
                return value, None, None
            return value, grad[:-1], np.asarray(hess)[:-1, :-1]

    pinned = PinnedGamma(Objective(Model.HOME_FIELD, perturbed))
    x_pinned, _ = maximize_concave(pinned, np.zeros(t - 1), TIGHT)
    x_free, _ = maximize_concave(
        Objective(Model.BRADLEY_TERRY, perturbed), np.zeros(t - 1), TIGHT
    )
    assert np.abs(x_pinned - x_free).max() < 1e-6


def test_em_trace_is_monotone_and_obeys_the_scale_identity(four_teams):
    d, b = 2.0, 7.0
    mode = _map_mode(four_teams, d, b, TIGHT)
    assert mode.converged
    assert np.all(np.diff(mode.trace) >= -1e-10)
    assert mode.gradient_sup_norm <= 1e-6
    # at any stationary point the merits must total t(d - 1) / b
    assert np.exp(mode.x).sum() == pytest.approx(4 * (d - 1) / b, abs=1e-6)


def test_flat_prior_mode_is_the_maximum_likelihood_estimate():
    rng = np.random.default_rng(23)
    data = random_strongly_connected_dataset(rng, t=5)
    flat = MapPriorSpec(shape=1.0, rate=0.0)
    assert flat.ml_equivalent
    posterior = fit_map_em(data, flat, TIGHT)
    likelihood = fit(
        spec(
            Model.BRADLEY_TERRY,
            MatrixShift(np.zeros((5, 5))),
            Normalization.SIMPLEX,
        ),
        data,
        TIGHT,
    )
    assert posterior.converged
    assert posterior.normalization is Normalization.SIMPLEX
    for name in ("beta", "merits_u", "trace", "iterations", "gradient_sup_norm", "log_likelihood"):
        assert np.array_equal(getattr(posterior, name), getattr(likelihood, name))


def test_flat_prior_requires_win_cycles(four_teams):
    with pytest.raises(ExistenceError) as info:
        fit_map_em(four_teams, MapPriorSpec(shape=1.0, rate=0.0))
    assert info.value.witness.condition == "A"
    assert info.value.witness.q1 == (0, 1)
    # the raw counts are fitted, so no shift is named, and the split is Condition A's
    assert "shift" not in str(info.value)
    expected = check_condition_a(four_teams)
    assert (info.value.witness.q1, info.value.witness.q2) == (expected.q1, expected.q2)


def test_the_flat_prior_reads_the_labels_of_the_raw_wins(ten_teams):
    # the flat prior fits the raw counts, so its rule reads the labels
    # Condition A keeps on the dataset; a shift's counts are labelled afresh
    labelled = []
    label = btrank.connectivity.strong_components

    def counted(n, src, dst):
        labelled.append(len(src))
        return label(n, src, dst)

    message = (
        "the bt estimate does not exist for these data: condition A fails for the split "
        "{B1, B2, B3} | {B4, B5, B6, B7, B8, B9, B10}: no team in the second set has any "
        "win over the first set"
    )
    with mock.patch.object(btrank.connectivity, "strong_components", counted):
        assert check_condition_a(ten_teams).q1 == (0, 1, 2)
        for _ in range(3):
            with pytest.raises(ExistenceError) as info:
                fit_map_em(ten_teams, MapPriorSpec(shape=1.0, rate=0.0))
            assert str(info.value) == message
            assert info.value.witness == btrank.PartitionWitness(
                condition="A", q1=(0, 1, 2), q2=(3, 4, 5, 6, 7, 8, 9),
                detail="no team in the second set has any win over the first set",
            )
        assert labelled == [26]  # the 26 win arcs, once
        with pytest.raises(ExistenceError) as info:
            fit(spec(Model.BRADLEY_TERRY, MatrixShift(np.zeros((10, 10)))), ten_teams)
        assert str(info.value) == message
    assert labelled == [26, 26]


def test_default_prior_rate_resolves_against_the_team_count():
    assert MapPriorSpec(shape=2.0).resolved_rate(4) == 7.0
    assert MapPriorSpec(shape=2.0, rate=0.5).resolved_rate(4) == 0.5


def test_prior_domain_refusals(four_teams):
    with pytest.raises(ConfigError, match="no interior mode"):
        fit_map_em(four_teams, MapPriorSpec(shape=1.0, rate=7.0))
    with pytest.raises(ConfigError, match="grows without bound"):
        fit_map_em(four_teams, MapPriorSpec(shape=2.0, rate=0.0))
    # refused when built, outside any fit: the default rate is never 0
    with pytest.raises(ConfigError, match="no interior mode"):
        MapPriorSpec(shape=1.0)
    with pytest.raises(ConfigError):
        MapPriorSpec(shape=0.5)
    with pytest.raises(ConfigError):
        MapPriorSpec(shape=2.0, rate=-1.0)


def test_symmetric_pair_splits_the_posterior_evenly():
    data = venue_free_dataset(names(2), np.array([[0, 1], [1, 0]]))
    result = fit_map_em(data, MapPriorSpec(shape=2.0))
    assert result.converged
    assert result.merits_u == pytest.approx([0.5, 0.5], abs=1e-9)
    # default rate is shape * t - 1 = 3, so raw merits sum to t(d-1)/b = 2/3
    mode = _map_mode(data, 2.0, 3.0, TIGHT)
    assert np.exp(mode.x).sum() == pytest.approx(2.0 / 3.0, abs=1e-7)


def test_map_result_shape(four_teams):
    result = fit_map_em(four_teams, MapPriorSpec(shape=2.0))
    assert result.converged
    assert result.model is Model.BRADLEY_TERRY
    assert result.theta_hat is None and result.gamma_hat is None
    assert result.epsilon is None
    assert result.merits_u.sum() == pytest.approx(1.0)
    assert result.normalization is Normalization.SIMPLEX


def test_fit_refuses_disconnected_data_under_improved(islands):
    with pytest.raises(ExistenceError) as info:
        fit(spec(Model.BRADLEY_TERRY), islands)
    witness = info.value.witness
    assert witness.condition == "B"
    assert witness.q1 == (0, 1)
    assert "does not exist" in str(info.value)


def test_conner_grant_rescues_disconnected_data(islands):
    result = fit(spec(Model.BRADLEY_TERRY, ConnerGrant(0.5)), islands)
    assert result.converged


def test_fit_refuses_missing_ties_and_venues(four_teams, tied_dataset):
    with pytest.raises(NoTiesError):
        fit(spec(Model.RAO_KUPPER), four_teams)
    with pytest.raises(VenuelessDataError):
        fit(spec(Model.HOME_FIELD), four_teams)
    # ties present but no venue structure still refuses the venue models
    with pytest.raises(VenuelessDataError):
        fit(spec(Model.DAVID), tied_dataset)


def test_fit_refuses_one_way_hosting(one_way_hosting):
    with pytest.raises(ExistenceError) as info:
        fit(spec(Model.HOME_FIELD), one_way_hosting)
    assert info.value.witness.condition == "C"


def test_matrix_shift_existence_is_checked_on_shifted_counts(four_teams, one_way_hosting):
    with pytest.raises(ExistenceError) as info:
        fit(spec(Model.BRADLEY_TERRY, MatrixShift(np.zeros((4, 4)))), four_teams)
    assert info.value.witness.condition == "A"
    assert info.value.witness.q1 == (0, 1)

    lift = 0.1 * (1 - np.eye(4))
    rescued = fit(spec(Model.BRADLEY_TERRY, MatrixShift(lift)), four_teams)
    assert rescued.converged


def test_matrix_shift_refuses_negative_shifted_counts(four_teams, one_way_hosting):
    # Shifted counts 2->4 (-0.16) and 4->2 (-0.5) are negative, yet the positive
    # weights are strongly connected; unrefused, the fit ran off to beta ~ -1e15.
    a0 = np.array(
        [
            [0, -0.37, 0.56, 0.68],
            [0.7, 0, 0.69, -0.16],
            [0.04, 0.13, 0, -0.33],
            [0.11, -0.5, 0.62, 0],
        ]
    )
    with pytest.raises(ExistenceError, match="team '2' a negative win count -0.16 over team '4'") as info:
        fit(spec(Model.BRADLEY_TERRY, MatrixShift(a0)), four_teams)
    assert str(info.value).startswith("refused: after the shift, a_free gives")
    assert str(info.value).endswith("so the bt estimate is not guaranteed to exist")

    # T2's road win at T1 keeps the venue-free count at 1 - 0.5
    a0 = 0.1 * (1 - np.eye(3))
    a0[1, 0] = -0.5
    assert fit(spec(Model.BRADLEY_TERRY, MatrixShift(a0)), one_way_hosting).converged


@pytest.mark.parametrize("model", [Model.HOME_FIELD, Model.DAVID])
def test_venue_models_refuse_a_matrix_shift(model, one_way_hosting):
    # T2 hosts T1 three times and wins twice; at T1's venue T2 wins twice.
    # Home-field fits under this shift used to report converged=True at
    # gamma 1e-8, though no maximizer exists.
    two_teams = venue_dataset(names(2), [[0, 0], [2, 0]], [[0, 1], [2, 0]])
    a0 = np.zeros((2, 2))
    a0[1, 0] = 0.06910177315017457
    lift = 0.1 * (1 - np.eye(3))
    cases = [(two_teams, a0), (two_teams, np.zeros((2, 2))), (one_way_hosting, lift)]
    for data, shift in cases:
        with pytest.raises(ConfigError, match=f"the {model.value} model takes no matrix shift"):
            fit(spec(model, MatrixShift(shift)), data)


def test_home_field_existence_ignores_hosted_ties():
    # At T1's venue each team won once; at T2's venue they tied. Home-field
    # never reads the tie, so T2 hosts no game it reads and the raw digraph
    # home-field reads splits the two; David reads the tie and joins them.
    data = venue_dataset(names(2), [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [1, 0]])
    home_field = raw_components(Model.HOME_FIELD, data)
    assert home_field[0] != home_field[1]
    david = raw_components(Model.DAVID, data)
    assert david[0] == david[1]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    t=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.3, 0.6, 1.0]),
    scheme=st.sampled_from([Improved(1e-6), Improved(0.5), Improved("auto"), ConnerGrant(0.5)]),
)
def test_every_home_field_fit_the_rule_accepts_has_a_unique_maximizer(t, seed, density, scheme):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 3, (3, t, t)) * (rng.random((3, t, t)) < density) * (1 - np.eye(t))
    assume(counts.any())
    data = venue_dataset(names(t), *counts)
    perturbed = perturb(data, scheme)
    try:
        verify_existence(Model.HOME_FIELD, data, perturbed, scheme)
    except ExistenceError:
        return
    assert home_field_has_unique_maximizer(perturbed)


@pytest.mark.xfail(
    raises=ExistenceError,
    strict=True,
    reason="Condition C is sufficient, not necessary, for home-field under Improved",
)
def test_home_field_refuses_a_fit_whose_maximizer_exists():
    # Nobody hosts T2, so Condition C fails, yet the maximizer exists and
    # Newton reaches it in 4 steps, with cond(H) 7.9 there.
    a_home = [[0, 0, 0], [2, 0, 0], [2, 0, 0]]
    a_away = [[0, 1, 1], [1, 0, 0], [0, 0, 0]]
    data = venue_dataset(("T0", "T1", "T2"), a_home, a_away)
    assert home_field_has_unique_maximizer(perturb(data, Improved(0.5)))
    assert fit(spec(Model.HOME_FIELD, Improved(0.5)), data).converged


def _newton_refit(objective, x, steps=30):
    """Plain Newton steps from x, past any stop rule, by dense LU."""
    for _ in range(steps):
        _, g, h = objective.value_gradient_hessian(x)
        x = x + np.linalg.solve(np.asarray(h), -g)
    return x


@st.composite
def sparse_datasets(draw):
    """Small venue or venueless datasets, often disconnected, some with ties."""
    t = draw(st.integers(2, 8))
    pool = draw(st.sampled_from([[0, 0, 0, 1, 2], [0] * 7 + [1]]))
    cells = st.lists(st.sampled_from(pool), min_size=t * t, max_size=t * t)

    def matrix():
        m = np.array(draw(cells), dtype=float).reshape(t, t)
        np.fill_diagonal(m, 0)
        return m

    ties = matrix() * draw(st.booleans())
    if draw(st.booleans()):
        return venue_dataset(names(t), matrix(), matrix(), ties)
    upper = np.triu(ties, 1)
    return venue_free_dataset(names(t), matrix(), upper + upper.T)


def _wins_dataset(wins):
    """The venue-free dataset of the listed (winner, loser) games."""
    t = 1 + max(max(pair) for pair in wins)
    a = np.zeros((t, t))
    for i, j in wins:
        a[i, j] += 1
    return venue_free_dataset(names(t), a)


# X beats Z twice, Y beats Z once, X and Y never meet: the X - Y offset is
# 0.6931; a gradient stop rule left it at 0.0171 (eps 1e-10)
TWO_BEAT_A_THIRD = _wins_dataset([(0, 2), (0, 2), (1, 2)])
# two 3-cycles, 0 -> 1 -> 2 -> 0 and 3 -> 4 -> 5 -> 3, with 0 beating 3 once:
# a gradient stop rule left beta up to 1.64 away (eps 1e-9)
TWO_CYCLES_IN_A_CHAIN = _wins_dataset([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])


@pytest.mark.parametrize(
    "data, eps",
    [(TWO_BEAT_A_THIRD, 1e-10), (TWO_CYCLES_IN_A_CHAIN, 1e-9)],
    ids=["two-beat-a-third", "two-cycles-in-a-chain"],
)
def test_a_converged_fit_is_within_1e_6_in_beta_of_a_tight_refit(data, eps):
    result = fit(spec(Model.BRADLEY_TERRY, Improved(eps)), data)
    assert result.converged
    perturbed = perturb(data, Improved(eps))
    tight = _newton_refit(Objective(Model.BRADLEY_TERRY, perturbed), result.beta[1:])
    assert np.abs(result.beta[1:] - tight).max() <= 1e-6


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    data=sparse_datasets(),
    eps=st.integers(1, 12).map(lambda k: 10.0**-k),
    scheme=st.sampled_from([Improved, ConnerGrant]),
)
@example(data=TWO_BEAT_A_THIRD, eps=1e-10, scheme=Improved)
@example(data=TWO_CYCLES_IN_A_CHAIN, eps=1e-9, scheme=Improved)
def test_every_converged_fit_is_within_1e_6_in_beta_of_a_tight_refit(data, eps, scheme):
    # every model the data admit, and the MAP mode, which reads no eps
    t = data.num_teams
    perturbed = perturb(data, scheme(eps))
    for model in Model:
        try:
            result = fit(spec(model, scheme(eps)), data)
        except (ExistenceError, NoTiesError, VenuelessDataError):
            continue
        if result.converged:
            extras = [np.log(v) for v in (result.theta_hat, result.gamma_hat) if v is not None]
            x = np.concatenate([result.beta[1:], extras])
            tight = _newton_refit(Objective(model, perturbed), x)
            assert np.abs(result.beta[1:] - tight[: t - 1]).max() <= 1e-6, model
    posterior = likelihood.PosteriorObjective(data.counts, 2.0, 2.0 * t - 1.0)
    mode = _map_mode(data, 2.0, 2.0 * t - 1.0, SolverConfig())
    if mode.converged:
        assert np.abs(mode.x - _newton_refit(posterior, mode.x)).max() <= 1e-6


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    data=sparse_datasets(),
    eps=st.sampled_from(["auto", 0.5, 1e-6]),
)
def test_existence_is_strong_connectivity_of_the_perturbed_counts(data, eps):
    # Improved refuses exactly on Condition B (C for venue models) of the raw
    # data, ConnerGrant never refuses, and MatrixShift(0) for BT exactly on
    # Condition A, each with the witness its condition check gives.
    has_ties = data.counts.games[2].any()
    short = SolverConfig(max_iters=20)  # only the refusal is under test
    for model in Model:
        if (model.has_home_parameter and data.venueless) or (
            model.has_tie_parameter and not has_ties
        ):
            continue
        check = check_condition_c if model.has_home_parameter else check_condition_b
        expected = check(data)
        if expected is None:
            fit(spec(model, Improved(eps)), data, short)
        else:
            with pytest.raises(ExistenceError) as info:
                fit(spec(model, Improved(eps)), data, short)
            assert info.value.witness == expected
        fit(spec(model, ConnerGrant(eps)), data, short)

    expected = check_condition_a(data)
    zero_shift = spec(Model.BRADLEY_TERRY, MatrixShift(np.zeros((data.num_teams,) * 2)))
    if expected is None:
        fit(zero_shift, data, short)
    else:
        with pytest.raises(ExistenceError) as info:
            fit(zero_shift, data, short)
        assert (info.value.witness.q1, info.value.witness.q2) == (expected.q1, expected.q2)


def test_reference_merits_past_float64_range_read_inf_not_nan(four_teams):
    # a beta spread of 1750 used to underflow u[0] in u / u[0], giving nan
    beta = np.array([0.0, 900.0, -850.0, 5.0])
    solution = solver._Solution(
        x=beta[1:], value=0.0, trace=(0.0,), iterations=5, gradient_sup_norm=1.0, last_step=1.0,
        converged=False,
    )
    point = ParameterPoint(beta=beta)
    reference = solver._fit_result(
        Model.BRADLEY_TERRY, four_teams, solution, point, Normalization.REFERENCE, 0.5
    )
    assert not np.isnan(reference.merits_u).any()
    assert reference.merits_u[[0, 1, 2]].tolist() == [1.0, np.inf, 0.0]
    assert reference.merits_u[3] == pytest.approx(np.exp(5.0))
    simplex = solver._fit_result(
        Model.BRADLEY_TERRY, four_teams, solution, point, Normalization.SIMPLEX, 0.5
    )
    assert simplex.merits_u.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_budget_exhaustion_is_reported_not_raised(ten_teams):
    result = fit(
        spec(Model.BRADLEY_TERRY, Improved(0.01)),
        ten_teams,
        SolverConfig(max_iters=1),
    )
    assert not result.converged
    assert result.iterations == 1
    with pytest.raises(NonConvergenceError):
        result.ensure_converged()


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(rel_ll_tol=-1e-9)
    with pytest.raises(ConfigError):
        SolverConfig(max_iters=0)
    # 2.5 used to run 3 iterations; only an integer >= 1 is a budget
    for bad in (2.5, 3.0, True):
        with pytest.raises(ConfigError, match="integer"):
            SolverConfig(max_iters=bad)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_settings_are_refused_at_construction(bad):
    with pytest.raises(ConfigError, match="finite"):
        SolverConfig(grad_tol=bad)
    with pytest.raises(ConfigError, match="finite"):
        SolverConfig(rel_ll_tol=bad)
    with pytest.raises(ConfigError, match="finite"):
        MapPriorSpec(shape=bad)
    with pytest.raises(ConfigError, match="finite"):
        MapPriorSpec(shape=2.0, rate=bad)
    with pytest.raises(ConfigError, match="finite"):
        SolverConfig(max_iters=bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SolverConfig(grad_tol=True),
        lambda: SolverConfig(rel_ll_tol=True),
        lambda: SolverConfig(rel_ll_tol=np.True_),
        lambda: MapPriorSpec(True, False),
        lambda: MapPriorSpec(shape=2.0, rate=True),
    ],
)
def test_bool_settings_are_refused_at_construction(build):
    # a bool is not a number here: MapPriorSpec(True, False) would be the flat prior
    with pytest.raises(ConfigError, match="finite"):
        build()


@pytest.mark.parametrize("eps", [10.0**-k for k in range(1, 13)])
def test_the_two_team_davidson_fit_lands_on_its_closed_form(eps):
    # one win of A over B and one tie: the maximizer is beta_B = log eps -
    # log1p eps and log theta = -(log eps + log1p eps) / 2
    data = venue_free_dataset(names(2), [[0, 1], [0, 0]], [[0, 1], [1, 0]])
    result = fit(spec(Model.DAVIDSON, Improved(eps)), data)
    exact = [math.log(eps) - math.log1p(eps), -(math.log(eps) + math.log1p(eps)) / 2.0]
    assert result.converged or eps <= 1e-6  # below, float64 may not resolve the step
    if result.converged:
        distance = np.abs([result.beta[1], math.log(result.theta_hat)] - np.array(exact))
        assert distance.max() <= 1e-6


def test_a_davidson_fit_with_a_near_certain_tie_converges():
    # the tie curvature is eps-sized here; written as a difference of near
    # equal terms it was lost, and the fit used its whole budget unconverged
    a, ties = np.zeros((8, 8)), np.zeros((8, 8))
    for winner, loser in [(0, 5), (3, 4), (6, 7), (7, 1)]:
        a[winner, loser] = 1.0
    for x, y in [(0, 4), (1, 2), (1, 5), (3, 7), (5, 7)]:
        ties[x, y] = ties[y, x] = 1.0
    result = fit(spec(Model.DAVIDSON, Improved(1e-5)), venue_free_dataset(names(8), a, ties))
    assert result.converged and result.iterations < 100


def test_fit_reports_the_parameters_each_model_carries(
    four_teams, tied_dataset, venue_tied_dataset
):
    bt = fit(spec(Model.BRADLEY_TERRY), four_teams)
    assert bt.theta_hat is None and bt.gamma_hat is None
    assert bt.merits_u[0] == 1.0  # reference normalization anchors team one

    rk = fit(spec(Model.RAO_KUPPER), tied_dataset)
    assert rk.theta_hat > 1.0 and rk.gamma_hat is None

    hf = fit(spec(Model.HOME_FIELD), venue_tied_dataset)
    assert hf.theta_hat is None and hf.gamma_hat > 0.0

    dd = fit(spec(Model.DAVID), venue_tied_dataset)
    assert dd.theta_hat > 0.0 and dd.gamma_hat > 0.0


def test_reported_loglik_matches_the_reported_point(tied_dataset):
    result = fit(spec(Model.DAVIDSON), tied_dataset)
    perturbed = perturb(tied_dataset, Improved(0.5))
    point = ParameterPoint(beta=result.beta, phi=np.log(result.theta_hat))
    assert log_likelihood(Model.DAVIDSON, point, perturbed) == pytest.approx(
        result.log_likelihood
    )


def test_importing_and_fitting_load_no_scipy():
    # neither a fit nor a refusal with its witness loads SciPy
    src = os.path.dirname(os.path.dirname(os.path.abspath(btrank.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = """
import json, sys
import btrank, btrank.cli
spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(0.5))
btrank.fit(spec, btrank.datasets.load_ten_teams())
islands = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]
try:
    btrank.fit(spec, btrank.venue_free_dataset(("T1", "T2", "T3", "T4"), islands))
except btrank.ExistenceError as error:
    witness = error.witness
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
loaded += [name for name in ["concurrent.futures.thread"] if name in sys.modules]
print(json.dumps([loaded, witness.condition, [int(k) for k in witness.q1]]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == [[], "B", [0, 1]]


def _sparse_league(rng, t, chords=2, ties=True):
    """Venue-split counts of a ring plus ``chords * t`` random pairings,
    up to two games a venue, ``ties`` allowing draws."""
    i = np.concatenate([np.arange(t), rng.integers(0, t, chords * t)])
    j = np.concatenate([(np.arange(t) + 1) % t, rng.integers(0, t, chords * t)])
    pairs = np.unique(np.sort(np.stack([i[i != j], j[i != j]]), axis=0), axis=1)
    counts = np.zeros((3, t, t))  # a_home, a_away, t_home
    for host, visitor in (pairs, pairs[::-1]):
        games = rng.multinomial(2, [0.45, 0.35, 0.2] if ties else [0.55, 0.45, 0.0], host.size)
        counts[0][host, visitor] = games[:, 0]
        counts[1][visitor, host] = games[:, 1]
        counts[2][host, visitor] = games[:, 2]
    counts[2][0, 1] = 1.0  # at least one tie for the tie models
    return counts


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(
    t=st.integers(200, 230),
    seed=st.integers(0, 2**32 - 1),
    shift=st.booleans(),
)
def test_the_sparse_step_matches_the_dense_hessian_and_its_lu_step(t, seed, shift):
    rng = np.random.default_rng(seed)
    data = venue_dataset(names(t), *_sparse_league(rng, t))
    if shift:  # a shift on the met pairs only keeps the pairs sparse
        a0 = rng.uniform(0.0, 1.0, (t, t)) * (dense_counts(data).n > 0)
        perturbation = MatrixShift(a0)
    else:
        perturbation = Improved(float(rng.choice([1e-3, 0.5])))
    perturbed = perturb(data, perturbation)
    posterior = likelihood.PosteriorObjective(data.counts, 2.0, 2.0 * t - 1.0)
    cases = [(model, Objective(model, perturbed)) for model in Model]
    cases.append((Model.BRADLEY_TERRY, posterior))
    for model, objective in cases:
        if isinstance(objective, Objective):
            x = random_point(objective, rng)
        else:
            x = posterior.initial_point() + rng.uniform(-1.0, 1.0, t)
        _, g, h = objective.value_gradient_hessian(x)
        dense = np.asarray(h)
        assert isinstance(h, likelihood.EdgeHessian) and dense.shape == (len(g), len(g))
        # the LU step is np.linalg.solve's, bit for bit, or both refuse H
        try:
            expected = np.linalg.solve(dense, -g)
        except np.linalg.LinAlgError:
            expected = None
        direction, _, newton = solver._newton_direction(g, h, None, solver._CG_RTOL)
        assert not newton if expected is None else newton and np.array_equal(direction, expected)
        v = rng.normal(size=len(g))
        scale = np.abs(dense) @ np.abs(v)
        assert np.all(np.abs(h.matvec(v) - dense @ v) <= 1e-12 * scale.max())
        np.testing.assert_allclose(h.diagonal(), np.diagonal(dense), rtol=1e-12)
        if np.linalg.cond(-dense) < 1e8:
            lu = np.linalg.solve(-dense, g)
            coarse = solver._coarse_layout(raw_components(model, data), h)
            step, _ = solver._pcg(h, g, coarse, 1e-14)
            assert np.abs(step - lu).max() <= 1e-8 * np.abs(lu).max()


@pytest.mark.parametrize("model", list(Model))
def test_the_galerkin_matrix_of_a_coarse_plan_is_z_h_z(model):
    # components of several teams and single teams, ties and home games, so
    # that the tie and home borders and the pinned merit all enter Z' H Z;
    # pruned, the single teams leave Z as if the data had _COARSE_PRUNE components
    rng = np.random.default_rng(11)
    t = 12
    counts = np.zeros((3, t, t))  # a_home, a_away, t_home
    counts[:, :5, :5] = rng.integers(1, 3, (3, 5, 5))
    counts[:, 5:9, 5:9] = rng.integers(1, 3, (3, 4, 4))
    counts *= 1 - np.eye(t)
    # one-way links join the blocks, and the last three teams form a chain
    counts[0, 0, 5] = counts[0, 5, 9] = counts[0, 9, 10] = counts[1, 11, 10] = 1.0
    data = venue_dataset(names(t), *counts)
    objective = Objective(model, perturb(data, Improved(1e-3)))
    _, _, h = objective.value_gradient_hessian(random_point(objective, rng))
    labels = raw_components(model, data)
    single = np.bincount(labels)[labels] == 1
    assert single[9:].all() and not single[:9].any()
    for pruned in (False, True):
        with mock.patch.object(solver, "_COARSE_PRUNE", 1 if pruned else solver._COARSE_PRUNE):
            plan = solver._coarse_layout(labels, h)
        columns = plan.merit[np.flatnonzero(single)]
        assert (columns == plan.m).all() if pruned else len(np.unique(columns)) == 3
        # column m is dropped, for any unknown the plan maps there as for pinned merits
        z = np.zeros((len(plan.layout), plan.m + 1))
        z[np.arange(len(plan.layout)), plan.layout] = 1.0
        z = z[:, : plan.m]
        expected = z.T @ np.asarray(h) @ z
        assert plan.m > 1 + len(h.block)
        np.testing.assert_allclose(solver._galerkin(h, plan), expected, rtol=1e-12, atol=1e-12)


def test_a_singular_galerkin_matrix_sends_the_sparse_step_along_the_gradient():
    # the coarse inverse raises LinAlgError as np.linalg.inv does, and the
    # step falls back to the gradient as a singular LU step does
    data = venue_dataset(names(220), *_sparse_league(np.random.default_rng(3), 220))
    objective = Objective(Model.DAVIDSON, perturb(data, Improved(1e-3)))
    _, g, h = objective.value_gradient_hessian(objective.initial_point())
    plan = solver._coarse_layout(raw_components(Model.DAVIDSON, data), h)
    assert plan.m >= 1
    direction, slope, newton = solver._newton_direction(g, h, plan, solver._CG_RTOL)
    assert newton
    with mock.patch.object(solver, "_galerkin", lambda h, plan: np.zeros((plan.m, plan.m))):
        direction, slope, newton = solver._newton_direction(g, h, plan, solver._CG_RTOL)
    assert not newton and direction is g and slope == float(g @ g)


def test_the_raw_digraph_of_a_dataset_is_labelled_once_per_kind():
    # Four raw digraphs: the wins, every met pair, all hosted games and the
    # decisive ones. Each is labelled once per dataset, whatever reads it:
    # the A/B/C checks, the existence rule and the coarse space of fits of
    # every model (220 teams on about 660 met pairs take the sparse step),
    # and a 7-epsilon sweep.
    data = venue_dataset(names(220), *_sparse_league(np.random.default_rng(5), 220))
    checks = (check_condition_a, check_condition_b, check_condition_c)
    labelled = []
    label = btrank.connectivity.strong_components

    def counted(n, src, dst):
        labelled.append(len(src))
        return label(n, src, dst)

    with mock.patch.object(btrank.connectivity, "strong_components", counted):
        witnesses = [check(data) for check in checks]
        assert len(labelled) == 3
        for model in Model:
            fit(spec(model), data)
        fit(spec(Model.HOME_FIELD, Improved(1e-3)), data)
        fit_map_em(data, MapPriorSpec(2.0))
        btrank.sweep_epsilon(spec(Model.DAVID), data, [10.0**-k for k in range(7)])
        assert [check(data) for check in checks] == witnesses
    assert len(labelled) == 4  # home-field's decisive games, first read by its fit
    assert set(data._connectivity) == {
        Model.BRADLEY_TERRY, None, Model.DAVID, Model.HOME_FIELD, "A", "B", "C"
    }


def _two_leagues(t):
    """Two sparse t-team leagues without ties, joined by a single win of
    team 0 over team t."""
    rng = np.random.default_rng(7)
    a_home, a_away, _ = np.zeros((3, 2 * t, 2 * t))
    for block in (slice(0, t), slice(t, 2 * t)):
        home, away, _ = _sparse_league(rng, t, ties=False)
        a_home[block, block], a_away[block, block] = home, away
    a_home[0, t] = 1.0
    return venue_dataset(names(2 * t), a_home, a_away)


@pytest.mark.parametrize("eps", [1e-1, 1e-5, 1e-9, 1e-12])
def test_the_two_league_step_takes_few_cg_iterations_and_matches_the_lu_fit(eps):
    # between the leagues, and between the raw SCCs inside them, only O(eps)
    # curvature joins the merits, which the coarse space takes out
    data = _two_leagues(150)
    model = spec(Model.BRADLEY_TERRY, Improved(eps))
    counts = []

    def counted(h, g, coarse, rtol):
        step, iterations = pcg(h, g, coarse, rtol)
        counts.append(iterations)
        return step, iterations

    pcg = solver._pcg
    with mock.patch.object(solver, "_pcg", counted):
        sparse = fit(model, data)
    assert counts and max(counts) <= 100
    with mock.patch.object(solver, "edge_form", lambda t, pairs: False):
        dense = fit(model, data)
    if dense.converged:
        assert sparse.converged
        assert np.abs(sparse.beta - dense.beta).max() <= 1e-6


@pytest.mark.parametrize("eps", [1e-1, 1e-5])
def test_only_the_confirming_sparse_solve_stops_early(eps):
    # the floor on the forcing term loosens only the solve of the last step, of
    # at most _STEP_TOL, which decides the stop and is taken after it: every
    # iteration is the same, and the returned points differ by that solve's error
    data = _two_leagues(150)
    model = spec(Model.BRADLEY_TERRY, Improved(eps))
    solves = []

    def counted(h, g, coarse, rtol):
        step, iterations = pcg(h, g, coarse, rtol)
        solves.append((rtol, iterations))
        return step, iterations

    pcg = solver._pcg
    with mock.patch.object(solver, "_pcg", counted):
        floored = fit(model, data)
        last = solves[-1]
        # each step solved as closely as the one before it was long
        with mock.patch.object(solver, "_CG_FLOOR", 0.0):
            unfloored = fit(model, data)
    assert floored.converged
    objective = Objective(Model.BRADLEY_TERRY, perturb(data, Improved(eps)))
    _, g, h = objective.value_gradient_hessian(floored.beta[1:])
    assert np.abs(np.linalg.solve(np.asarray(h), -g)).max() <= solver._STEP_TOL
    # the step before the last is 5.6e-7 at eps 0.1 and 1.1e-8 at 1e-5
    assert last[0] >= 1e-5 and last[1] < solves[-1][1]
    assert np.abs(floored.beta - unfloored.beta).max() <= 1e-12
    assert floored.trace == unfloored.trace
    assert (floored.iterations, floored.converged) == (unfloored.iterations, unfloored.converged)


@pytest.mark.parametrize(
    "model", [Model.BRADLEY_TERRY, Model.RAO_KUPPER, Model.DAVIDSON, "map"], ids=str
)
def test_a_pruned_coarse_space_fits_the_same_point(model):
    # single-team components leave Z from _COARSE_PRUNE raw components on;
    # lowered to 1, the pruned fit of a 220-team league agrees with the full
    # one. Every 11th team wins all its games, a single-team component of the
    # win digraph (the venue models read the hosting one, strongly connected here)
    a_home, a_away, t_home = _sparse_league(np.random.default_rng(5), 220)
    for k in range(5, 220, 11):
        a_home[k] += a_away[:, k] + t_home[k]
        a_away[k] += a_home[:, k] + t_home[:, k]
        a_home[:, k] = a_away[:, k] = t_home[k] = t_home[:, k] = 0.0
    data = venue_dataset(names(220), a_home, a_away, t_home)
    labels = raw_components(Model.BRADLEY_TERRY, data)
    assert (np.bincount(labels) == 1).sum() >= 20
    run = (lambda: fit_map_em(data, MapPriorSpec(2.0))) if model == "map" else (
        lambda: fit(spec(model, Improved(1e-3)), data)
    )
    full = run()
    with mock.patch.object(solver, "_COARSE_PRUNE", 1):
        pruned = run()
    assert full.converged and pruned.converged
    assert np.abs(pruned.beta - full.beta).max() <= 1e-8


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=sparse_datasets(), eps=st.integers(1, 12).map(lambda k: 10.0**-k))
@example(data=TWO_CYCLES_IN_A_CHAIN, eps=1e-9)
def test_the_last_step_never_raises_the_gradient_of_a_converged_fit(data, eps):
    # the stop is decided at the last point whose Newton step is solved; the
    # step is then taken only where the gradient does not grow
    decided = []

    def recorded(g, h, coarse, rtol):
        decided.append(np.abs(g).max())
        return newton_direction(g, h, coarse, rtol)

    newton_direction = solver._newton_direction
    runs = [lambda: fit_map_em(data, MapPriorSpec(2.0))]
    runs += [lambda model=model: fit(spec(model, Improved(eps)), data) for model in Model]
    with mock.patch.object(solver, "_newton_direction", recorded):
        for run in runs:
            decided.clear()
            try:
                result = run()
            except (ExistenceError, NoTiesError, VenuelessDataError):
                continue
            if result.converged:
                assert result.gradient_sup_norm <= decided[-1]
                assert result.last_step <= solver._STEP_TOL


@pytest.mark.parametrize("loader", ["load_four_teams", "load_five_teams", "load_ten_teams"])
def test_every_sweep_fit_of_a_bundled_dataset_ends_at_a_rounding_level_gradient(loader):
    # the epsilon sweep of the benchmark's small fits; the gradient is
    # recomputed at the returned point, which the taken last step moved
    data = getattr(btrank.datasets, loader)()
    grid = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    sweep = btrank.sweep_epsilon(spec(Model.BRADLEY_TERRY, Improved(1.0)), data, grid)
    assert [entry.epsilon for entry in sweep.entries] == list(grid)
    for entry in sweep.entries:
        perturbed = perturb(data, Improved(entry.epsilon))
        point = ParameterPoint(beta=entry.fit.beta)
        gradient = np.abs(btrank.gradient(Model.BRADLEY_TERRY, point, perturbed))
        assert entry.fit.converged and gradient.max() <= 1e-13, entry.epsilon
        assert entry.fit.gradient_sup_norm == gradient[1:].max()  # beta_1 is pinned
