import math

import numpy as np
import pytest

from btrank.errors import (
    ConfigError,
    DimensionError,
    NoTiesError,
    ThetaDomainError,
    VenuelessDataError,
)
from btrank.likelihood import (
    RK_PHI_MIN,
    Objective,
    _lse3,
    gradient,
    log_likelihood,
)
from btrank.perturbation import perturb
from btrank.types import (
    Improved,
    MatrixShift,
    Model,
    ParameterPoint,
    venue_dataset,
    venue_free_dataset,
)

from conftest import names, random_connected_dataset, random_point, random_venue_dataset
from oracles import probabilities


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for k in range(len(x)):
        step = np.zeros_like(g)
        step[k] = h
        g[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def _perturbed_for(model, rng):
    if model in (Model.HOME_FIELD, Model.DAVID):
        data = random_venue_dataset(rng, t=5, with_ties=model is Model.DAVID)
    else:
        with_ties = model in (Model.RAO_KUPPER, Model.DAVIDSON)
        data = random_connected_dataset(rng, t=6, with_ties=with_ties)
    return perturb(data, Improved(0.3))


@pytest.mark.parametrize("model", list(Model))
def test_analytic_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(list(Model).index(model))
    objective = Objective(model, _perturbed_for(model, rng))
    for _ in range(4):
        x = random_point(objective, rng)
        value, analytic = objective.value_and_gradient(x)
        assert math.isfinite(value)
        numeric = fd_gradient(objective.value, x)
        scale = max(1.0, float(np.abs(analytic).max()))
        assert np.abs(analytic - numeric).max() / scale < 1e-6


@pytest.mark.parametrize("model", list(Model))
def test_every_evaluator_slices_the_one_kernel_call(model):
    rng = np.random.default_rng(20 + list(Model).index(model))
    perturbed = _perturbed_for(model, rng)
    objective = Objective(model, perturbed)
    for _ in range(3):
        x = random_point(objective, rng)
        value, grad, _ = objective.value_gradient_hessian(x)
        point = objective.unpack(x)
        assert log_likelihood(model, point, perturbed) == value
        assert np.array_equal(gradient(model, point, perturbed), grad)
        assert objective.value(x) == value
        f, g = objective.value_and_gradient(x)
        assert f == value and np.array_equal(g, grad)
    if model is Model.RAO_KUPPER:
        x[-1] = RK_PHI_MIN / 2.0
        assert objective.value_gradient_hessian(x) == (-np.inf, None, None)
        assert objective.value(x) == -np.inf
        assert objective.value_and_gradient(x) == (-np.inf, None)


def test_bradley_terry_ignores_ties():
    a = np.array([[0, 2, 0], [1, 0, 1], [0, 1, 0]])
    ties = np.array([[0, 3, 0], [3, 0, 1], [0, 1, 0]])
    plain = perturb(venue_free_dataset(names(3), a), Improved(0.2))
    tied = perturb(venue_free_dataset(names(3), a, ties), Improved(0.2))
    point = ParameterPoint(beta=np.array([0.0, -0.4, 0.7]))
    assert log_likelihood(Model.BRADLEY_TERRY, point, plain) == pytest.approx(
        log_likelihood(Model.BRADLEY_TERRY, point, tied)
    )


@pytest.mark.parametrize(
    "model,phi,log_gamma",
    [
        (Model.RAO_KUPPER, 0.35, None),
        (Model.DAVIDSON, -0.2, None),
        (Model.DAVID, 0.1, 0.25),
    ],
)
def test_tie_probabilities_sum_to_one(model, phi, log_gamma):
    point = ParameterPoint(beta=np.array([0.0, -0.5, 0.8]), phi=phi, log_gamma=log_gamma)
    venue = 0 if model is Model.DAVID else None
    p_i, p_j, p_tie = probabilities(model, point, 0, 1, venue=venue)
    assert p_tie > 0.0
    assert p_i + p_j + p_tie == pytest.approx(1.0)


def test_win_only_probabilities_have_no_tie_mass():
    point = ParameterPoint(beta=np.array([0.0, -0.5, 0.8]))
    p_i, p_j, p_tie = probabilities(Model.BRADLEY_TERRY, point, 2, 1)
    assert p_tie == 0.0
    assert p_i + p_j == pytest.approx(1.0)
    assert p_i > 0.5  # team 2 carries the larger merit
    hf = ParameterPoint(beta=np.array([0.0, -0.5, 0.8]), log_gamma=0.3)
    q_i, q_j, q_tie = probabilities(Model.HOME_FIELD, hf, 0, 1, venue=1)
    assert q_tie == 0.0
    assert q_i + q_j == pytest.approx(1.0)


def test_single_game_loglik_is_the_log_probability():
    # with no perturbation, the likelihood of one game is the outcome's
    # probability, which ties the two code paths together
    zeros = MatrixShift(np.zeros((2, 2)))

    a = np.array([[0, 1], [0, 0]])
    bt_point = ParameterPoint(beta=np.array([0.0, -0.7]))
    ll = log_likelihood(Model.BRADLEY_TERRY, bt_point, perturb(venue_free_dataset(names(2), a), zeros))
    assert ll == pytest.approx(math.log(probabilities(Model.BRADLEY_TERRY, bt_point, 0, 1)[0]))

    ties = np.array([[0, 1], [1, 0]])
    rk_point = ParameterPoint(beta=np.array([0.0, -0.7]), phi=0.4)
    rk = perturb(venue_free_dataset(names(2), a, ties), zeros)
    p_win, _, p_tie = probabilities(Model.RAO_KUPPER, rk_point, 0, 1)
    assert log_likelihood(Model.RAO_KUPPER, rk_point, rk) == pytest.approx(
        math.log(p_win) + math.log(p_tie)
    )

    dv_point = ParameterPoint(beta=np.array([0.0, -0.7]), phi=-0.1)
    p_win, _, p_tie = probabilities(Model.DAVIDSON, dv_point, 0, 1)
    assert log_likelihood(Model.DAVIDSON, dv_point, rk) == pytest.approx(
        math.log(p_win) + math.log(p_tie)
    )

    a_home = np.array([[0, 1], [0, 0]])
    blank = np.zeros((2, 2), dtype=int)
    hf_point = ParameterPoint(beta=np.array([0.0, -0.7]), log_gamma=0.3)
    hf = perturb(venue_dataset(names(2), a_home, blank), zeros)
    assert log_likelihood(Model.HOME_FIELD, hf_point, hf) == pytest.approx(
        math.log(probabilities(Model.HOME_FIELD, hf_point, 0, 1, venue=0)[0])
    )

    t_home = np.array([[0, 0], [1, 0]])
    dd_point = ParameterPoint(beta=np.array([0.0, -0.7]), phi=0.1, log_gamma=0.3)
    dd = perturb(venue_dataset(names(2), a_home, blank, t_home), zeros)
    host_win = probabilities(Model.DAVID, dd_point, 0, 1, venue=0)[0]
    road_tie = probabilities(Model.DAVID, dd_point, 0, 1, venue=1)[2]
    assert log_likelihood(Model.DAVID, dd_point, dd) == pytest.approx(
        math.log(host_win) + math.log(road_tie)
    )


def test_venue_probabilities_are_order_symmetric():
    point = ParameterPoint(beta=np.array([0.0, -0.5, 0.8]), phi=0.1, log_gamma=0.25)
    forward = probabilities(Model.DAVID, point, 0, 2, venue=0)
    backward = probabilities(Model.DAVID, point, 2, 0, venue=0)
    assert forward[0] == pytest.approx(backward[1])
    assert forward[1] == pytest.approx(backward[0])
    assert forward[2] == pytest.approx(backward[2])


def test_probabilities_validate_indices_and_venue():
    point = ParameterPoint(beta=np.array([0.0, -0.5, 0.8]), log_gamma=0.25)
    with pytest.raises(DimensionError):
        probabilities(Model.HOME_FIELD, point, 0, 0, venue=0)
    with pytest.raises(DimensionError):
        probabilities(Model.HOME_FIELD, point, 0, 3, venue=0)
    with pytest.raises(ConfigError):
        probabilities(Model.HOME_FIELD, point, 0, 1, venue=2)
    with pytest.raises(ConfigError):
        probabilities(Model.HOME_FIELD, point, 0, 1)


def test_rao_kupper_rejects_theta_at_or_below_one():
    rng = np.random.default_rng(5)
    perturbed = _perturbed_for(Model.RAO_KUPPER, rng)
    bad = ParameterPoint(beta=np.zeros(6), phi=0.0)
    with pytest.raises(ThetaDomainError):
        log_likelihood(Model.RAO_KUPPER, bad, perturbed)
    with pytest.raises(ThetaDomainError):
        gradient(Model.RAO_KUPPER, bad, perturbed)
    with pytest.raises(ThetaDomainError):
        probabilities(Model.RAO_KUPPER, ParameterPoint(beta=np.zeros(2), phi=-0.2), 0, 1)


def test_point_shape_validation():
    rng = np.random.default_rng(6)
    perturbed = _perturbed_for(Model.BRADLEY_TERRY, rng)
    with pytest.raises(DimensionError):
        log_likelihood(Model.BRADLEY_TERRY, ParameterPoint(beta=np.zeros(3)), perturbed)
    with_phi = ParameterPoint(beta=np.zeros(6), phi=0.3)
    with pytest.raises(DimensionError):
        log_likelihood(Model.BRADLEY_TERRY, with_phi, perturbed)
    missing_phi = ParameterPoint(beta=np.zeros(6))
    with pytest.raises(DimensionError):
        log_likelihood(Model.DAVIDSON, missing_phi, perturbed)


def test_objective_refuses_impossible_model_data_pairs(four_teams):
    perturbed = perturb(four_teams, Improved(0.5))
    with pytest.raises(NoTiesError):
        Objective(Model.RAO_KUPPER, perturbed)
    with pytest.raises(NoTiesError):
        Objective(Model.DAVIDSON, perturbed)
    with pytest.raises(VenuelessDataError):
        Objective(Model.HOME_FIELD, perturbed)
    with pytest.raises(VenuelessDataError):
        Objective(Model.DAVID, perturbed)


def test_objective_domain_guard_returns_minus_infinity(tied_dataset):
    objective = Objective(Model.RAO_KUPPER, perturb(tied_dataset, Improved(0.2)))
    x = objective.initial_point()
    x[-1] = RK_PHI_MIN / 2.0
    assert objective.value(x) == -np.inf
    value, grad = objective.value_and_gradient(x)
    assert value == -np.inf
    assert grad is None


@pytest.mark.parametrize("model", list(Model))
def test_pack_unpack_round_trip(model):
    rng = np.random.default_rng(10 + list(Model).index(model))
    objective = Objective(model, _perturbed_for(model, rng))
    x = random_point(objective, rng)
    point = objective.unpack(x)
    assert point.beta[0] == 0.0
    # the free layout: beta_2 .. beta_t, then phi, then log_gamma, if present
    extras = [v for v in (point.phi, point.log_gamma) if v is not None]
    assert len(extras) == model.has_tie_parameter + model.has_home_parameter
    assert np.array_equal(np.concatenate([point.beta[1:], extras]), x)
    with pytest.raises(DimensionError):
        objective.unpack(np.zeros(objective.dimension + 1))


def test_initial_point_is_interior():
    rng = np.random.default_rng(9)
    objective = Objective(Model.RAO_KUPPER, _perturbed_for(Model.RAO_KUPPER, rng))
    x = objective.initial_point()
    assert objective.in_domain(x)
    assert objective.unpack(x).phi == pytest.approx(math.log(2.0))


def test_lse3_agrees_with_direct_sum():
    a, b, c = 0.3, 2.1, 0.7
    assert _lse3(math.log(a), math.log(b), math.log(c)) == pytest.approx(
        math.log(a + b + c)
    )
