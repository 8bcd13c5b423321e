import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    PosteriorObjective,
    _edge_data,
    _logistic,
    _lse3,
    _outcome_terms,
    _terms,
    gradient,
    log_likelihood,
)
from btrank.perturbation import perturb
from btrank.types import (
    ConnerGrant,
    Improved,
    MatrixShift,
    Model,
    ParameterPoint,
    venue_dataset,
    venue_free_dataset,
)

from conftest import names, random_connected_dataset, random_point, random_venue_dataset
from oracles import dense_perturbed, edge_flow_product, logistic, outcome_terms, probabilities


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


def _oracle_log_likelihood(model, point, perturbed):
    """The perturbed counts weighting the log of each outcome's closed-form
    probability, summed over every ordered pair (the hosting pair for the
    venue models, the winner-loser pair for the others)."""
    t = perturbed.num_teams
    perturbed = dense_perturbed(perturbed)
    total = 0.0
    for i in range(t):
        for j in range(t):
            if i == j:
                continue
            if model.has_home_parameter:
                p_host, p_visitor, p_tie = probabilities(model, point, i, j, venue=i)
                total += perturbed.a_home[i, j] * math.log(p_host)
                total += perturbed.a_away[j, i] * math.log(p_visitor)
                if model is Model.DAVID:
                    total += perturbed.t_home[i, j] * math.log(p_tie)
            else:
                p_i, _, p_tie = probabilities(model, point, i, j)
                total += perturbed.a_free[i, j] * math.log(p_i)
                if model is not Model.BRADLEY_TERRY and i < j:
                    total += perturbed.ties[i, j] * math.log(p_tie)
    return total


def _check_every_model_against_the_oracle(data, scheme, rng):
    perturbed = perturb(data, scheme)
    has_ties = perturbed.games[2].any()
    checked = 0
    for model in Model:
        if (model.has_home_parameter and data.venueless) or (
            model.has_tie_parameter and not has_ties
        ):
            continue
        beta = np.concatenate([[0.0], rng.uniform(-2.0, 2.0, data.num_teams - 1)])
        phi = None
        if model is Model.RAO_KUPPER:
            # log-uniform: theta from 1.01, where log(1 - theta^-2) is large, to e^8
            phi = float(np.exp(rng.uniform(np.log(0.01), np.log(8.0))))
        elif model.has_tie_parameter:
            phi = rng.uniform(-1.0, 1.0)
        log_gamma = rng.uniform(-1.0, 1.0) if model.has_home_parameter else None
        point = ParameterPoint(beta=beta, phi=phi, log_gamma=log_gamma)
        expected = _oracle_log_likelihood(model, point, perturbed)
        assert log_likelihood(model, point, perturbed) == pytest.approx(expected, rel=1e-10, abs=1e-10)
        checked += 1
    return checked


def _scheme(kind, t, rng):
    """Improved, ConnerGrant (unmet pairs become edges) or MatrixShift with a
    shift, negative in places, on every pair, met or not."""
    if kind == "improved":
        return Improved(rng.choice([0.3, 1e-6]))
    if kind == "conner-grant":
        return ConnerGrant(rng.choice([0.3, 1e-6]))
    a0 = rng.uniform(-0.5, 1.0, (t, t))
    np.fill_diagonal(a0, 0.0)
    return MatrixShift(a0)


@st.composite
def sparse_counts(draw):
    """A 2 to 7 team dataset, mostly with unmet pairs, venue or venue-free,
    with or without ties."""
    t = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    met = np.triu(rng.random((t, t)) < draw(st.sampled_from([0.3, 0.6, 1.0])), 1)
    met = met | met.T

    def counts():
        return rng.integers(0, 3, (t, t)) * met

    ties = counts() * draw(st.booleans())
    if draw(st.booleans()):
        return venue_dataset(names(t), counts(), counts(), ties), rng
    upper = np.triu(ties, 1)
    return venue_free_dataset(names(t), counts(), upper + upper.T), rng


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(drawn=sparse_counts(), kind=st.sampled_from(["improved", "conner-grant", "shift"]))
def test_edge_kernels_match_the_closed_form_oracle(drawn, kind):
    data, rng = drawn
    _check_every_model_against_the_oracle(data, _scheme(kind, data.num_teams, rng), rng)


@pytest.mark.parametrize("kind", ["improved", "conner-grant", "shift"])
def test_edge_kernels_match_the_oracle_on_two_teams_and_a_round_robin(kind):
    rng = np.random.default_rng(3)
    two = (np.array([[0, 2], [1, 0]]), np.array([[0, 1], [0, 0]]), np.array([[0, 1], [1, 0]]))
    t = 6
    wins = rng.integers(1, 4, (t, t))
    np.fill_diagonal(wins, 0)
    ties = np.triu(rng.integers(1, 3, (t, t)), 1)
    for a, a_away, tie in (two, (wins, wins.T, ties + ties.T)):
        n = len(a)
        venue = venue_dataset(names(n), a, a_away, np.triu(tie))
        free = venue_free_dataset(names(n), a, tie)
        assert _check_every_model_against_the_oracle(venue, _scheme(kind, n, rng), rng) == 5
        assert _check_every_model_against_the_oracle(free, _scheme(kind, n, rng), rng) == 3


def test_one_evaluation_allocates_less_than_half_a_dense_array():
    # A sparse league of 1000 teams, a ring plus random chords, about 6
    # opponents per team: above the size rule the kernels and the Hessian
    # are kept per met pair, so one evaluation allocates O(t + edges).
    rng = np.random.default_rng(0)
    t = 1000
    ring = np.arange(t)
    chords = rng.integers(0, t, (2, 2 * t))
    i = np.concatenate([ring, chords[0]])
    j = np.concatenate([(ring + 1) % t, chords[1]])
    keep = i != j
    i, j = i[keep], j[keep]
    won = rng.random(len(i)) < 0.5
    a = np.zeros((t, t))
    np.add.at(a, (np.where(won, i, j), np.where(won, j, i)), 1.0)
    objective = Objective(Model.BRADLEY_TERRY, perturb(venue_free_dataset(names(t), a), Improved("auto")))
    x = rng.uniform(-1.0, 1.0, objective.dimension)
    tracemalloc.start()
    try:
        value, grad, hess = objective.value_gradient_hessian(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(value) and hess.diagonal().shape == (t - 1,)
    assert peak < t * t * 8 / 2


def _dense_by_add_at(h):
    """The dense H of an ``EdgeHessian``, entry by entry with ``np.add.at``:
    each edge's weight off the diagonal, the shift minus the weighted
    degrees (summed over the i ends, then the j ends) on it, then the
    border and the block of the k parameters, the pinned merits cut off."""
    t, k, a = len(h.shift), len(h.block), h.arcs
    dense = np.zeros((t + k, t + k))
    np.add.at(dense, (a.i, a.j), h.weight)
    np.add.at(dense, (a.j, a.i), h.weight)
    degree_i, degree_j = np.zeros(t), np.zeros(t)
    np.add.at(degree_i, a.i, h.weight)
    np.add.at(degree_j, a.j, h.weight)
    dense[np.arange(t), np.arange(t)] = h.shift - (degree_i + degree_j)
    if k:
        dense[:t, t:], dense[t:, :t], dense[t:, t:] = h.border.T, h.border, h.block
    return dense[h.pinned :, h.pinned :]


@pytest.mark.parametrize("pinned", [0, 1])
@pytest.mark.parametrize("model", list(Model))  # k = 0, 1 (three models) and 2
def test_the_dense_hessian_is_bit_for_bit_the_naive_scatter(model, pinned):
    rng = np.random.default_rng([5, pinned])
    for _ in range(5):
        perturbed = perturb(random_venue_dataset(rng, t=6, with_ties=True), Improved(0.3))
        x = random_point(Objective(model, perturbed), rng)
        phi = x[5] if model.has_tie_parameter else None
        log_gamma = x[-1] if model.has_home_parameter else None
        beta = np.concatenate([[0.0], x[:5]])
        h = _terms(model, beta, phi, log_gamma, _edge_data(model, perturbed, pinned))[2]
        assert len(h.block) == model.has_tie_parameter + model.has_home_parameter
        got = np.asarray(h)
        assert got.shape == (6 - pinned + len(h.block),) * 2
        assert got.tobytes() == _dense_by_add_at(h).tobytes()


@pytest.mark.parametrize("pinned", [0, 1])
@pytest.mark.parametrize("model", [Model.BRADLEY_TERRY, Model.DAVIDSON, Model.DAVID])  # k = 0, 1, 2
def test_the_product_reuses_its_work_vector_and_keeps_the_edge_flow_sums(model, pinned):
    rng = np.random.default_rng([7, pinned])
    perturbed = perturb(random_venue_dataset(rng, t=7, with_ties=True), Improved(0.2))
    objective = Objective(model, perturbed)
    edge_data = _edge_data(model, perturbed, pinned)

    def hessian():
        x = random_point(objective, rng)
        phi = x[6] if model.has_tie_parameter else None
        log_gamma = x[-1] if model.has_home_parameter else None
        return _terms(model, np.concatenate([[0.0], x[:6]]), phi, log_gamma, edge_data)[2]

    h, other = hessian(), hessian()
    assert len(h.block) == model.has_tie_parameter + model.has_home_parameter
    n = 7 - pinned + len(h.block)
    x, y = rng.normal(size=n), rng.normal(size=n)
    kept = x.copy()
    first = h.matvec(x)
    assert np.array_equal(first, edge_flow_product(h, x)) and np.array_equal(x, kept)
    saved = first.copy()
    # a second product, on the same Hessian and on another of the same
    # objective, leaves the first result as it was
    assert np.array_equal(h.matvec(y), edge_flow_product(h, y))
    assert np.array_equal(other.matvec(y), edge_flow_product(other, y))
    assert np.array_equal(first, saved)
    assert np.array_equal(h.matvec(x), saved)


EDGE_XS = [1000.0, -1000.0, 745.0, -745.0, 1e-300, -1e-300, 0.0, -0.0]


@pytest.mark.parametrize(
    "x",
    [
        *EDGE_XS,  # Python floats
        *map(np.array, EDGE_XS),  # 0-d arrays
        np.array(EDGE_XS),
        np.random.default_rng(3).normal(0.0, 40.0, (2, 257)),
    ],
    ids=lambda x: repr(x) if np.size(x) == 1 else f"array{np.shape(x)}",
)
def test_the_logistic_kernel_matches_the_written_out_formulas_byte_for_byte(x):
    # where exp(-|x|) underflows or is 1, and signed zeros in and out
    got, want = _logistic(x), logistic(x)
    assert len(got) == 4
    for array, expected in zip(got, want):
        expected = np.asarray(expected)
        assert isinstance(array, np.ndarray) and array.dtype == np.float64
        assert array.shape == expected.shape and array.tobytes() == expected.tobytes()


def _same_terms(got, want) -> bool:
    """Value, gradient, edge weights, dense Hessian, border rows and block
    of two kernel results, compared bit for bit."""
    (value, grad, h), (value_w, grad_w, h_w) = got, want
    return (
        np.array_equal(value, value_w)
        and np.array_equal(grad, grad_w)
        and np.array_equal(h.weight, h_w.weight)
        and np.array_equal(np.asarray(h), np.asarray(h_w))
        and np.array_equal(h.border, h_w.border)
        and np.array_equal(h.block, h_w.block)
    )


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    t=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([1.0, 10.0, 40.0]),
    pinned=st.sampled_from([0, 1]),
    scheme=st.sampled_from([Improved(0.3), Improved(1e-6), ConnerGrant(0.3)]),
    x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
)
def test_the_kernel_forms_each_product_once_bit_for_bit_as_written_out(t, seed, spread, pinned, scheme, x):
    # every model and the posterior, merits up to +-spread with the pinned
    # ones at 0, and the Rao-Kupper phi down to its bound
    x = np.array([*x, -np.inf, np.inf, -800.0, 800.0, -0.0, 0.0])  # where exp(-|x|) underflows too
    assert np.array(_logistic(x)).tobytes() == np.array(logistic(x)).tobytes()  # signed zeros included
    rng = np.random.default_rng(seed)
    data = random_venue_dataset(rng, t=t, with_ties=True)
    perturbed = perturb(data, scheme)
    beta = rng.uniform(-spread, spread, t)
    beta[:pinned] = 0.0
    for model in Model:
        edge_data = _edge_data(model, perturbed, pinned)
        h, v, counts, arcs = edge_data
        phi = rng.uniform(-3.0, 3.0) if model.has_tie_parameter else None
        lg = rng.uniform(-3.0, 3.0) if model.has_home_parameter else None
        if model is Model.RAO_KUPPER:  # its phi enters the kernel as the home parameter
            phi, lg = None, float(rng.choice([RK_PHI_MIN, 1e-6, rng.uniform(RK_PHI_MIN, 3.0)]))
        args = (beta, h, v, *counts, phi, lg, arcs)
        assert _same_terms(_outcome_terms(*args), outcome_terms(*args)), model
    posterior = PosteriorObjective(data.counts, 2.0, 2.0 * t - 1.0)
    args = (beta, *posterior._data)
    assert _same_terms(_outcome_terms(*args), outcome_terms(*args))
