"""The per-edge count layout against the dense reference formulas it
replaced, and what it costs in memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btrank import solver
from btrank.connectivity import (
    check_condition_a,
    check_condition_b,
    check_condition_c,
    verify_existence,
)
from btrank.errors import ConfigError, ExistenceError, VenuelessDataError
from btrank.ingestion import GameTable, aggregate
from btrank.likelihood import EdgeHessian, Objective
from btrank.perturbation import perturb
from btrank.types import (
    ConnerGrant,
    Improved,
    MatrixShift,
    Model,
    ModelSpec,
    pair_edges,
    venue_dataset,
    venue_free_dataset,
)

from conftest import names
from oracles import (
    dense,
    dense_existence_refusal,
    dense_perturb,
    dense_perturbed,
    dense_totals,
    first_source_component,
)


@st.composite
def data_and_schemes(draw):
    """``(dataset, its input matrices, spec)``: a venue or venueless dataset,
    with or without ties, and an Improved, ConnerGrant or MatrixShift
    scheme. A shift reaches met and unmet pairs alike, some entries
    negative."""
    t = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.1, 0.9))

    def matrix(most):
        m = rng.integers(0, most + 1, (t, t)) * (rng.random((t, t)) < density)
        np.fill_diagonal(m, 0)
        return m.astype(float)

    ties = matrix(1) * draw(st.booleans())
    if draw(st.booleans()):
        matrices = (matrix(3), matrix(3), ties)
        data = venue_dataset(names(t), *matrices)
    else:
        upper = np.triu(ties, 1)
        matrices = (matrix(3), np.zeros((t, t)), upper)
        data = venue_free_dataset(names(t), matrices[0], upper + upper.T)
    eps = draw(st.sampled_from(["auto", 0.5, 1e-6]))
    scheme = draw(st.sampled_from(["improved", "conner-grant", "shift"]))
    if scheme == "improved":
        spec = Improved(eps)
    elif scheme == "conner-grant":
        spec = ConnerGrant(eps)
    else:
        a0 = rng.uniform(-0.99, 1.0, (t, t)) * (rng.random((t, t)) < density)
        np.fill_diagonal(a0, 0.0)
        spec = MatrixShift(a0 * draw(st.sampled_from([1.0, -1.0])))
    return data, matrices, spec


LAYOUT = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@LAYOUT
@given(case=data_and_schemes())
def test_the_edge_record_scatters_to_the_dense_reference(case):
    data, matrices, spec = case
    want, got = dense_totals(*matrices), dense(data)
    for name in ("a_home", "a_away", "t_home", "a", "ties", "n", "n_host"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(data.scores, want.a.sum(axis=1))

    perturbed = perturb(data, spec)
    reference = dense_perturb(data, spec)
    scattered = dense_perturbed(perturbed)
    for name in ("a_home", "a_away", "a_free", "t_home"):
        np.testing.assert_array_equal(getattr(scattered, name), getattr(reference, name))
    # each scheme's own edge list: the met pairs, every pair, or the met
    # pairs and those the shift reaches
    if isinstance(spec, Improved):
        pairs = want.n > 0
    elif isinstance(spec, ConnerGrant):
        pairs = np.ones_like(want.n, dtype=bool)
    else:
        pairs = (want.n > 0) | (spec.a0 != 0)
    i, j = pair_edges(pairs)
    assert np.array_equal(perturbed.i, i) and np.array_equal(perturbed.j, j)


def _refusal(model, data, perturbed, scheme):
    """``(message, witness)`` of the refusal ``fit`` makes, or None: the
    rule as ``fit`` calls it, on the counts the scheme makes of the data."""
    try:
        verify_existence(model, data, perturbed, scheme)
    except ExistenceError as err:
        return str(err), err.witness
    return None


@LAYOUT
@given(case=data_and_schemes())
def test_existence_verdicts_witnesses_and_refusals_match_the_dense_rule(case):
    # Ford's condition on the dense perturbed counts is the reference: the
    # rule reads raw Condition B or C under Improved, and nothing under
    # ConnerGrant
    data, _, spec = case
    perturbed, reference = perturb(data, spec), dense_perturb(data, spec)
    for model in Model:
        if model.has_home_parameter and isinstance(spec, MatrixShift):
            with pytest.raises(ConfigError):
                ModelSpec(model, spec)
            continue
        if model.has_home_parameter and data.venueless:  # refused before any existence search
            with pytest.raises(VenuelessDataError):
                Objective(model, perturbed)
            with pytest.raises(VenuelessDataError):
                verify_existence(model, data, perturbed, spec)
            continue
        got = _refusal(model, data, perturbed, spec)
        assert got == dense_existence_refusal(model, spec, reference, data.teams)
        if isinstance(spec, ConnerGrant):
            assert got is None
    raw = dense(data)
    checks = [(check_condition_a, raw.a), (check_condition_b, raw.n)]
    if not data.venueless:
        checks.append((check_condition_c, raw.n_host))
    for check, weights in checks:
        witness, source = check(data), first_source_component(weights > 0)
        assert (witness is None) == (len(source) == data.num_teams)
        assert witness is None or witness.q1 == source


def _league(t):
    """The game records of a t-team league of about 6 opponents a team, one
    game at each venue, outcomes drawn at random."""
    rng = np.random.default_rng(5)
    i = np.concatenate([np.arange(t), rng.integers(0, t, 2 * t)])
    j = np.concatenate([(np.arange(t) + 1) % t, rng.integers(0, t, 2 * t)])
    i, j = i[i != j], j[i != j]
    home, away = np.concatenate([i, j]), np.concatenate([j, i])
    games = len(home)
    return GameTable(names(t), home, away, rng.integers(0, 3, games), np.ones(games))


def test_a_sparse_fit_from_records_allocates_less_than_one_dense_array():
    t = 2000
    table = _league(t)
    tracemalloc.start()
    try:
        perturbed = perturb(aggregate(table), Improved("auto"))
        objective = Objective(Model.BRADLEY_TERRY, perturbed)
        _, _, hess = objective.value_gradient_hessian(objective.initial_point())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(hess, EdgeHessian)
    assert peak < t * t * 8


def test_a_refused_flat_prior_fit_allocates_less_than_one_dense_array():
    # the flat prior fits the raw counts, which fail strong connection here
    t = 2000
    data = aggregate(_league(t))
    tracemalloc.start()
    try:
        with pytest.raises(ExistenceError):
            solver.fit_map_em(data, solver.MapPriorSpec(shape=1.0, rate=0.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < t * t * 8
