from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btrank import connectivity
from btrank.connectivity import (
    CONDITION_C,
    arcs,
    check_condition_a,
    check_condition_b,
    check_condition_c,
    strong_components,
    strong_connectivity_witness,
    verify_existence,
    witness_is_valid,
)
from btrank.errors import ExistenceError, VenuelessDataError
from btrank.perturbation import perturb
from btrank.types import (
    ConnerGrant, CountMatrices, Dataset, Improved, Model, PartitionWitness, PerturbedCounts,
    pair_edges, venue_dataset, venue_free_dataset,
)

from conftest import names, random_strongly_connected_dataset, random_venue_dataset
from oracles import condition_c_by_enumeration, first_source_component


def test_condition_a_failure_yields_the_trapped_pair(four_teams):
    # teams 3 and 4 only ever lose to the outside, so wins cannot flow back
    witness = check_condition_a(four_teams)
    assert witness is not None
    assert witness.condition == "A"
    assert witness.q1 == (0, 1)
    assert witness.q2 == (2, 3)
    assert witness_is_valid(four_teams, witness)
    assert "no team in the second set has beaten" in witness.detail


def test_condition_a_passes_when_wins_cycle():
    a = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    data = venue_free_dataset(names(3), a)
    assert check_condition_a(data) is None


def test_condition_a_passes_on_random_strong_digraphs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        data = random_strongly_connected_dataset(rng, t=6)
        assert check_condition_a(data) is None


def test_condition_b_passes_on_the_four_team_chain(four_teams):
    assert check_condition_b(four_teams) is None


def test_condition_b_failure_splits_into_components():
    # two islands: {0, 1} and {2, 3} never meet
    a = np.array(
        [
            [0, 2, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 3],
            [0, 0, 1, 0],
        ]
    )
    data = venue_free_dataset(names(4), a)
    witness = check_condition_b(data)
    assert witness is not None
    assert witness.condition == "B"
    assert witness.q1 == (0, 1)
    assert witness.q2 == (2, 3)
    assert witness_is_valid(data, witness)


def test_condition_c_two_team_home_and_home():
    a_home = np.array([[0, 1], [1, 0]])
    a_away = np.zeros((2, 2), dtype=int)
    data = venue_dataset(names(2), a_home, a_away)
    assert check_condition_c(data) is None
    assert condition_c_by_enumeration(data)


def test_condition_c_fails_when_one_team_never_travels():
    # team 0 hosts twice and never visits anyone
    a_home = np.array([[0, 2], [0, 0]])
    a_away = np.zeros((2, 2), dtype=int)
    data = venue_dataset(names(2), a_home, a_away)
    witness = check_condition_c(data)
    assert witness is not None
    assert witness.condition == "C"
    assert witness.q1 == (0,)
    assert witness.q2 == (1,)
    assert witness_is_valid(data, witness)
    assert not condition_c_by_enumeration(data)


def test_condition_c_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(60):
        t = int(rng.integers(3, 7))
        density = rng.uniform(0.1, 0.6)
        a_home = np.where(rng.random((t, t)) < density, rng.integers(1, 3, (t, t)), 0)
        a_away = np.where(rng.random((t, t)) < density, rng.integers(1, 3, (t, t)), 0)
        np.fill_diagonal(a_home, 0)
        np.fill_diagonal(a_away, 0)
        data = venue_dataset(names(t), a_home, a_away)
        fast = check_condition_c(data) is None
        assert fast == condition_c_by_enumeration(data)
        outcomes.add(fast)
    # the draw range is wide enough to exercise both verdicts
    assert outcomes == {True, False}


def test_condition_c_refuses_venueless_data(four_teams):
    with pytest.raises(VenuelessDataError):
        check_condition_c(four_teams)
    with pytest.raises(VenuelessDataError):
        condition_c_by_enumeration(four_teams)


@pytest.mark.parametrize("scheme", [Improved(0.5), ConnerGrant(0.5)])
@pytest.mark.parametrize("model", [Model.HOME_FIELD, Model.DAVID])
def test_existence_refuses_a_venue_model_on_venueless_data(four_teams, scheme, model):
    # no hosting digraph to read, not a Condition C split, even where the
    # scheme lifts every pair
    with pytest.raises(VenuelessDataError, match="home/away structure"):
        verify_existence(model, four_teams, perturb(four_teams, scheme), scheme)


def test_condition_c_passes_on_random_venue_data():
    rng = np.random.default_rng(11)
    data = random_venue_dataset(rng, t=5)
    assert check_condition_c(data) is None


def test_source_component_prefers_lowest_index():
    # two separate sources ({0} and {1}) both feed the sink pair {2, 3};
    # the witness must pick the same one every time, and it is the one
    # holding the smallest team index
    a = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )
    data = venue_free_dataset(names(4), a)
    seen = {check_condition_a(data).q1 for _ in range(5)}
    assert seen == {(0,)}


def _witness(n, src, dst, condition, detail):
    """The witness of the digraph on ``n`` vertices with arcs ``src -> dst``."""
    return strong_connectivity_witness(strong_components(n, src, dst), src, dst, condition, detail)


def test_strong_connectivity_witness_on_raw_weights():
    weights = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])  # arcs 0 -> 1 -> 2
    witness = _witness(3, *np.nonzero(weights), condition="A", detail="x")
    assert witness is not None
    assert witness.q1 == (0,)
    assert _witness(3, *np.nonzero(np.ones((3, 3))), "A", "x") is None


def test_one_search_needs_the_second_half_of_the_arcs_to_reverse_the_first():
    # arcs 2 and 3 end where arcs 0 and 1 start, yet 1 -> 0 twice is no
    # reverse of 0 -> 2, and team 2 reaches no one
    src, dst = np.array([0, 0, 1, 1]), np.array([1, 2, 0, 0])
    witness = _witness(3, src, dst, "A", "x")
    assert witness is not None and witness.q1 == (0, 1)
    ladder = np.array([0, 1, 1, 2]), np.array([1, 2, 0, 1])  # both arcs of 0-1 and 1-2
    assert _witness(3, *ladder, "A", "x") is None


def test_arcs_read_both_directions_of_each_edge():
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    weights = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.5]])
    src, dst = arcs(i, j, weights)
    assert list(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 2), (2, 0), (2, 1)]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    t=st.integers(2, 40),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_reachability_verdict_and_witness_match_the_oracles(t, density, seed):
    adjacency = np.random.default_rng(seed).random((t, t)) < density
    np.fill_diagonal(adjacency, False)
    w = adjacency.astype(float)
    data = venue_dataset(names(t), w, np.zeros((t, t)))  # n_host == w
    witness = _witness(t, *np.nonzero(adjacency), *CONDITION_C)
    if t <= 7:
        assert (witness is None) == condition_c_by_enumeration(data)
    source = first_source_component(adjacency)
    if witness is None:
        assert source == tuple(range(t))
    else:
        assert witness.q1 == source
        assert witness_is_valid(data, witness)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(1, 30),
    density=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_strong_components_match_the_transitive_closure(n, density, seed):
    adjacency = np.random.default_rng(seed).random((n, n)) < density
    src, dst = np.nonzero(adjacency)
    labels = strong_components(n, src, dst)
    reach = adjacency | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k])
    assert labels.min() == 0 and set(labels) == set(range(labels.max() + 1))
    np.testing.assert_array_equal(labels[:, None] == labels[None, :], reach & reach.T)


def _witness_by_components(t, src, dst):
    """``(q1, q2)`` of the witness the existence checks must give, or None
    if the digraph is strongly connected: read off ``strong_components`` as
    the component of the smallest vertex among those no other component
    sends an arc into."""
    labels = strong_components(t, src, dst).tolist()
    if len(set(labels)) == 1:
        return None
    entered = {labels[b] for a, b in zip(src.tolist(), dst.tolist()) if labels[a] != labels[b]}
    first = next(v for v in range(t) if labels[v] not in entered)
    q1 = tuple(v for v in range(t) if labels[v] == labels[first])
    return q1, tuple(v for v in range(t) if v not in q1)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    t=st.integers(2, 12),
    density=st.floats(0.0, 1.0),
    arcs_kept=st.sampled_from(["both", "all but one", "as many each way", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_existence_verdicts_and_witnesses_match_the_strong_components(t, density, arcs_kept, seed):
    # where every edge has both arcs one search decides; otherwise the reverse
    # one runs too. The arcs are a shift's fitted wins for Bradley-Terry, and
    # the raw hosting digraph David reads under Improved
    rng = np.random.default_rng(seed)
    met = np.triu(rng.random((t, t)) < density, 1)
    met[0, 1] |= not met.any()  # at least one edge
    i, j = pair_edges(met)
    weights = np.ones((2, len(i)))
    if arcs_kept == "all but one":
        weights.flat[rng.integers(weights.size)] = 0.0
    elif arcs_kept == "as many each way":  # as many arcs i -> j as j -> i, not the reverses
        weights[0] = rng.random(len(i)) < 0.5
        weights[1] = rng.permutation(weights[0])
    elif arcs_kept == "random":
        weights = (rng.random(weights.shape) < 0.5).astype(float)
    src, dst = arcs(i, j, weights)
    want = _witness_by_components(t, src, dst)
    witness = _witness(t, src, dst, "B", "detail")
    assert (witness is None) == (want is None)
    assert witness is None or (witness.q1, witness.q2) == want
    games = np.zeros((3, 2, len(i)))
    games[0] = weights  # the hosted games David reads are the same arcs
    hosted = games.any(axis=(0, 1))  # a raw edge needs a game
    data = Dataset(names(t), CountMatrices(t, i[hosted], j[hosted], games[..., hosted]))
    shifted = PerturbedCounts(t, i, j, games, weights, False, None)
    for model, perturbed, scheme in [
        (Model.BRADLEY_TERRY, shifted, None),
        (Model.DAVID, perturb(data, Improved(0.1)), Improved(0.1)),
    ]:
        if want is None:
            verify_existence(model, data, perturbed, scheme)
            continue
        with pytest.raises(ExistenceError) as refusal:
            verify_existence(model, data, perturbed, scheme)
        assert (refusal.value.witness.q1, refusal.value.witness.q2) == want


def test_strong_components_of_a_long_path_and_a_long_ladder():
    # one component per vertex along a path, one for a path with its reverse;
    # label propagation would need a sweep per vertex of the path here
    n = 20_000
    head, tail = np.arange(1, n), np.arange(n - 1)
    assert len(set(strong_components(n, head, tail))) == n
    ladder = strong_components(n, np.concatenate([head, tail]), np.concatenate([tail, head]))
    assert set(ladder) == {0}


class _CountingNumpy:
    """numpy for the connectivity module, counting the rounds of its
    reachability searches: each sizes its reached set by ``count_nonzero``."""

    def __init__(self):
        self.rounds = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def count_nonzero(self, a):
        self.rounds += 1
        return np.count_nonzero(a)


def test_a_long_two_way_path_costs_a_bounded_number_of_frontier_pushes():
    # 20,000 teams, each beating the next one at home: the comparison graph
    # is a path of diameter 19,999, which a reachability search would cross
    # one frontier push per step. The search gives up within a bounded
    # number of rounds and Tarjan labels the path; the fit-time rule under
    # Improved reads the check's labels and pushes nothing more.
    t = 20_000
    first = np.arange(t - 1)
    games = np.zeros((3, 2, t - 1))
    games[0, 0] = 1.0
    data = Dataset(names(t), CountMatrices(t, first, first + 1, games))
    scheme = Improved("auto")
    perturbed = perturb(data, scheme)
    counting = _CountingNumpy()
    with mock.patch.object(connectivity, "np", counting):
        assert check_condition_b(data) is None
        checked = counting.rounds
        assert 0 < checked <= 64
        verify_existence(Model.BRADLEY_TERRY, data, perturbed, scheme)
    assert counting.rounds == checked


def test_witness_validation_rejects_wrong_claims(four_teams):
    # swapping the sets inverts the claimed direction, which the data refute
    swapped = PartitionWitness(condition="A", q1=(2, 3), q2=(0, 1), detail="")
    assert not witness_is_valid(four_teams, swapped)
    # a witness that does not cover all teams is malformed
    partial = PartitionWitness(condition="A", q1=(0,), q2=(1,), detail="")
    assert not witness_is_valid(four_teams, partial)
    # condition B with games across the split is refuted
    crossed = PartitionWitness(condition="B", q1=(0,), q2=(1, 2, 3), detail="")
    assert not witness_is_valid(four_teams, crossed)


def test_witness_validation_confirms_condition_c():
    a_home = np.array([[0, 2], [0, 0]])
    data = venue_dataset(names(2), a_home, np.zeros((2, 2), dtype=int))
    good = PartitionWitness(condition="C", q1=(0,), q2=(1,), detail="")
    assert witness_is_valid(data, good)
    # team 0, in q2, hosted team 1, in q1: the data refute the swapped split
    swapped = PartitionWitness(condition="C", q1=(1,), q2=(0,), detail="")
    assert not witness_is_valid(data, swapped)
    unknown = PartitionWitness(condition="D", q1=(0,), q2=(1,), detail="")
    assert not witness_is_valid(data, unknown)
