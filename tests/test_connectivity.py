import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btrank.connectivity import (
    CONDITION_C,
    arcs,
    check_condition_a,
    check_condition_b,
    check_condition_c,
    strong_components,
    strong_connectivity_witness,
    witness_is_valid,
)
from btrank.errors import VenuelessDataError
from btrank.types import PartitionWitness, venue_dataset, venue_free_dataset

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


def test_strong_connectivity_witness_on_raw_weights():
    weights = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])  # arcs 0 -> 1 -> 2
    witness = strong_connectivity_witness(3, *np.nonzero(weights), condition="A", detail="x")
    assert witness is not None
    assert witness.q1 == (0,)
    assert strong_connectivity_witness(3, *np.nonzero(np.ones((3, 3))), "A", "x") is None


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
    witness = strong_connectivity_witness(t, *np.nonzero(adjacency), *CONDITION_C)
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


def test_strong_components_of_a_long_path_and_a_long_ladder():
    # one component per vertex along a path, one for a path with its reverse;
    # label propagation would need a sweep per vertex of the path here
    n = 20_000
    head, tail = np.arange(1, n), np.arange(n - 1)
    assert len(set(strong_components(n, head, tail))) == n
    ladder = strong_components(n, np.concatenate([head, tail]), np.concatenate([tail, head]))
    assert set(ladder) == {0}


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
