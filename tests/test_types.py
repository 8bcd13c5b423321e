import numpy as np
import pytest

import btrank
from btrank.errors import (
    ConfigError,
    NegativeCountError,
    NonConvergenceError,
    NonPositiveEpsilonError,
    ShapeError,
)
from btrank.types import CountMatrices, ParameterPoint, derive_totals
from conftest import names
from oracles import dense


def test_venue_totals_follow_the_hosting_convention():
    # a_home[i][j]: i beats j at i's venue; a_away[i][j]: i beats j at j's;
    # t_home[i][j]: ties hosted by i.
    a_home = np.array([[0, 2], [1, 0]], dtype=float)
    a_away = np.array([[0, 3], [4, 0]], dtype=float)
    t_home = np.array([[0, 1], [2, 0]], dtype=float)
    data = btrank.venue_dataset(("A", "B"), a_home, a_away, t_home)
    counts = data.counts
    assert (counts.num_teams, counts.i.tolist(), counts.j.tolist()) == (2, [0], [1])
    # [host win, visitor win, tie] x [A hosts B, B hosts A]
    assert counts.games[..., 0].tolist() == [[2, 1], [4, 3], [1, 2]]
    wins_ab, wins_ba, ties = derive_totals(counts)[:, 0]
    assert (wins_ab, wins_ba, ties) == (2 + 3, 1 + 4, 1 + 2)
    # games hosted by A against B: home wins 2, visitor (B) wins there 4, ties 1
    assert counts.games[:, 0, 0].sum() == 2 + 4 + 1
    assert counts.games[:, 1, 0].sum() == 1 + 3 + 2
    d = dense(data)
    for name, matrix in (("a_home", a_home), ("a_away", a_away), ("t_home", t_home)):
        assert np.array_equal(getattr(d, name), matrix)


def test_count_matrices_reject_bad_input():
    i, j, games = [0, 0], [1, 2], np.ones((3, 2, 2))
    CountMatrices(3, i, j, games)
    with pytest.raises(NegativeCountError):
        bad = games.copy()
        bad[1, 0, 1] = -1
        CountMatrices(3, i, j, bad)
    # too few edges, i > j, out of row order, repeated, a team out of range
    for edges in (([0], [1]), ([0, 1], [1, 0]), ([0, 0], [2, 1]), ([0, 0], [1, 1]), ([0, 0], [1, 3])):
        with pytest.raises(ShapeError):
            CountMatrices(3, *edges, games)
    with pytest.raises(ShapeError):  # an edge without a game
        CountMatrices(3, i, j, np.concatenate([games[..., :1], np.zeros((3, 2, 1))], axis=2))
    good = np.zeros((3, 3))
    with pytest.raises(NegativeCountError, match="a_away contains a negative count"):
        bad = good.copy()
        bad[0, 1] = -1
        btrank.venue_dataset(names(3), good, bad)
    with pytest.raises(ShapeError, match="a_home must be a square matrix"):
        btrank.venue_dataset(names(3), np.zeros((2, 3)), good)
    with pytest.raises(ShapeError, match="a must have a zero diagonal"):
        diag = good.copy()
        diag[1, 1] = 2
        btrank.venue_free_dataset(names(3), diag)


def test_dataset_validation():
    a = np.array([[0, 1], [1, 0]], dtype=float)
    with pytest.raises(ShapeError):
        btrank.venue_free_dataset(("A", "A"), a)
    with pytest.raises(ShapeError):
        btrank.venue_free_dataset(("A",), np.zeros((1, 1)))
    with pytest.raises(ShapeError):
        btrank.venue_free_dataset(("A", "B", "C"), a)

    data = btrank.venue_free_dataset(("A", "B"), a)
    assert data.venueless
    assert data.num_teams == 2
    assert data.teams == ("A", "B")
    assert data.scores.tolist() == [1.0, 1.0]


def test_venue_free_ties_must_be_symmetric():
    a = np.array([[0, 1], [1, 0]], dtype=float)
    ties = np.array([[0, 1], [0, 0]], dtype=float)
    with pytest.raises(ShapeError):
        btrank.venue_free_dataset(("A", "B"), a, ties)


def test_dataset_arrays_are_read_only(four_teams):
    for arr in (four_teams.counts.games, four_teams.counts.i, four_teams.totals, four_teams.scores):
        with pytest.raises(ValueError):
            arr[0] = 5.0


def test_epsilon_specs_validate():
    assert btrank.Improved("auto").epsilon == "auto"
    assert btrank.ConnerGrant(0.5).epsilon == 0.5
    for bad in (0.0, -1.0, float("nan"), "bogus"):
        with pytest.raises(NonPositiveEpsilonError):
            btrank.Improved(bad)
        with pytest.raises(NonPositiveEpsilonError):
            btrank.ConnerGrant(bad)


def test_matrix_shift_validates_entries():
    a0 = np.array([[0, -1.0], [0.5, 0]])
    with pytest.raises(ConfigError):
        btrank.MatrixShift(a0)
    with pytest.raises(ShapeError):
        btrank.MatrixShift(np.array([[1.0, 0.5], [0.5, 0]]))  # nonzero diagonal
    shift = btrank.MatrixShift(np.array([[0, -0.5], [2.0, 0]]))
    assert shift.a0[0, 1] == -0.5


def test_parameter_point_contract():
    with pytest.raises(ShapeError):
        ParameterPoint(beta=np.array([0.1, 0.2]))
    point = ParameterPoint(beta=np.array([0.0, -1.0]), phi=np.log(2.0))
    assert point.theta == pytest.approx(2.0)
    assert point.gamma is None


def test_model_capabilities():
    assert btrank.Model.BRADLEY_TERRY.value == "bt"
    assert btrank.Model.RAO_KUPPER.needs_ties
    assert btrank.Model.DAVIDSON.has_tie_parameter
    assert not btrank.Model.DAVIDSON.needs_venues
    assert btrank.Model.HOME_FIELD.needs_venues
    assert not btrank.Model.HOME_FIELD.needs_ties
    assert btrank.Model.DAVID.needs_ties and btrank.Model.DAVID.needs_venues


def test_ranking_validation_and_describe():
    ranking = btrank.Ranking(
        teams=("1", "2", "3", "4"),
        order=(0, 3, 1, 2),
        groups=((0,), (3,), (1, 2)),
    )
    assert ranking.team_order() == ("1", "4", "2", "3")
    assert ranking.describe() == "1 > 4 > {2 = 3}"
    with pytest.raises(ShapeError):
        btrank.Ranking(teams=("1", "2"), order=(0, 0), groups=((0, 0),))
    with pytest.raises(ShapeError):
        btrank.Ranking(teams=("1", "2"), order=(0, 1), groups=((1, 0),))


def test_partition_witness_validation():
    with pytest.raises(ShapeError):
        btrank.PartitionWitness(condition="A", q1=(0, 1), q2=(1, 2), detail="overlap")
    with pytest.raises(ShapeError):
        btrank.PartitionWitness(condition="B", q1=(), q2=(0,), detail="empty")
    witness = btrank.PartitionWitness(condition="A", q1=(1, 0), q2=(2,), detail="d")
    assert witness.q1 == (0, 1)  # sorted for stable messages
    text = witness.describe(("x", "y", "z"))
    assert "{x, y}" in text and "{z}" in text


def test_fit_result_ensure_converged(four_teams):
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(0.5))
    good = btrank.fit(spec, four_teams)
    assert good.ensure_converged() is good

    capped = btrank.fit(spec, four_teams, btrank.SolverConfig(max_iters=1))
    assert not capped.converged
    with pytest.raises(NonConvergenceError):
        capped.ensure_converged()


def test_normalizations_are_scalar_multiples(four_teams):
    ref = btrank.fit(
        btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(0.5)), four_teams
    )
    simplex = btrank.fit(
        btrank.ModelSpec(
            btrank.Model.BRADLEY_TERRY,
            btrank.Improved(0.5),
            btrank.Normalization.SIMPLEX,
        ),
        four_teams,
    )
    assert ref.merits_u[0] == 1.0
    assert simplex.merits_u.sum() == pytest.approx(1.0, abs=1e-12)
    ratio = ref.merits_u / simplex.merits_u
    assert np.allclose(ratio, ratio[0])
