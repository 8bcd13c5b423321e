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


def test_venue_totals_follow_the_hosting_convention():
    # a_home[i][j]: i beats j at i's venue; a_away[i][j]: i beats j at j's;
    # t_home[i][j]: ties hosted by i.
    a_home = np.array([[0, 2], [1, 0]], dtype=float)
    a_away = np.array([[0, 3], [4, 0]], dtype=float)
    t_home = np.array([[0, 1], [2, 0]], dtype=float)
    counts = CountMatrices(a_home=a_home, a_away=a_away, t_home=t_home)
    totals = derive_totals(counts)

    assert totals.a[0, 1] == 2 + 3
    assert totals.a[1, 0] == 1 + 4
    assert totals.ties[0, 1] == totals.ties[1, 0] == 1 + 2
    # games hosted by 0 against 1: home wins 2, visitor (1) wins there 4, ties 1
    assert totals.n_host[0, 1] == 2 + 4 + 1
    assert totals.n_host[1, 0] == 1 + 3 + 2
    assert np.allclose(totals.n, totals.n.T)
    assert totals.n[0, 1] == totals.n_host[0, 1] + totals.n_host[1, 0]


def test_count_matrices_reject_bad_input():
    good = np.zeros((3, 3))
    with pytest.raises(NegativeCountError):
        bad = good.copy()
        bad[0, 1] = -1
        CountMatrices(a_home=bad, a_away=good, t_home=good)
    with pytest.raises(ShapeError):
        CountMatrices(a_home=np.zeros((2, 3)), a_away=good, t_home=good)
    with pytest.raises(ShapeError):
        diag = good.copy()
        diag[1, 1] = 2
        CountMatrices(a_home=diag, a_away=good, t_home=good)


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
    assert data.index_of("B") == 1
    assert data.scores.tolist() == [1.0, 1.0]


def test_venue_free_ties_must_be_symmetric():
    a = np.array([[0, 1], [1, 0]], dtype=float)
    ties = np.array([[0, 1], [0, 0]], dtype=float)
    with pytest.raises(ShapeError):
        btrank.venue_free_dataset(("A", "B"), a, ties)


def test_dataset_arrays_are_read_only(four_teams):
    with pytest.raises(ValueError):
        four_teams.counts.a_home[0, 1] = 5.0
    with pytest.raises(ValueError):
        four_teams.totals.a[0, 1] = 5.0


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
