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
    empty = CountMatrices(3, [], [], np.zeros((3, 2, 0)))  # no edges, nothing to check
    assert empty.games.shape == (3, 2, 0)
    good = np.zeros((3, 3))
    with pytest.raises(NegativeCountError, match="a_away contains a negative count"):
        bad = good.copy()
        bad[0, 1] = -1
        btrank.venue_dataset(names(3), good, bad)
    with pytest.raises(ShapeError, match="a_home must be a square matrix"):
        btrank.venue_dataset(names(3), np.zeros((2, 3)), good)
    with pytest.raises(ShapeError, match="^a_away must be 3x3, got 2x2$"):
        btrank.venue_dataset(names(3), good, np.zeros((2, 2)))
    with pytest.raises(ShapeError, match="^a_away contains non-finite entries$"):
        bad = good.copy()
        bad[0, 1] = np.inf
        btrank.venue_dataset(names(3), good, bad)
    with pytest.raises(ShapeError, match="a must have a zero diagonal"):
        diag = good.copy()
        diag[1, 1] = 2
        btrank.venue_free_dataset(names(3), diag)


NON_FINITE = (ShapeError, "games contains non-finite entries")
NEGATIVE = (NegativeCountError, "games contains a negative count")
NO_GAME = (ShapeError, "every edge needs at least one game")


@pytest.mark.parametrize(
    "defects, refusal",
    [
        ({(0, 0, 1): np.nan}, NON_FINITE),
        ({(1, 1, 0): np.inf}, NON_FINITE),
        ({(2, 0, 2): -np.inf}, NON_FINITE),
        ({(1, 0, 1): -1.0}, NEGATIVE),
        ({(..., 2): 0.0}, NO_GAME),
        ({(..., 2): -0.0}, NO_GAME),  # signed zeros are no game and no negative count
        # each check in turn: non-finite, then negative, then an edge without a game
        ({(0, 0, 0): -1.0, (2, 1, 1): np.nan, (..., 2): 0.0}, NON_FINITE),
        ({(0, 0, 0): np.inf, (2, 1, 1): -2.0}, NON_FINITE),
        ({(0, 0, 0): -np.inf, (..., 2): 0.0}, NON_FINITE),
        ({(..., 1): 0.0, (2, 1, 2): -3.0}, NEGATIVE),
    ],
)
def test_count_checks_keep_their_verdicts_and_their_order(defects, refusal):
    games = np.ones((3, 2, 3))
    for index, value in defects.items():
        games[index] = value
    kind, message = refusal
    with pytest.raises(kind) as info:
        CountMatrices(3, [0, 0, 1], [1, 2, 2], games)
    assert type(info.value) is kind and str(info.value) == message


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
    # a bool is no magnitude: Improved(True) would fit at eps = 1
    for bad in (0.0, -1.0, float("nan"), "bogus", True, np.True_):
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


@pytest.mark.parametrize(
    "fields",
    [
        ("bt", btrank.Improved(0.5)),
        (btrank.Model.BRADLEY_TERRY, 0.5),
        (btrank.Model.BRADLEY_TERRY, None),
        (btrank.Model.BRADLEY_TERRY, btrank.Improved(0.5), "simplex"),
    ],
    ids=["model-name", "bare-epsilon", "no-perturbation", "normalization-name"],
)
def test_model_spec_refuses_fields_of_the_wrong_type(fields):
    with pytest.raises(ConfigError):
        btrank.ModelSpec(*fields)


def test_parameter_point_contract():
    with pytest.raises(ShapeError):
        ParameterPoint(beta=np.array([0.1, 0.2]))
    with pytest.raises(ShapeError, match="^beta must be a vector of length >= 2$"):
        ParameterPoint(beta=[0.0])
    point = ParameterPoint(beta=np.array([0.0, -1.0]), phi=np.log(2.0))
    assert point.theta == pytest.approx(2.0)
    assert point.gamma is None


def test_model_capabilities():
    assert btrank.Model.BRADLEY_TERRY.value == "bt"
    assert btrank.Model.RAO_KUPPER.has_tie_parameter
    assert btrank.Model.DAVIDSON.has_tie_parameter
    assert not btrank.Model.DAVIDSON.has_home_parameter
    assert btrank.Model.HOME_FIELD.has_home_parameter
    assert not btrank.Model.HOME_FIELD.has_tie_parameter
    assert btrank.Model.DAVID.has_tie_parameter and btrank.Model.DAVID.has_home_parameter


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
    numpy_ints = btrank.Ranking(
        teams=("1", "2", "3"), order=np.array([2, 0, 1]), groups=(np.array([2, 0]), [np.int64(1)])
    )
    assert numpy_ints.groups == ((2, 0), (1,)) and numpy_ints.order == (2, 0, 1)
    assert {type(k) for group in numpy_ints.groups for k in group} == {int}


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
    with pytest.raises(ShapeError, match="^result vectors must match the team count$"):
        good.replace(scores=good.scores[:-1])


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


def _records() -> dict[str, tuple[type, dict]]:
    """One valid instance of each public record: its class and its fields,
    in declaration order."""
    counts = {"num_teams": 2, "i": [0], "j": [1], "games": np.ones((3, 2, 1))}
    data = btrank.Dataset(("A", "B"), btrank.CountMatrices(**counts))
    fit = {
        "model": btrank.Model.BRADLEY_TERRY, "teams": ("A", "B"), "merits_u": [1.0, 2.0],
        "beta": [0.0, np.log(2.0)], "theta_hat": None, "gamma_hat": None,
        "log_likelihood": -1.5, "iterations": 3, "converged": True,
        "gradient_sup_norm": 1e-12, "last_step": 1e-10, "trace": (-2.0, -1.5), "scores": [1.0, 1.0],
        "normalization": btrank.Normalization.REFERENCE, "epsilon": 0.1,
    }
    ranking = {"teams": ("A", "B"), "order": (1, 0), "groups": ((1,), (0,))}
    entry = {"epsilon": 0.1, "fit": btrank.FitResult(**fit), "ranking": btrank.Ranking(**ranking)}
    trend = {"better": "B", "worse": "A", "ratios": (2.0,), "non_increasing": True}
    seed = {"seed": 1, "team": "B", "division": "D", "value": 2.0, "division_winner": True}
    table = {key: np.array([value]) for key, value in (("home", 0), ("away", 1), ("outcome", 0))}
    records = {
        "CountMatrices": counts,
        "Dataset": {"teams": ("A", "B"), "counts": data.counts, "venueless": False},
        "Improved": {"epsilon": 0.1},
        "ConnerGrant": {"epsilon": 0.1},
        "MatrixShift": {"a0": np.zeros((2, 2))},
        "PerturbedCounts": {
            **counts, "wins": np.ones((2, 1)), "venueless": False, "epsilon": 0.1,
        },
        "ModelSpec": {
            "model": btrank.Model.DAVIDSON, "perturbation": btrank.Improved(0.1),
            "normalization": btrank.Normalization.SIMPLEX,
        },
        "ParameterPoint": {"beta": [0.0, 1.0], "phi": 0.5, "log_gamma": None},
        "FitResult": fit,
        "Ranking": ranking,
        "PartitionWitness": {"condition": "A", "q1": (0,), "q2": (1,), "detail": "none"},
        "SolverConfig": {"grad_tol": 1e-6, "rel_ll_tol": 1e-12, "max_iters": 50},
        "MapPriorSpec": {"shape": 2.0, "rate": None},
        "SweepEntry": entry,
        "SweepResult": {
            "entries": (btrank.SweepEntry(**entry),), "stable": True, "kendall_distances": ((0,),),
        },
        "RatioTrend": trend,
        "MonotoneRatioReport": {
            "epsilons": (0.1,), "sweep_stable": True, "trends": (btrank.RatioTrend(**trend),),
            "all_non_increasing": True,
        },
        "SeedEntry": seed,
        "SeedTable": {"conferences": (("C", (btrank.SeedEntry(**seed),)),)},
        "ConsistencyConfig": {"t_grid": (4,), "replicas": 2, "n_per_pair": 3, "seed": 1},
        "ConsistencyReport": {
            "t_grid": (4,), "epsilons": (0.5,), "errors": ((0.1,),), "medians": (0.1,),
            "p90": (0.1,),
        },
        "GameTable": {"teams": ("A", "B"), **table, "repeat": np.array([2])},
    }
    return {name: (getattr(btrank, name), fields) for name, fields in records.items()}


RECORDS = _records()
HASHABLE = (
    "ModelSpec", "Improved", "ConnerGrant", "SolverConfig", "MapPriorSpec",
    "ConsistencyConfig", "PartitionWitness",
)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values_built_from_their_fields(name):
    cls, fields = RECORDS[name]
    record = cls(**fields)
    first, *_ = fields
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        delattr(record, first)
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"
    values = [getattr(record, field) for field in fields]
    positional = cls(*values)
    assert repr(positional) == repr(record)
    if name != "SolverConfig":  # every SolverConfig field has a default
        with pytest.raises(TypeError):
            cls(**{key: value for key, value in fields.items() if key != first})
    with pytest.raises(TypeError):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, 1)
    with pytest.raises(TypeError):
        cls(values[0], **fields)
    if name in HASHABLE:
        assert positional == record and hash(positional) == hash(record)
    if name == "GameTable":  # tables compare by identity
        assert positional != record and record == record


def test_records_that_hold_arrays_compare_them_by_value(four_teams, five_teams):
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(0.5))
    result = btrank.fit(spec, four_teams)
    assert result == btrank.fit(spec, four_teams)
    assert result != btrank.fit(spec.replace(perturbation=btrank.Improved(0.4)), four_teams)
    assert result != result.replace(scores=result.scores + 1.0)  # one array field differs
    assert four_teams == btrank.datasets.load_four_teams()
    assert four_teams != five_teams
    counts = four_teams.counts
    same = CountMatrices(counts.num_teams, counts.i.tolist(), counts.j.tolist(), counts.games)
    assert counts == same and not counts != same
    assert counts != CountMatrices(counts.num_teams, counts.i, counts.j, 2 * counts.games)
    fewer = CountMatrices(counts.num_teams, counts.i[1:], counts.j[1:], counts.games[..., 1:])
    assert counts != fewer  # arrays of another shape
    assert four_teams != btrank.Dataset(four_teams.teams, fewer)


def test_records_of_different_classes_differ():
    assert btrank.Improved(0.1) != btrank.ConnerGrant(0.1)
    assert btrank.Improved(0.1) == btrank.Improved(0.1)
    assert btrank.Improved(0.1) != btrank.Improved(0.2)


def test_replace_keeps_the_other_fields_and_validates_again():
    config = btrank.ConsistencyConfig(t_grid=(4, 6), replicas=3, seed=7)
    assert config.replace(t_grid=[5]) == btrank.ConsistencyConfig((5,), 3, 4, 7)
    assert config.replace() == config and config.t_grid == (4, 6)
    with pytest.raises(ConfigError):
        config.replace(t_grid=(2,))
    with pytest.raises(TypeError):
        config.replace(bogus=1)
    spec = btrank.ModelSpec(btrank.Model.HOME_FIELD, btrank.Improved(0.1))
    with pytest.raises(ConfigError):  # the venue models take no matrix shift
        spec.replace(perturbation=btrank.MatrixShift(np.zeros((2, 2))))
    with pytest.raises(NonPositiveEpsilonError):
        spec.perturbation.replace(epsilon=0.0)
    simplex = spec.replace(normalization=btrank.Normalization.SIMPLEX)
    assert (simplex.model, simplex.perturbation) == (spec.model, spec.perturbation)
