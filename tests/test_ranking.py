import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btrank import ranking
from btrank.errors import ConfigError, ExistenceError, NoTiesError
from btrank.ranking import (
    extract_ranking,
    kendall_distance,
    merit_table,
    monotone_ratio_check,
    pct_table,
    score_ranking,
    select_seeds,
    sweep_epsilon,
)
from btrank.solver import fit
from btrank.types import (
    ConnerGrant,
    Improved,
    MatrixShift,
    Model,
    ModelSpec,
    Normalization,
    Ranking,
    venue_free_dataset,
)

from conftest import names
from oracles import kendall_distance_by_pairs


def bt_spec(perturbation=Improved(0.5), normalization=Normalization.REFERENCE):
    return ModelSpec(
        model=Model.BRADLEY_TERRY,
        perturbation=perturbation,
        normalization=normalization,
    )


@pytest.fixture
def cycle3():
    """A perfectly symmetric 3-cycle, so every team earns the same merit."""
    a = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    return venue_free_dataset(names(3), a)


def test_ranking_from_a_fit(four_teams):
    result = fit(bt_spec(), four_teams)
    ranking = extract_ranking(result)
    assert ranking.order == (0, 1, 3, 2)
    assert ranking.describe() == "1 > 2 > 4 > 3"
    assert all(len(g) == 1 for g in ranking.groups)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9, True])
def test_extract_ranking_refuses_a_bad_rank_tol(four_teams, bad):
    result = fit(bt_spec(), four_teams)
    with pytest.raises(ConfigError, match=f"rank_tol must be a finite number >= 0, got {bad!r}"):
        extract_ranking(result, rank_tol=bad)
    assert extract_ranking(result, rank_tol=0).describe() == "1 > 2 > 4 > 3"


def test_symmetric_data_collapse_to_one_group(cycle3):
    result = fit(bt_spec(), cycle3)
    ranking = extract_ranking(result)
    assert ranking.groups == ((0, 1, 2),)
    assert ranking.describe() == "{T1 = T2 = T3}"


def test_ranking_ignores_the_normalization(four_teams):
    reference = extract_ranking(fit(bt_spec(), four_teams))
    simplex = extract_ranking(
        fit(bt_spec(normalization=Normalization.SIMPLEX), four_teams)
    )
    assert reference.order == simplex.order
    assert reference.groups == simplex.groups


def test_score_ranking_groups_equal_scores(four_teams):
    ranking = score_ranking(four_teams)
    assert ranking.order == (0, 3, 1, 2)
    assert ranking.groups == ((0,), (3,), (1, 2))
    assert ranking.describe() == "1 > 4 > {2 = 3}"


def test_score_ranking_with_no_games_is_one_big_tie():
    data = venue_free_dataset(names(3), np.zeros((3, 3)))
    ranking = score_ranking(data)
    assert ranking.groups == ((0, 1, 2),)


def test_kendall_distance_counts_swapped_pairs():
    forward = score_ranking(
        venue_free_dataset(names(3), np.array([[0, 2, 2], [0, 0, 1], [0, 0, 0]]))
    )
    backward = score_ranking(
        venue_free_dataset(names(3), np.array([[0, 0, 0], [1, 0, 0], [2, 2, 0]]))
    )
    assert kendall_distance(forward, forward) == 0
    assert kendall_distance(forward, backward) == 3
    other = score_ranking(venue_free_dataset(("X", "Y", "Z"), np.zeros((3, 3))))
    with pytest.raises(ConfigError):
        kendall_distance(forward, other)


def _leader_groups(values, tol):
    """The grouping rule walked one team at a time: teams in descending
    order (index ascending on exact ties), each joining the current group
    unless it lies more than ``tol`` from the group's first team."""
    order = sorted(range(len(values)), key=lambda k: (-values[k], k))
    groups = []
    for k in order:
        if groups and not abs(values[k] - values[groups[-1][0]]) > tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return tuple(order), [tuple(group) for group in groups]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    values=st.lists(
        st.sampled_from([0.0, 1e-10, 6e-10, 1.2e-9, 0.3, 0.6, 0.9])
        | st.floats(-2.0, 2.0, allow_subnormal=False),
        min_size=1,
        max_size=30,
    ),
    tol=st.sampled_from([0.0, 1e-9, 0.5]),
)
@example(values=[0.3, -1.2, 1.9, 0.6, -0.2, 1.1, -1.8, 0.0], tol=1e-9)  # all distinct
@example(values=[0.3, -1.2, 1.9, 0.6, -0.2, 1.1, -1.8, 0.0], tol=0.5)  # the same, in groups
def test_grouped_order_follows_the_group_leader_rule(values, tol):
    # exact ties, and chains of gaps within tol whose ends lie beyond it
    order, groups = ranking._grouped_order(np.array(values), tol)
    assert (order, groups) == _leader_groups(values, tol)
    assert {type(k) for group in groups for k in group} == {int}


@st.composite
def ranking_pairs(draw):
    """Two rankings of the same 1 to 40 teams, in independent random orders."""
    t = draw(st.integers(1, 40))
    teams = names(t)

    def ranking():
        order = draw(st.permutations(range(t)))
        return Ranking(teams=teams, order=order, groups=tuple((k,) for k in order))

    return ranking(), ranking()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(pair=ranking_pairs())
def test_kendall_distance_matches_the_pairwise_loop(pair):
    first, second = pair
    distance = kendall_distance(first, second)
    assert type(distance) is int
    assert distance == kendall_distance_by_pairs(first, second)
    assert kendall_distance(second, first) == distance


def test_kendall_distance_allocates_far_less_than_a_pairwise_array():
    # comparing every pair of positions took three t x t boolean arrays,
    # 48 MB at t = 4000
    t = 4000
    order = np.random.default_rng(0).permutation(t).tolist()
    first, second = (
        Ranking(teams=names(t), order=o, groups=tuple((k,) for k in o))
        for o in (order, order[::-1])
    )
    tracemalloc.start()
    try:
        distance = kendall_distance(first, second)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert distance == t * (t - 1) // 2
    assert peak < t * t / 16


def test_sweep_is_stable_on_clean_data(ten_teams):
    sweep = sweep_epsilon(bt_spec(), ten_teams, [0.3162, 0.8, 2.0])
    assert sweep.stable
    assert len(sweep) == 3
    assert sweep.epsilons == (0.3162, 0.8, 2.0)
    assert all(all(d == 0 for d in row) for row in sweep.kendall_distances)
    orders = {entry.ranking.order for entry in sweep}
    assert len(orders) == 1


def test_sweep_reports_instability(four_teams):
    # adding weight to every pair, met or not, moves team 4 past team 2
    # once the weight is large enough
    sweep = sweep_epsilon(bt_spec(ConnerGrant(0.1)), four_teams, [0.1, 0.5])
    assert not sweep.stable
    assert sweep.entries[0].ranking.order == (0, 1, 3, 2)
    assert sweep.entries[1].ranking.order == (0, 3, 1, 2)
    assert sweep.kendall_distances[0][1] == 1
    assert sweep.kendall_distances[1][0] == 1


def test_sweep_with_one_epsilon(four_teams):
    sweep = sweep_epsilon(bt_spec(), four_teams, [0.5])
    assert sweep.stable
    assert sweep.kendall_distances == ((0,),)


def test_sweep_annotates_fit_errors(four_teams):
    islands = venue_free_dataset(
        names(4),
        np.array([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]),
    )
    with pytest.raises(ExistenceError, match="epsilon 0.5:") as info:
        sweep_epsilon(bt_spec(), islands, [0.5, 1.0])
    assert info.value.witness is not None
    rk = ModelSpec(model=Model.RAO_KUPPER, perturbation=Improved(0.5))
    with pytest.raises(NoTiesError, match="epsilon 0.25:"):
        sweep_epsilon(rk, four_teams, [0.25])


def test_sweep_rejects_matrix_shift_and_empty_grids(four_teams):
    with pytest.raises(ConfigError, match="no epsilon to sweep"):
        sweep_epsilon(bt_spec(MatrixShift(np.zeros((4, 4)))), four_teams, [0.5])
    with pytest.raises(ConfigError, match="empty"):
        sweep_epsilon(bt_spec(), four_teams, [])


def test_unsorted_sweep_keeps_grid_order_and_matches_standalone_fits(ten_teams):
    grid = [1.0, 0.05, 2.0, 0.5]
    sweep = sweep_epsilon(bt_spec(), ten_teams, grid)
    assert sweep.epsilons == tuple(grid)
    for epsilon, entry in zip(grid, sweep):
        alone = fit(bt_spec(Improved(epsilon)), ten_teams)
        assert entry.epsilon == epsilon
        assert entry.ranking.order == extract_ranking(alone).order
        assert entry.fit.log_likelihood == alone.log_likelihood
        assert np.array_equal(entry.fit.beta, alone.beta)
        assert entry.fit.trace == alone.trace


def test_adjacent_merit_ratios_shrink_with_epsilon(four_teams):
    sweep = sweep_epsilon(
        bt_spec(Improved(0.5)), four_teams, [2.0, 0.001, 0.01, 0.1, 0.5, 1.0]
    )
    report = monotone_ratio_check(sweep)
    assert report.epsilons == (0.001, 0.01, 0.1, 0.5, 1.0, 2.0)
    assert report.sweep_stable
    assert report.all_non_increasing
    top = report.trends[0]
    assert (top.better, top.worse) == ("1", "2")
    assert top.ratios[0] == pytest.approx(2.0, rel=1e-2)
    assert top.ratios[-1] == pytest.approx(4.0 / 3.0, rel=1e-2)


def test_flat_ratios_count_as_non_increasing(cycle3):
    sweep = sweep_epsilon(bt_spec(), cycle3, [0.1, 1.0])
    report = monotone_ratio_check(sweep)
    assert report.all_non_increasing
    for trend in report.trends:
        assert trend.ratios == pytest.approx((1.0, 1.0))


def test_merit_table_keys_follow_the_team_order(four_teams):
    result = fit(bt_spec(), four_teams)
    table = merit_table(result)
    assert list(table) == ["1", "2", "3", "4"]
    assert table["1"] == 1.0


def test_pct_table(four_teams):
    table = pct_table(four_teams)
    assert table["1"] == pytest.approx(0.75)
    assert table["2"] == pytest.approx(1.0 / 3.0)
    assert table["3"] == pytest.approx(1.0 / 3.0)
    assert table["4"] == pytest.approx(0.5)


def test_pct_table_counts_ties_as_half():
    a = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    ties = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    data = venue_free_dataset(names(3), a, ties)
    table = pct_table(data)
    assert table["T1"] == pytest.approx(0.75)
    assert table["T2"] == pytest.approx(0.25)
    assert table["T3"] == 0.0  # never played


def test_select_seeds_division_winners_then_wild_cards():
    values = {"E1": 4.0, "E2": 3.0, "W1": 2.0, "W2": 1.0}
    table = select_seeds(
        values,
        conferences={"League": {"East": ["E1", "E2"], "West": ["W1", "W2"]}},
        seeds_per_conference=3,
    )
    entries = table.conference("League")
    assert [e.team for e in entries] == ["E1", "W1", "E2"]
    assert [e.seed for e in entries] == [1, 2, 3]
    assert [e.division_winner for e in entries] == [True, True, False]
    # E2 outranks W1 on value but W1 won its division, so W1 seeds higher
    assert entries[1].value < entries[2].value
    assert table.to_dict()["League"][2]["team"] == "E2"
    with pytest.raises(KeyError):
        table.conference("Nowhere")


def test_select_seeds_breaks_exact_ties_by_name():
    values = {"B": 1.0, "A": 1.0, "C": 1.0, "D": 0.5}
    table = select_seeds(
        values,
        conferences={"L": {"D1": ["B", "A"], "D2": ["C", "D"]}},
        seeds_per_conference=3,
    )
    entries = table.conference("L")
    assert [e.team for e in entries] == ["A", "C", "B"]


def test_select_seeds_validation():
    values = {"A": 2.0, "B": 1.0}
    good = {"L": {"D1": ["A"], "D2": ["B"]}}
    with pytest.raises(ConfigError, match="seeds_per_conference"):
        select_seeds(values, good, 1)
    with pytest.raises(ConfigError, match="no teams"):
        select_seeds(values, {"L": {"D1": ["A"], "D2": []}}, 2)
    with pytest.raises(ConfigError, match="more than one division"):
        select_seeds(values, {"L": {"D1": ["A"], "D2": ["A"]}}, 2)
    with pytest.raises(ConfigError, match="more than one division"):
        select_seeds(values, {"L": {"D1": ["A"]}, "M": {"D1": ["A"]}}, 1)
    with pytest.raises(ConfigError, match="no comparison value"):
        select_seeds({"A": 2.0}, good, 2)
    with pytest.raises(ConfigError, match="too few"):
        select_seeds(values, good, 3)


@pytest.mark.parametrize("bad", [2.5, True, 0, -1, "2", None])
def test_select_seeds_refuses_a_non_integer_seed_count(bad):
    values = {"A": 2.0, "B": 1.0, "C": 0.5}
    with pytest.raises(ConfigError, match=f"integer >= 1, got {bad!r}"):
        select_seeds(values, {"L": {"D1": ["A", "B"], "D2": ["C"]}}, bad)


def test_select_seeds_accepts_a_numpy_integer_seed_count():
    values = {"A": 2.0, "B": 1.0, "C": 0.5}
    table = select_seeds(values, {"L": {"D1": ["A", "B"], "D2": ["C"]}}, np.int64(3))
    assert [e.team for e in table.conference("L")] == ["A", "C", "B"]


def test_select_seeds_takes_one_winner_per_division():
    # conferences with 3 and 2 divisions seed 3 and 2 division winners
    values = {name: float(k) for k, name in enumerate("ABCDEFGHIJ")}
    conferences = {
        "X": {"D1": ["A", "B"], "D2": ["C", "D"], "D3": ["E", "F"]},
        "Y": {"D4": ["G", "H"], "D5": ["I", "J"]},
    }
    table = select_seeds(values, conferences, 4)
    x, y = table.conference("X"), table.conference("Y")
    assert [e.team for e in x] == ["F", "D", "B", "E"]
    assert [e.division_winner for e in x] == [True, True, True, False]
    assert [e.team for e in y] == ["J", "H", "I", "G"]
    assert [e.division_winner for e in y] == [True, True, False, False]
    assert [e.seed for e in y] == [1, 2, 3, 4]
    with pytest.raises(ConfigError, match="seeds_per_conference=2"):
        select_seeds(values, conferences, 2)
    with pytest.raises(ConfigError, match="0 divisions"):
        select_seeds(values, {**conferences, "Z": {}}, 4)


def test_select_seeds_handles_multiple_conferences():
    values = {name: float(k) for k, name in enumerate("ABCDEFGH")}
    conferences = {
        "X": {"D1": ["A", "B"], "D2": ["C", "D"]},
        "Y": {"D3": ["E", "F"], "D4": ["G", "H"]},
    }
    table = select_seeds(values, conferences, 3)
    assert [e.team for e in table.conference("X")] == ["D", "B", "C"]
    assert [e.team for e in table.conference("Y")] == ["H", "F", "G"]
    # division names are scoped by conference
    renamed = {"X": conferences["X"], "Y": {"D1": ["E", "F"], "D2": ["G", "H"]}}
    y = select_seeds(values, renamed, 3).conference("Y")
    assert [(e.team, e.division) for e in y] == [("H", "D2"), ("F", "D1"), ("G", "D2")]


def test_an_empty_division_is_named_with_its_conference():
    values = {"A": 2.0, "B": 1.0, "C": 0.5}
    conferences = {"AFC": {"East": ["A"], "West": ["B"]}, "NFC": {"East": [], "West": ["C"]}}
    with pytest.raises(ConfigError) as info:
        select_seeds(values, conferences, 2)
    assert str(info.value) == "division 'East' of conference 'NFC' has no teams"
