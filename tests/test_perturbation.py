import tracemalloc

import numpy as np
import pytest

from btrank.errors import ConfigError, ShapeError
from btrank.ingestion import GameTable, aggregate
from btrank.perturbation import auto_epsilon, perturb, resolve_epsilon
from btrank.types import AUTO_EPSILON, ConnerGrant, Improved, MatrixShift, venue_dataset, venue_free_dataset

from conftest import names
from oracles import dense, dense_perturbed


@pytest.fixture
def venue_data():
    """Four teams; A and B met at both venues, C met A and B once each
    (the B game is a tie), D never played."""
    a_home = np.array(
        [
            [0, 2, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )
    a_away = np.array(
        [
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )
    t_home = np.zeros((4, 4), dtype=int)
    t_home[1, 2] = 1
    return venue_dataset(names(4), a_home, a_away, t_home)


def test_auto_epsilon_magnitudes():
    assert auto_epsilon(32) == pytest.approx(0.329, abs=5e-4)
    assert auto_epsilon(10) == pytest.approx(0.4799, abs=5e-5)
    assert auto_epsilon(2) == pytest.approx(0.5887, abs=5e-5)
    with pytest.raises(ShapeError):
        auto_epsilon(1)


def test_resolve_epsilon():
    assert resolve_epsilon(Improved(0.25), 10) == 0.25
    assert resolve_epsilon(Improved(AUTO_EPSILON), 10) == pytest.approx(0.4799, abs=5e-5)
    assert resolve_epsilon(ConnerGrant("auto"), 32) == pytest.approx(0.329, abs=5e-4)
    assert resolve_epsilon(MatrixShift(np.zeros((3, 3))), 3) is None


def test_improved_venue_free_view_gains_one_epsilon_per_met_pair(venue_data):
    eps = 0.125
    out = dense_perturbed(perturb(venue_data, Improved(eps)))
    gain = out.a_free - dense(venue_data).a
    met = dense(venue_data).n > 0
    assert np.allclose(gain[met], eps)
    assert np.all(gain[~met] == 0.0)
    # A and B met at both venues, yet the venue-free view gains eps once
    assert gain[0, 1] == pytest.approx(eps)
    # a pair whose only meeting was a tie still counts as met
    assert gain[1, 2] == pytest.approx(eps)
    # D never played, so its row and column are untouched
    assert np.all(gain[3] == 0.0)
    assert np.all(gain[:, 3] == 0.0)


def test_improved_venue_split_follows_hosting(venue_data):
    eps = 0.125
    out = dense_perturbed(perturb(venue_data, Improved(eps)))
    n_host = dense(venue_data).n_host
    assert np.allclose(out.a_home - dense(venue_data).a_home, eps * (n_host > 0))
    assert np.allclose(out.a_away - dense(venue_data).a_away, eps * (n_host.T > 0))
    # summing the venue split double-counts pairs that met at both venues,
    # which is exactly why a_free is not that sum
    venue_sum_gain = (out.a_home + out.a_away) - dense(venue_data).a
    assert venue_sum_gain[0, 1] == pytest.approx(2 * eps)
    assert venue_sum_gain[0, 2] == pytest.approx(eps)
    allowed = {0.0, eps, 2 * eps}
    assert {round(float(g), 12) for g in venue_sum_gain.ravel()} <= allowed


def test_conner_grant_touches_every_off_diagonal(venue_data):
    eps = 0.5
    out = dense_perturbed(perturb(venue_data, ConnerGrant(eps)))
    off = ~np.eye(4, dtype=bool)
    for gained, base in (
        (out.a_free, dense(venue_data).a),
        (out.a_home, dense(venue_data).a_home),
        (out.a_away, dense(venue_data).a_away),
    ):
        gain = gained - base
        assert np.allclose(gain[off], eps)
        assert np.all(np.diag(gain) == 0.0)
    # in particular the never-seen team D is now connected to everyone
    assert out.a_free[3, 0] == eps


def test_matrix_shift_adds_the_given_matrix(venue_data):
    a0 = np.array(
        [
            [0.0, 0.3, 0.0, 0.1],
            [0.0, 0.0, 0.2, 0.0],
            [0.0, 0.0, 0.0, 0.4],
            [0.5, 0.0, 0.0, 0.0],
        ]
    )
    assert perturb(venue_data, MatrixShift(a0)).epsilon is None
    out = dense_perturbed(perturb(venue_data, MatrixShift(a0)))
    assert np.allclose(out.a_free, dense(venue_data).a + a0)
    # the games by venue, games[0] and games[1], stay raw
    assert np.array_equal(out.a_home, dense(venue_data).a_home)
    assert np.array_equal(out.a_away, dense(venue_data).a_away)


def test_matrix_shift_of_zeros_is_a_no_op(venue_data):
    out = dense_perturbed(perturb(venue_data, MatrixShift(np.zeros((4, 4)))))
    assert np.array_equal(out.a_free, dense(venue_data).a)
    assert np.array_equal(out.a_home, dense(venue_data).a_home)
    assert np.array_equal(out.a_away, dense(venue_data).a_away)


def test_matrix_shift_shape_must_match(venue_data):
    with pytest.raises(ShapeError):
        perturb(venue_data, MatrixShift(np.zeros((3, 3))))


def test_ties_pass_through_unchanged(venue_data):
    for spec in (Improved(0.3), ConnerGrant(0.3), MatrixShift(np.ones((4, 4)) * 0.1 - 0.1 * np.eye(4))):
        out = dense_perturbed(perturb(venue_data, spec))
        assert np.array_equal(out.t_home, dense(venue_data).t_home)
        assert np.array_equal(out.ties, dense(venue_data).ties)


def test_perturbed_hosting_totals(venue_data):
    eps = 0.25
    out = dense_perturbed(perturb(venue_data, Improved(eps)))
    assert np.allclose(out.n_host, out.a_home + out.a_away.T + out.t_home)
    # hosting that existed keeps existing and gains weight
    raw = dense(venue_data).n_host
    assert np.all((out.n_host > 0) == (raw > 0))


def test_auto_keyword_resolves_at_perturb_time(venue_data):
    out = perturb(venue_data, Improved(AUTO_EPSILON))
    assert out.epsilon == pytest.approx(auto_epsilon(4))


def test_each_scheme_keeps_its_own_edge_list(venue_data):
    def pairs(counts):
        return list(zip(counts.i.tolist(), counts.j.tolist()))

    met = [(0, 1), (0, 2), (1, 2)]
    assert pairs(venue_data.counts) == met
    assert pairs(perturb(venue_data, Improved(0.1))) == met
    assert pairs(perturb(venue_data, ConnerGrant(0.1))) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]
    a0 = np.zeros((4, 4))
    a0[3, 1] = -0.5  # an unmet pair, named from its higher index
    shifted = perturb(venue_data, MatrixShift(a0))
    assert pairs(shifted) == [(0, 1), (0, 2), (1, 2), (1, 3)]
    # wins of 1 over 3, then of 3 over 1; the pair played no game
    assert shifted.wins[:, 3].tolist() == [0.0, -0.5]
    assert not shifted.games[:, :, 3].any()


@pytest.mark.parametrize("spec", [Improved(0.3), ConnerGrant(0.3)], ids=["improved", "conner-grant"])
def test_venueless_data_gain_eps_on_their_wins_alone(spec):
    a = np.array([[0, 2, 0], [1, 0, 0], [0, 3, 0]])
    ties = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    data = venue_free_dataset(names(3), a, ties)
    out, raw = dense_perturbed(perturb(data, spec)), dense(data)
    for name in ("a_home", "a_away", "t_home"):
        assert np.array_equal(getattr(out, name), getattr(raw, name))
    lifted = raw.n > 0 if isinstance(spec, Improved) else ~np.eye(3, dtype=bool)
    assert np.array_equal(out.a_free, raw.a + 0.3 * lifted)


def test_an_unknown_scheme_is_refused(venue_data):
    with pytest.raises(TypeError, match="^unknown perturbation spec 0.5$"):
        perturb(venue_data, 0.5)


def test_conner_grant_above_5000_teams_is_refused_before_any_dense_array():
    # A path league, built from records so that no t x t array precedes
    # the refusal either.
    t = 5_001
    home = np.arange(t - 1)
    data = aggregate(GameTable(names(t), home, home + 1, np.zeros(t - 1), np.ones(t - 1)))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            perturb(data, ConnerGrant(0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "ConnerGrant on 5001 teams makes all 12502500 pairs edges, about 2.5 GB to fit; "
        "it takes at most 5000 teams"
    )
    assert peak < t * t // 100
