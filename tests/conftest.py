"""Shared dataset builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import btrank
from btrank.connectivity import check_condition_a, check_condition_b, check_condition_c


def names(t: int) -> tuple[str, ...]:
    return tuple(f"T{k + 1}" for k in range(t))


def random_connected_dataset(rng, t=6, max_games=3, with_ties=False) -> btrank.Dataset:
    """Venue-free dataset whose comparison graph is connected."""
    while True:
        a = rng.integers(0, max_games + 1, (t, t)).astype(float)
        np.fill_diagonal(a, 0)
        mask = rng.random((t, t)) < 0.45
        a = a * mask
        ties = None
        if with_ties:
            upper = rng.integers(0, 2, (t, t)).astype(float)
            ties = np.triu(upper, 1)
            ties = ties + ties.T
        data = btrank.venue_free_dataset(names(t), a, ties)
        if check_condition_b(data) is None:
            if not with_ties or data.counts.games[2].any():
                return data


def random_strongly_connected_dataset(rng, t=6, max_games=3) -> btrank.Dataset:
    """Venue-free dataset whose win digraph is strongly connected."""
    while True:
        a = rng.integers(0, max_games + 1, (t, t)).astype(float)
        np.fill_diagonal(a, 0)
        mask = rng.random((t, t)) < 0.6
        a = a * mask
        data = btrank.venue_free_dataset(names(t), a)
        if check_condition_a(data) is None:
            return data


def random_venue_dataset(rng, t=5, max_games=3, with_ties=False) -> btrank.Dataset:
    """Venue dataset whose hosting digraph is strongly connected."""
    while True:
        a_home = rng.integers(0, max_games + 1, (t, t)).astype(float)
        a_away = rng.integers(0, max_games + 1, (t, t)).astype(float)
        np.fill_diagonal(a_home, 0)
        np.fill_diagonal(a_away, 0)
        t_home = np.zeros((t, t))
        if with_ties:
            t_home = rng.integers(0, 2, (t, t)).astype(float)
            np.fill_diagonal(t_home, 0)
        data = btrank.venue_dataset(names(t), a_home, a_away, t_home)
        if check_condition_c(data) is None:
            if not with_ties or data.counts.games[2].any():
                return data


def random_balanced_dataset(rng, t=6, n=2) -> btrank.Dataset:
    """Every pair plays exactly n decisive games."""
    a = np.zeros((t, t))
    for i in range(t):
        for j in range(i + 1, t):
            wins = rng.integers(0, n + 1)
            a[i, j] = wins
            a[j, i] = n - wins
    return btrank.venue_free_dataset(names(t), a)


def random_point(objective: btrank.Objective, rng) -> np.ndarray:
    """A free vector with entries uniform in [-1, 1], its Rao-Kupper phi in
    [0.05, 1.5] (inside the tie domain)."""
    x = rng.uniform(-1.0, 1.0, objective.dimension)
    if objective.model is btrank.Model.RAO_KUPPER:
        x[objective.num_teams - 1] = rng.uniform(0.05, 1.5)
    return x


@pytest.fixture
def four_teams() -> btrank.Dataset:
    return btrank.datasets.load_four_teams()


@pytest.fixture
def ten_teams() -> btrank.Dataset:
    return btrank.datasets.load_ten_teams()


@pytest.fixture
def five_teams() -> btrank.Dataset:
    return btrank.datasets.load_five_teams()


@pytest.fixture
def tied_dataset() -> btrank.Dataset:
    """Small venue-free dataset containing ties."""
    a = np.array(
        [
            [0, 2, 1, 0],
            [1, 0, 2, 1],
            [1, 1, 0, 2],
            [1, 0, 1, 0],
        ],
        dtype=float,
    )
    ties = np.zeros((4, 4))
    ties[0, 1] = ties[1, 0] = 1
    ties[2, 3] = ties[3, 2] = 2
    return btrank.venue_free_dataset(("A", "B", "C", "D"), a, ties)


@pytest.fixture
def venue_tied_dataset() -> btrank.Dataset:
    """Venue dataset with ties, hosting digraph strongly connected."""
    rng = np.random.default_rng(42)
    return random_venue_dataset(rng, t=5, with_ties=True)
