"""Seeded input generators for the benchmark workloads (numpy and stdlib only).

Every generator returns plain data: CSV text in the ``home,away,outcome``
record format plus the planted log-merits and the game arrays the checks
need. The same seed always gives the same inputs.

The tournaments behind ``sparse-league``, ``crowd-cli`` and
``extended-models`` are pinned: they are drawn once from ``BASE_SEED``, and
the workload seed only chooses the team labels (:func:`present`). Between
tournaments of the same size the solvers' iteration counts swing by factors
of 2 to 5, and merely reordering the records moves the final gradient of the
ascent-fitted models between 1e-8 and 1e-6, so anything more than a
relabelling would make the end-to-end metrics move with the seed rather than
with the code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HOME_WIN, AWAY_WIN, TIE = 0, 1, 2
_OUTCOME_TOKENS = ("home_win", "away_win", "tie")


@dataclass(frozen=True)
class Games:
    """Generated games: team names, planted log-merits, and one row per game."""

    teams: tuple[str, ...]
    beta: np.ndarray
    home: np.ndarray
    away: np.ndarray
    outcome: np.ndarray

    def csv_text(self) -> str:
        names = self.teams
        rows = [
            f"{names[h]},{names[v]},{_OUTCOME_TOKENS[o]}"
            for h, v, o in zip(self.home.tolist(), self.away.tolist(), self.outcome.tolist())
        ]
        return "home,away,outcome\n" + "\n".join(rows) + "\n"

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Venue-split counts ``(a_home, a_away, t_home)`` in ``teams`` order."""
        t = len(self.teams)
        a_home = np.zeros((t, t))
        a_away = np.zeros((t, t))
        t_home = np.zeros((t, t))
        for code, target, rows, cols in (
            (HOME_WIN, a_home, self.home, self.away),
            (AWAY_WIN, a_away, self.away, self.home),
            (TIE, t_home, self.home, self.away),
        ):
            mask = self.outcome == code
            np.add.at(target, (rows[mask], cols[mask]), 1.0)
        return a_home, a_away, t_home


BASE_SEED = 0

SPARSE_TEAMS = 400
CROWD_ITEMS, CROWD_ROWS = 300, 150_000
VENUE_TEAMS = 14


def _names(prefix: str, t: int) -> tuple[str, ...]:
    width = len(str(t))
    return tuple(f"{prefix}{k:0{width}d}" for k in range(t))


def _planted(rng: np.random.Generator, t: int, spread: float) -> np.ndarray:
    """Evenly spaced log-merits on [-spread, spread] in random team order."""
    return rng.permutation(np.linspace(-spread, spread, t))


def ring_with_chords(rng: np.random.Generator, t: int, opponents: int) -> np.ndarray:
    """Unordered pairs ``(i, j)``, i < j: a ring plus random chords, so every
    team meets about ``opponents`` others and the meeting graph is connected."""
    pairs = {(min(i, (i + 1) % t), max(i, (i + 1) % t)) for i in range(t)}
    target = t * opponents // 2
    while len(pairs) < target:
        i, j = (int(x) for x in rng.integers(0, t, 2))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return np.array(sorted(pairs), dtype=np.int64)


def _home_and_away(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hosts and visitors when every pair meets once at each venue, so the
    hosting digraph is strongly connected."""
    hosts = np.concatenate([pairs[:, 0], pairs[:, 1]])
    visitors = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return hosts, visitors


def sparse_league(seed: int, t: int, opponents: int = 6) -> Games:
    """A home-and-away league on a ring plus random chords, decided by plain
    Bradley-Terry with planted merits. Conditions B and C hold by construction."""
    rng = np.random.default_rng([seed, 1, t])
    beta = _planted(rng, t, 1.5)
    home, away = _home_and_away(ring_with_chords(rng, t, opponents))
    p_home = 1.0 / (1.0 + np.exp(beta[away] - beta[home]))
    outcome = np.where(rng.random(len(home)) < p_home, HOME_WIN, AWAY_WIN)
    return Games(_names("T", t), beta, home, away, outcome)


def crowd(seed: int, items: int, rows: int) -> Games:
    """Crowd comparisons: uniformly random pairs of distinct items, decided by
    Bradley-Terry with planted merits; the first-listed item is the "home" one."""
    rng = np.random.default_rng([seed, 2, items])
    beta = _planted(rng, items, 2.0)
    first = rng.integers(0, items, rows)
    second = (first + rng.integers(1, items, rows)) % items
    p_first = 1.0 / (1.0 + np.exp(beta[second] - beta[first]))
    outcome = np.where(rng.random(rows) < p_first, HOME_WIN, AWAY_WIN)
    return Games(_names("I", items), beta, first, second, outcome)


def venue_league(seed: int, t: int, opponents: int = 8) -> Games:
    """A home-and-away league with ties, decided by David's model with home
    multiplier 1.3 and tie weight 0.35, so about a tenth of games tie."""
    rng = np.random.default_rng([seed, 3, t])
    beta = _planted(rng, t, 1.0)
    home, away = _home_and_away(ring_with_chords(rng, t, opponents))
    w_home = 1.3 * np.exp(beta[home])
    w_away = np.exp(beta[away])
    w_tie = 0.35 * np.exp((beta[home] + beta[away]) / 2.0)
    total = w_home + w_away + w_tie
    draw = rng.random(len(home)) * total
    outcome = np.where(draw < w_home, HOME_WIN, np.where(draw < w_home + w_away, AWAY_WIN, TIE))
    return Games(_names("V", t), beta, home, away, outcome)


def present(games: Games, seed: int) -> Games:
    """The same games, in the same order, under seed-chosen team labels."""
    rng = np.random.default_rng([seed, 4, len(games.home)])
    labels = tuple(games.teams[k] for k in rng.permutation(len(games.teams)))
    return Games(labels, games.beta, games.home, games.away, games.outcome)


def build(workload: str, seed: int) -> Games:
    """The generated games of one workload, for the pinned tournaments."""
    if workload == "sparse-league":
        return present(sparse_league(BASE_SEED, SPARSE_TEAMS), seed)
    if workload == "crowd-cli":
        return present(crowd(BASE_SEED, CROWD_ITEMS, CROWD_ROWS), seed)
    if workload == "extended-models":
        return present(venue_league(BASE_SEED, VENUE_TEAMS), seed)
    raise ValueError(f"no generated games for workload {workload!r}")
