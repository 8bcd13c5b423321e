"""Rankings and what to do with them.

extract_ranking turns a FitResult into an ordered partition of the teams,
sweep_epsilon refits one model over a grid of perturbation sizes and reports
whether the ranking moved, monotone_ratio_check inspects how adjacent merit
ratios respond to the perturbation size, score_ranking orders by raw win
scores, and select_seeds applies a division-winners-then-wild-cards playoff
seeding rule.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import BtrankError, ConfigError, ExistenceError
from .solver import SolverConfig, fit
from .types import (
    RANK_TOL,
    Array,
    Dataset,
    FitResult,
    MatrixShift,
    ModelSpec,
    Ranking,
    is_integer,
)


def _grouped_order(values: Array, tol: float) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Sort indices by value descending (index ascending on exact ties) and
    split into groups whose values sit within ``tol`` of the group leader."""
    values = np.asarray(values, dtype=float)
    order = tuple(int(i) for i in np.lexsort((np.arange(len(values)), -values)))
    groups: list[tuple[int, ...]] = []
    current: list[int] = []
    anchor = 0.0
    for idx in order:
        if current and abs(values[idx] - anchor) > tol:
            groups.append(tuple(current))
            current = []
        if not current:
            anchor = float(values[idx])
        current.append(idx)
    if current:
        groups.append(tuple(current))
    return order, groups


def extract_ranking(result: FitResult, rank_tol: float = RANK_TOL) -> Ranking:
    """Order the teams of a fit best to worst.

    Tie groups collect teams whose log-merits differ by at most ``rank_tol``,
    which makes the ranking independent of the merit normalization. The fit
    should be a converged one; an unconverged result still produces a
    ranking, of whatever the solver last had.
    """
    order, groups = _grouped_order(result.beta, rank_tol)
    return Ranking(teams=result.teams, order=order, groups=tuple(groups))


def score_ranking(dataset: Dataset) -> Ranking:
    """Rank by raw win scores a_i, equal scores grouped as ties."""
    order, groups = _grouped_order(dataset.scores, 0.0)
    return Ranking(teams=dataset.teams, order=order, groups=tuple(groups))


def kendall_distance(first: Ranking, second: Ranking) -> int:
    """Number of team pairs the two rankings order oppositely."""
    if first.teams != second.teams:
        raise ConfigError("rankings cover different teams")
    pos_a, pos_b = np.argsort(first.order), np.argsort(second.order)
    # discordant where the position differences differ in sign; each pair counts twice
    return int(np.count_nonzero((pos_a[:, None] < pos_a) != (pos_b[:, None] < pos_b))) // 2


@dataclass(frozen=True)
class SweepEntry:
    epsilon: float
    fit: FitResult
    ranking: Ranking


@dataclass(frozen=True)
class SweepResult:
    """One fit per perturbation size, plus a stability verdict.

    ``stable`` is true when every entry produces the identical team order.
    ``kendall_distances[p][q]`` counts the pairs ordered oppositely by
    entries p and q, so a stable sweep has an all-zero matrix.
    """

    entries: tuple[SweepEntry, ...]
    stable: bool
    kendall_distances: tuple[tuple[int, ...], ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def epsilons(self) -> tuple[float, ...]:
        return tuple(e.epsilon for e in self.entries)


def _annotated(err: BtrankError, epsilon: float) -> BtrankError:
    message = f"epsilon {epsilon:g}: {err}"
    if isinstance(err, ExistenceError):
        return ExistenceError(message, witness=err.witness)
    return type(err)(message)


def sweep_epsilon(
    model_spec: ModelSpec,
    dataset: Dataset,
    epsilons: Sequence[float],
    config: SolverConfig | None = None,
) -> SweepResult:
    """Refit one model across a grid of perturbation sizes.

    The model spec's perturbation scheme is reused with each epsilon in
    turn, so it must be a scheme parameterized by epsilon (a matrix shift is
    refused). Fit errors are re-raised annotated with the offending epsilon.
    Entries follow grid order.
    """
    if isinstance(model_spec.perturbation, MatrixShift):
        raise ConfigError("a matrix shift has no epsilon to sweep")
    if len(epsilons) == 0:
        raise ConfigError("empty epsilon grid")

    def one(epsilon: float) -> SweepEntry:
        spec = dataclasses.replace(
            model_spec,
            perturbation=dataclasses.replace(
                model_spec.perturbation, epsilon=float(epsilon)
            ),
        )
        try:
            result = fit(spec, dataset, config)
        except BtrankError as err:
            raise _annotated(err, epsilon) from err
        return SweepEntry(
            epsilon=float(epsilon), fit=result, ranking=extract_ranking(result)
        )

    entries = tuple(one(e) for e in epsilons)

    orders = [entry.ranking.order for entry in entries]
    stable = all(order == orders[0] for order in orders)
    m = len(entries)
    distances = np.zeros((m, m), dtype=int)
    for p, q in zip(*np.triu_indices(m, 1)):
        distances[p, q] = distances[q, p] = kendall_distance(entries[p].ranking, entries[q].ranking)
    kendall = tuple(map(tuple, distances.tolist()))
    return SweepResult(entries=entries, stable=stable, kendall_distances=kendall)


@dataclass(frozen=True)
class RatioTrend:
    """Merit ratio of one adjacent-in-ranking team pair across the sweep."""

    better: str
    worse: str
    ratios: tuple[float, ...]
    non_increasing: bool


@dataclass(frozen=True)
class MonotoneRatioReport:
    epsilons: tuple[float, ...]
    sweep_stable: bool
    trends: tuple[RatioTrend, ...]
    all_non_increasing: bool


def monotone_ratio_check(sweep: SweepResult) -> MonotoneRatioReport:
    """Report how adjacent merit ratios respond to the perturbation size.

    For each pair of teams adjacent in the smallest-epsilon ranking, the
    ratio of their merits is tracked across the sweep (sorted by epsilon
    ascending) and flagged as non-increasing or not. This is an observed
    regularity, so the outcome is reported rather than enforced.
    """
    entries = sorted(sweep.entries, key=lambda e: e.epsilon)
    base = entries[0].ranking
    slack = 1e-9
    trends = []
    for k in range(len(base.order) - 1):
        i, j = base.order[k], base.order[k + 1]
        ratios = tuple(
            float(e.fit.merits_u[i] / e.fit.merits_u[j]) for e in entries
        )
        ok = all(
            ratios[m + 1] <= ratios[m] * (1.0 + slack) + slack
            for m in range(len(ratios) - 1)
        )
        trends.append(
            RatioTrend(
                better=base.teams[i],
                worse=base.teams[j],
                ratios=ratios,
                non_increasing=ok,
            )
        )
    return MonotoneRatioReport(
        epsilons=tuple(e.epsilon for e in entries),
        sweep_stable=sweep.stable,
        trends=tuple(trends),
        all_non_increasing=all(t.non_increasing for t in trends),
    )


def merit_table(result: FitResult) -> dict[str, float]:
    """Team -> fitted merit, in the result's normalization."""
    return {team: float(u) for team, u in zip(result.teams, result.merits_u)}


def pct_table(dataset: Dataset) -> dict[str, float]:
    """Team -> winning percentage (w + ties/2) / games, 0.0 when no games."""
    counts, totals, t = dataset.counts, dataset.totals, dataset.num_teams

    def per_team(weights):  # a per-edge count shared by both ends
        return np.bincount(counts.i, weights, t) + np.bincount(counts.j, weights, t)

    wins, ties, games = dataset.scores, per_team(totals[2]), per_team(totals.sum(axis=0))
    out = {}
    for k, team in enumerate(dataset.teams):
        out[team] = float((wins[k] + ties[k] / 2.0) / games[k]) if games[k] > 0 else 0.0
    return out


@dataclass(frozen=True)
class SeedEntry:
    seed: int
    team: str
    division: str
    value: float
    division_winner: bool


@dataclass(frozen=True)
class SeedTable:
    """Per-conference playoff seeds, best seed first."""

    conferences: tuple[tuple[str, tuple[SeedEntry, ...]], ...]

    def conference(self, name: str) -> tuple[SeedEntry, ...]:
        for conf, entries in self.conferences:
            if conf == name:
                return entries
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            conf: [
                {
                    "seed": e.seed,
                    "team": e.team,
                    "division": e.division,
                    "value": e.value,
                    "division_winner": e.division_winner,
                }
                for e in entries
            ]
            for conf, entries in self.conferences
        }


def select_seeds(
    values: Mapping[str, float],
    divisions: Mapping[str, Sequence[str]],
    conferences: Mapping[str, Sequence[str]],
    seeds_per_conference: int = 6,
) -> SeedTable:
    """Seed each conference: division winners first, then wild cards.

    ``divisions`` maps a division name to its teams, ``conferences`` maps a
    conference name to its division names, and ``values`` supplies the
    comparison key, a team -> number mapping with larger meaning better
    (``merit_table`` of a fit, or ``pct_table``). Within each conference
    the best team of each division takes one of the top seeds, ordered by
    value, so a conference needs between 1 and ``seeds_per_conference``
    divisions; the best remaining teams fill the seeds up to
    ``seeds_per_conference``. Exact value ties break by team name.
    ``seeds_per_conference`` is an integer >= 1 (bools refused).
    """
    if not is_integer(seeds_per_conference) or seeds_per_conference < 1:
        raise ConfigError(
            f"seeds_per_conference must be an integer >= 1, got {seeds_per_conference!r}"
        )
    table = dict(values)
    for conf, div_names in conferences.items():
        if not 1 <= len(div_names) <= seeds_per_conference:
            raise ConfigError(
                f"conference {conf!r} has {len(div_names)} divisions; each "
                "conference needs between 1 and seeds_per_conference="
                f"{seeds_per_conference}, one seed per division winner"
            )

    seen_teams: set[str] = set()
    for div, teams in divisions.items():
        if len(teams) == 0:
            raise ConfigError(f"division {div!r} has no teams")
        for team in teams:
            if team in seen_teams:
                raise ConfigError(f"team {team!r} appears in more than one division")
            seen_teams.add(team)
            if team not in table:
                raise ConfigError(f"no comparison value for team {team!r}")

    assigned: set[str] = set()
    for conf, div_names in conferences.items():
        for div in div_names:
            if div not in divisions:
                raise ConfigError(f"conference {conf!r} references unknown division {div!r}")
            if div in assigned:
                raise ConfigError(f"division {div!r} appears in more than one conference")
            assigned.add(div)
    unassigned = set(divisions) - assigned
    if unassigned:
        raise ConfigError(f"divisions not in any conference: {sorted(unassigned)}")

    def sort_key(team: str):
        return (-table[team], team)

    result = []
    for conf, div_names in conferences.items():
        winners = []
        others = []
        for div in div_names:
            teams = sorted(divisions[div], key=sort_key)
            winners.append((teams[0], div))
            others.extend((team, div) for team in teams[1:])
        total = len(winners) + len(others)
        if seeds_per_conference > total:
            raise ConfigError(
                f"conference {conf!r} has {total} teams, too few for "
                f"{seeds_per_conference} seeds"
            )
        winners.sort(key=lambda pair: sort_key(pair[0]))
        others.sort(key=lambda pair: sort_key(pair[0]))
        seeded = winners + others[: seeds_per_conference - len(winners)]
        entries = tuple(
            SeedEntry(
                seed=seed,
                team=team,
                division=div,
                value=float(table[team]),
                division_winner=seed <= len(winners),
            )
            for seed, (team, div) in enumerate(seeded, start=1)
        )
        result.append((conf, entries))
    return SeedTable(conferences=tuple(result))
