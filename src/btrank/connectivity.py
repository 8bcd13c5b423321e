"""Connectivity diagnostics for paired-comparison data, and the existence
rule every fit applies.

Three graphs are read off a dataset's edge list:

* the win digraph, with an arc i -> j whenever i has beaten j;
* the comparison graph, undirected, with every edge of the list;
* the hosting digraph, with an arc i -> j whenever i has hosted j.

Condition A asks for strong connectivity of the win digraph, Condition B for
connectivity of the comparison graph (strong connectivity of the digraph
with both arcs of every met pair), and Condition C for the two-directional
hosting property: every split of the teams has a first-set team hosting a
second-set team and one visiting one, which is strong connectivity of the
hosting digraph. A check returns None on success, else a PartitionWitness:
a split no arc of its condition's digraph enters from the second set, as
``witness_is_valid`` re-checks.

Every fit verifies existence before iterating (``verify_existence``) by
Ford's condition on the counts it fits (Assumption 1 of Hunter 2004): no
venue-free win count is negative, and the digraph the model reads is
strongly connected. Improved adds epsilon to both venue-free outcomes of
every met pair and to both outcomes of every hosted orientation, so that
digraph has the arcs of raw Condition B (venue-free models) or C (venue
models; sufficient, not necessary), and the rule is that check. ConnerGrant
lifts every pair both ways and never refuses. A shift (venue-free models
only) and the flat prior's raw counts are checked as Condition A of them.

``strong_components`` is the one search. It first tests in numpy whether
every vertex is reachable from vertex 0, pushing the reached set across
every arc per round, along the arcs and then the reversed arcs (once where
the second half of the arcs reverses the first, as ``arcs`` lays out both
arcs of every edge). A pass labels every vertex 0; a failure, or a search
still growing after ``_ROUNDS`` rounds, leaves the labels to Tarjan's
algorithm. Each raw digraph (the wins, every met pair, all hosted games,
decisive hosted games) is labelled at most once per dataset and kept on it
with each condition's witness, for the checks, the rule under Improved, the
flat prior's rule (it fits the raw counts) and the solver's coarse space
(``raw_components``).
"""

from __future__ import annotations

import numpy as np

from .errors import ExistenceError, VenuelessDataError
from .types import (
    Array, ConnerGrant, Dataset, Improved, Model, PartitionWitness, PerturbationSpec,
    PerturbedCounts,
)

# (condition, witness detail) of the raw-data checks, which Improved fits refuse by
CONDITION_A = ("A", "no team in the second set has beaten any team in the first set")
CONDITION_B = ("B", "no games at all between the two sets")
CONDITION_C = ("C", "no team in the second set has ever hosted a team in the first set")
# that of a shift's or the flat prior's refusal, Condition A of the counts fitted
FITTED_A = ("A", "no team in the second set has any win over the first set")
# a reachability search gives up after this many rounds: leagues of 400 to 100,000
# teams need 5 to 18, and a round costs 1/66 to 1/550 of Tarjan's labelling of its arcs
_ROUNDS = 32


def arcs(i: np.ndarray, j: np.ndarray, weights: Array) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)``: the arcs ``i[e] -> j[e]`` where ``weights[0, e] > 0``,
    then ``j[e] -> i[e]`` where ``weights[1, e] > 0``; ``weights`` is
    (2, edges)."""
    keep = (weights > 0).ravel()
    return np.concatenate([i, j])[keep], np.concatenate([j, i])[keep]


def _reaches_all(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """True if every vertex is reachable from vertex 0 along the arcs within
    ``_ROUNDS`` rounds, each pushing the reached set across every arc."""
    reached, size = np.arange(n) == 0, 1
    for _ in range(_ROUNDS):
        reached[dst[reached[src]]] = True
        grown = np.count_nonzero(reached)
        if grown in (size, n):
            return grown == n
        size = grown
    return False


def strong_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Labels 0, 1, ... of the strongly connected components of the digraph
    on ``n`` vertices with edges ``src[k] -> dst[k]``.

    All 0 if the reachability test of the module docstring passes; else
    Tarjan's algorithm with an explicit stack, over successor lists sorted
    out of the edge arrays by numpy: O(n + edges) whatever the shape of the
    digraph, where the test pays a round per step of its diameter.
    """
    half, odd = divmod(len(src), 2)  # two-way: arc k + half reverses arc k
    two_way = not odd and (src[:half] == dst[half:]).all() and (dst[:half] == src[half:]).all()
    if _reaches_all(n, src, dst) and (two_way or _reaches_all(n, dst, src)):
        return np.zeros(n, dtype=np.intp)
    order = np.argsort(src, kind="stable")
    heads = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    successors = dst[order].tolist()
    index, low, label = [-1] * n, [0] * n, [-1] * n
    visited, components, count = [], 0, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        visited.append(root)
        path = [(root, heads[root])]
        while path:
            v, k = path[-1]
            end = heads[v + 1]
            while k < end:
                w = successors[k]
                k += 1
                if index[w] < 0:  # descend into w, resuming v at edge k
                    path[-1] = (v, k)
                    index[w] = low[w] = count
                    count += 1
                    visited.append(w)
                    path.append((w, heads[w]))
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:  # every edge of v is done
                path.pop()
                if low[v] == index[v]:  # v roots a component
                    while True:
                        w = visited.pop()
                        label[w] = components
                        if w == v:
                            break
                    components += 1
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
    return np.array(label, dtype=np.intp)


def strong_connectivity_witness(
    labels: np.ndarray, src: np.ndarray, dst: np.ndarray, condition: str, detail: str
) -> PartitionWitness | None:
    """None if ``labels``, the ``strong_components`` of the digraph with arcs
    ``src[k] -> dst[k]``, name one component; else a witness split: q1 is a
    source component (q2 sends no arcs into it), the one holding the
    smallest vertex, which makes witnesses deterministic."""
    if not labels.any():
        return None
    has_incoming = np.zeros(labels.max() + 1, dtype=bool)
    has_incoming[labels[dst[labels[src] != labels[dst]]]] = True
    in_q1 = labels == labels[np.argmax(~has_incoming[labels])]
    q1, q2 = np.flatnonzero(in_q1), np.flatnonzero(~in_q1)
    return PartitionWitness(condition=condition, q1=tuple(q1), q2=tuple(q2), detail=detail)


# the raw digraph each condition reads, by its memo key; B reads every met pair
_CONDITION_MODEL = {"A": Model.BRADLEY_TERRY, "B": None, "C": Model.DAVID}


def _raw_arcs(dataset: Dataset, key: Model | None) -> tuple[np.ndarray, np.ndarray]:
    """The arcs of a raw digraph: both arcs of every met pair (``key=None``),
    the wins (Bradley-Terry), or the hosted games a venue model reads:
    decisive ones for home-field, which never reads the ties, all for David."""
    counts = dataset.counts
    if key is None:
        return np.concatenate([counts.i, counts.j]), np.concatenate([counts.j, counts.i])
    if key is Model.BRADLEY_TERRY:
        weights = dataset.totals[:2]
    elif key is Model.DAVID:
        weights = counts.games.sum(axis=0)
    else:
        weights = counts.games[0] + counts.games[1]
    return arcs(counts.i, counts.j, weights)


def _labels(dataset: Dataset, key: Model | None, raw=None) -> np.ndarray:
    """The ``strong_components`` of the raw digraph ``key`` names, labelled
    once per dataset (from ``raw``, its arcs, where the caller has them)."""
    memo = dataset._connectivity
    if key not in memo:
        memo[key] = strong_components(dataset.num_teams, *(raw or _raw_arcs(dataset, key)))
        memo[key].setflags(write=False)
    return memo[key]


def _check(dataset: Dataset, wording: tuple[str, str]) -> PartitionWitness | None:
    """The raw-data check of the condition ``wording`` names, once per dataset."""
    condition, memo = wording[0], dataset._connectivity
    if condition not in memo:
        key = _CONDITION_MODEL[condition]
        raw = _raw_arcs(dataset, key)
        memo[condition] = strong_connectivity_witness(_labels(dataset, key, raw), *raw, *wording)
    return memo[condition]


def require_venues(subject: str, venueless: bool) -> None:
    """Refuse ``subject``, a venue model or Condition C, with
    VenuelessDataError where it reads ``venueless`` data."""
    if venueless:
        raise VenuelessDataError(f"{subject} needs home/away structure and this dataset has none")


def check_condition_a(dataset: Dataset) -> PartitionWitness | None:
    """Strong connectivity of the win digraph.

    On failure the witness has q1 = a set nobody outside it has beaten.
    """
    return _check(dataset, CONDITION_A)


def check_condition_b(dataset: Dataset) -> PartitionWitness | None:
    """Connectivity of the comparison graph.

    On failure q1 is the component holding the lowest team index and q2
    everyone else; the two sets share no games.
    """
    return _check(dataset, CONDITION_B)


def check_condition_c(dataset: Dataset) -> PartitionWitness | None:
    """Strong connectivity of the hosting digraph (venue data required).

    On failure, q1 is a set of teams that never visit the rest: no team in
    q2 has ever hosted a team in q1.
    """
    require_venues("condition C", dataset.venueless)
    return _check(dataset, CONDITION_C)


def witness_is_valid(dataset: Dataset, witness: PartitionWitness) -> bool:
    """Re-evaluate a witness against the data: does it really violate the
    condition it names? It does when the split covers the teams and no arc
    of the condition's digraph runs from q2 into q1."""
    t = dataset.num_teams
    covered = set(witness.q1) | set(witness.q2) == set(range(t))
    if witness.condition not in _CONDITION_MODEL or not covered:
        return False
    in_q1 = np.zeros(t, dtype=bool)
    in_q1[list(witness.q1)] = True
    src, dst = _raw_arcs(dataset, _CONDITION_MODEL[witness.condition])
    return not np.any(~in_q1[src] & in_q1[dst])


def verify_existence(
    model: Model, dataset: Dataset, perturbed: PerturbedCounts, scheme: PerturbationSpec | None
) -> None:
    """Refuse, with ExistenceError, unless the counts ``perturbed`` that
    ``scheme`` makes of ``dataset`` (None: the flat prior's raw counts) meet
    Ford's condition for ``model``, by the rule of the module docstring; a
    venue model on venueless data first, with VenuelessDataError.

    A negative count rewards driving that pair's win probability to 0, so
    the objective is no longer concave and need not be bounded above. The
    first in row order is named, as an entry of the venue-free ``a_free``.
    """
    require_venues(model.value, model.has_home_parameter and dataset.venueless)
    if isinstance(scheme, Improved):
        witness = (check_condition_c if model.has_home_parameter else check_condition_b)(dataset)
    elif isinstance(scheme, ConnerGrant):
        witness = None  # every pair carries both arcs
    else:
        i, j, t, wins = perturbed.i, perturbed.j, perturbed.num_teams, perturbed.wins
        if (wins < 0).any():  # row 0 the wins of i over j, row 1 those of j over i
            winner, loser = np.stack([i, j]), np.stack([j, i])
            first = np.argmin(np.where(wins < 0, winner * t + loser, t * t))
            x, y = winner.flat[first], loser.flat[first]
            raise ExistenceError(
                f"refused: after the shift, a_free gives team {dataset.teams[x]!r} a "
                f"negative win count {wins.flat[first]:g} over team {dataset.teams[y]!r}, so "
                f"the {model.value} estimate is not guaranteed to exist"
            )
        src, dst = arcs(i, j, wins)
        if scheme is None:  # the raw wins: the dataset's Bradley-Terry labels
            labels = _labels(dataset, Model.BRADLEY_TERRY, (src, dst))
        else:
            labels = strong_components(t, src, dst)
        witness = strong_connectivity_witness(labels, src, dst, *FITTED_A)
    if witness is not None:
        raise ExistenceError(
            f"the {model.value} estimate does not exist for these data: "
            + witness.describe(dataset.teams),
            witness=witness,
        )


def raw_components(model: Model, dataset: Dataset) -> np.ndarray:
    """Labels of the strongly connected components of the raw digraph the
    model reads (the counts before perturbation): the venue-free models
    share the wins'."""
    return _labels(dataset, model if model.has_home_parameter else Model.BRADLEY_TERRY)
