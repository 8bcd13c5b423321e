"""Connectivity diagnostics for paired-comparison data, and the existence
rule every fit applies.

Three graphs are read off a dataset's edge list:

* the win digraph, with an arc i -> j whenever i has beaten j;
* the comparison graph, undirected, with every edge of the list;
* the hosting digraph, with an arc i -> j whenever i has hosted j.

Condition A asks for strong connectivity of the win digraph, Condition B for
connectivity of the comparison graph, and Condition C for the two-directional
hosting property: every split of the teams must have some first-set team
hosting a second-set team and some first-set team visiting one. Condition C
holds exactly when the hosting digraph is strongly connected (for every
proper vertex subset, strong connectivity means an arc leaves it and an arc
enters it, which are precisely the two hosting directions), so all three
checks reduce to one strong-connectivity test (on the symmetric digraph of
the edges for B) instead of a scan over all 2^t - 2 splits. A check returns
None on success, else a PartitionWitness: a split no arc of its condition's
digraph enters from the second set, as ``witness_is_valid`` re-checks.

Every fit re-verifies existence before iterating (``verify_existence``),
refusing with a witness rather than diverging; its Objective has already
refused venue models on venueless data and tie models on data without ties.
One rule serves every scheme, Ford's condition on the perturbed data
(Assumption 1 of Hunter 2004): no perturbed venue-free win count is
negative (only a shift can make one so), and the perturbed ``digraph`` the
model reads is strongly connected. That is the win digraph for the
venue-free models; for the venue models it has an arc i -> j where i hosted
j in a game the model reads (a decisive one for home-field, any one for
David). Improved adds epsilon exactly where the pair met, to both outcomes
of every hosted orientation, so its venue-free wins are positive both ways
on every edge and its venue digraphs have an arc wherever a game was
hosted: the rule is Condition B (venue-free models) or C (venue models) of
the raw data, and a refusal words its witness so. Condition C is
sufficient for the venue models, not necessary. ConnerGrant lifts every
pair and never refuses. A shift, which only the venue-free models take, and the flat
prior's raw counts are refused as Condition A of the counts fitted (the
shifted counts, or the raw ones).

A digraph is strongly connected exactly when every team is reachable from
team 0 along its arcs and along its reversed arcs, so the test is two
breadth-first searches in numpy over the arc arrays, a boolean frontier
pushed across every arc per round. Only when it fails are the strongly
connected components labelled (``strong_components``, Tarjan's algorithm
over the arcs), to name a witness. The solver labels those of the raw
digraph a model reads (``raw_components``), for the coarse space of its
sparse Newton step, and keeps them on the immutable Dataset, one entry
per digraph: wins, decisive hosted games or all hosted games.
"""

from __future__ import annotations

import numpy as np

from .errors import ExistenceError, VenuelessDataError
from .types import Array, Dataset, Model, PartitionWitness, PerturbedCounts

# (condition, witness detail) of the raw-data checks
CONDITION_A = ("A", "no team in the second set has beaten any team in the first set")
CONDITION_B = ("B", "no games at all between the two sets")
CONDITION_C = ("C", "no team in the second set has ever hosted a team in the first set")
# (condition, witness detail) of a fit refusal by (epsilon scheme, venue
# model): an epsilon scheme's rule is the raw Condition B or C, and a shift
# or the flat prior's raw counts are refused as Condition A of those counts
REFUSAL_WORDING = {
    (True, False): CONDITION_B,
    (True, True): CONDITION_C,
    (False, False): ("A", "no team in the second set has any win over the first set"),
}


def arcs(i: np.ndarray, j: np.ndarray, weights: Array) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)``: the arcs ``i[e] -> j[e]`` where ``weights[0, e] > 0``,
    then ``j[e] -> i[e]`` where ``weights[1, e] > 0``; ``weights`` is
    (2, edges)."""
    keep = (weights > 0).ravel()
    return np.concatenate([i, j])[keep], np.concatenate([j, i])[keep]


def digraph(model: Model, games: Array, wins: Array) -> Array:
    """Weights (2, edges) of the arcs i -> j and j -> i the existence rule
    reads for ``model``: the venue-free ``wins``, or the ``games`` a venue
    model reads by host (decisive ones for home-field, all for David)."""
    if not model.has_home_parameter:
        return wins
    if model.has_tie_parameter:
        return games.sum(axis=0)
    return games[0] + games[1]  # home-field never reads the ties


def _reaches_all(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """True if every vertex is reachable from vertex 0 along the arcs: the
    reached set takes every arc out of it until it stops growing."""
    reached, size = np.arange(n) == 0, 0
    while size < np.count_nonzero(reached) < n:
        size = np.count_nonzero(reached)
        reached[dst[reached[src]]] = True
    return bool(reached.all())


def strong_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Labels 0, 1, ... of the strongly connected components of the digraph
    on ``n`` vertices with edges ``src[k] -> dst[k]``.

    Tarjan's algorithm with an explicit stack, over successor lists sorted
    out of the edge arrays by numpy: O(n + edges) whatever the shape of the
    digraph, where propagating labels along the edges in numpy needs a sweep
    per step of the longest path.
    """
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
    n: int, src: np.ndarray, dst: np.ndarray, condition: str, detail: str
) -> PartitionWitness | None:
    """None if the digraph on ``n`` vertices with arcs ``src[k] -> dst[k]``
    is strongly connected, else a witness split: q1 is a source component
    (q2 sends no arcs into it), the one holding the smallest vertex, which
    makes witnesses deterministic."""
    if _reaches_all(n, src, dst) and _reaches_all(n, dst, src):
        return None
    labels = strong_components(n, src, dst)
    has_incoming = np.zeros(labels.max() + 1, dtype=bool)
    has_incoming[labels[dst[labels[src] != labels[dst]]]] = True
    in_q1 = labels == labels[np.argmax(~has_incoming[labels])]
    q1, q2 = np.flatnonzero(in_q1), np.flatnonzero(~in_q1)
    return PartitionWitness(condition=condition, q1=tuple(q1), q2=tuple(q2), detail=detail)


# the model whose raw digraph a condition reads; B reads every met edge
_CONDITION_MODEL = {"A": Model.BRADLEY_TERRY, "B": None, "C": Model.DAVID}


def _raw_arcs(dataset: Dataset, model: Model | None) -> tuple[np.ndarray, np.ndarray]:
    """The arcs of the ``digraph`` a model reads of the raw counts, or both
    arcs of every met edge for ``model=None``."""
    counts = dataset.counts
    if model is None:
        return arcs(counts.i, counts.j, np.ones((2, len(counts.i))))
    return arcs(counts.i, counts.j, digraph(model, counts.games, dataset.totals[:2]))


def _check(dataset: Dataset, wording: tuple[str, str]) -> PartitionWitness | None:
    """The raw-data check of the condition ``wording`` names."""
    condition_arcs = _raw_arcs(dataset, _CONDITION_MODEL[wording[0]])
    return strong_connectivity_witness(dataset.num_teams, *condition_arcs, *wording)


def check_condition_a(dataset: Dataset) -> PartitionWitness | None:
    """Strong connectivity of the win digraph.

    On failure the witness has q1 = a set nobody outside it has beaten.
    """
    return _check(dataset, CONDITION_A)


def check_condition_b(dataset: Dataset) -> PartitionWitness | None:
    """Connectivity of the comparison graph.

    The comparison graph is connected exactly when the digraph with both
    arcs of every edge is strongly connected, and every component is a
    source component. On failure q1 is the component holding the lowest
    team index and q2 everyone else; the two sets share no games.
    """
    return _check(dataset, CONDITION_B)


def check_condition_c(dataset: Dataset) -> PartitionWitness | None:
    """Strong connectivity of the hosting digraph (venue data required).

    On failure, q1 is a set of teams that never visit the rest: no team in
    q2 has ever hosted a team in q1.
    """
    if dataset.venueless:
        raise VenuelessDataError(
            "condition C needs home/away structure and this dataset has none"
        )
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


def verify_existence(model: Model, perturbed: PerturbedCounts, teams) -> None:
    """Refuse, with ExistenceError, unless the perturbed counts the model
    reads meet Ford's condition (the module docstring gives the rule).

    A negative count rewards driving that pair's win probability to 0, so
    the objective is no longer concave and need not be bounded above. The
    first negative count in row order is named, as an entry of the t x t
    venue-free win matrix ``a_free``.
    """
    i, j, t, wins = perturbed.i, perturbed.j, perturbed.num_teams, perturbed.wins
    if (wins < 0).any():  # row 0 the wins of i over j, row 1 those of j over i
        winner, loser = np.stack([i, j]), np.stack([j, i])
        first = np.argmin(np.where(wins < 0, winner * t + loser, t * t))
        x, y = winner.flat[first], loser.flat[first]
        raise ExistenceError(
            f"refused: after the shift, a_free gives team {teams[x]!r} a "
            f"negative win count {wins.flat[first]:g} over team {teams[y]!r}, so "
            f"the {model.value} estimate is not guaranteed to exist"
        )
    wording = REFUSAL_WORDING[perturbed.epsilon is not None, model.has_home_parameter]
    weights = digraph(model, perturbed.games, wins)
    witness = strong_connectivity_witness(t, *arcs(i, j, weights), *wording)
    if witness is not None:
        raise ExistenceError(
            f"the {model.value} estimate does not exist for these data: "
            + witness.describe(teams),
            witness=witness,
        )


def raw_components(model: Model, dataset: Dataset) -> np.ndarray:
    """Labels of the strongly connected components of the raw digraph the
    model's existence rule reads (the counts before perturbation), labelled
    once per dataset and digraph (the venue-free models share the wins')."""
    key = model if model.has_home_parameter else Model.BRADLEY_TERRY
    memo = dataset._raw_labels
    if key not in memo:
        memo[key] = strong_components(dataset.num_teams, *_raw_arcs(dataset, key))
        memo[key].setflags(write=False)
    return memo[key]
