"""Connectivity diagnostics for paired-comparison data.

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
the edges for B) instead of a scan over all 2^t - 2 splits.

A digraph is strongly connected exactly when every team is reachable from
team 0 along its arcs and along its reversed arcs, so the test is two
breadth-first searches in numpy over the arc arrays, a boolean frontier
pushed across every arc per round. Only when it fails are the strongly
connected components labelled (``strong_components``, Tarjan's algorithm
over the arcs), to name a witness. The checks return None on success and a
PartitionWitness on failure. The solver labels the components of the raw
data with the same function, for the coarse space of its sparse Newton step.
"""

from __future__ import annotations

import numpy as np

from .errors import VenuelessDataError
from .types import Array, Dataset, PartitionWitness

# (condition, witness detail) of the raw-data checks; fit refusals under the
# Improved scheme reuse them
CONDITION_B = ("B", "no games at all between the two sets")
CONDITION_C = ("C", "no team in the second set has ever hosted a team in the first set")


def arcs(i: np.ndarray, j: np.ndarray, weights: Array) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)``: the arcs ``i[e] -> j[e]`` where ``weights[0, e] > 0``,
    then ``j[e] -> i[e]`` where ``weights[1, e] > 0``; ``weights`` is
    (2, edges)."""
    keep = (weights > 0).ravel()
    return np.concatenate([i, j])[keep], np.concatenate([j, i])[keep]


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


def _source_component(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Vertices of a source SCC (no incoming arcs from other components).

    Among all source components, the one containing the smallest vertex
    index is returned, which makes witnesses deterministic.
    """
    labels = strong_components(n, src, dst)
    has_incoming = np.zeros(labels.max() + 1, dtype=bool)
    cross = labels[src] != labels[dst]
    has_incoming[labels[dst[cross]]] = True
    first_source = np.argmax(~has_incoming[labels])  # smallest vertex in a source SCC
    return np.flatnonzero(labels == labels[first_source])


def strong_connectivity_witness(
    n: int, src: np.ndarray, dst: np.ndarray, condition: str, detail: str
) -> PartitionWitness | None:
    """None if the digraph on ``n`` vertices with arcs ``src[k] -> dst[k]``
    is strongly connected, else a witness split (q1 = a source component,
    so q2 sends no arcs into q1)."""
    if _reaches_all(n, src, dst) and _reaches_all(n, dst, src):
        return None
    q1 = _source_component(n, src, dst)
    in_q1 = np.zeros(n, dtype=bool)
    in_q1[q1] = True
    q2 = np.flatnonzero(~in_q1)
    return PartitionWitness(condition=condition, q1=tuple(q1), q2=tuple(q2), detail=detail)


def check_condition_a(dataset: Dataset) -> PartitionWitness | None:
    """Strong connectivity of the win digraph.

    On failure the witness has q1 = a set nobody outside it has beaten.
    """
    counts = dataset.counts
    return strong_connectivity_witness(
        dataset.num_teams,
        *arcs(counts.i, counts.j, dataset.totals[:2]),
        condition="A",
        detail="no team in the second set has beaten any team in the first set",
    )


def check_condition_b(dataset: Dataset) -> PartitionWitness | None:
    """Connectivity of the comparison graph.

    The comparison graph is connected exactly when the digraph with both
    arcs of every edge is strongly connected, and every component is a
    source component. On failure the witness has
    q1 = the component containing the lowest team index, q2 = everyone
    else; the two sets share no games.
    """
    i, j = dataset.counts.i, dataset.counts.j
    both = np.concatenate([i, j]), np.concatenate([j, i])
    return strong_connectivity_witness(dataset.num_teams, *both, *CONDITION_B)


def check_condition_c(dataset: Dataset) -> PartitionWitness | None:
    """Strong connectivity of the hosting digraph (venue data required).

    On failure, q1 is a set of teams that never visit the rest: no team in
    q2 has ever hosted a team in q1.
    """
    if dataset.venueless:
        raise VenuelessDataError(
            "condition C needs home/away structure and this dataset has none"
        )
    counts = dataset.counts  # games per edge hosted by i, and by j
    hosting = arcs(counts.i, counts.j, counts.games.sum(axis=0))
    return strong_connectivity_witness(dataset.num_teams, *hosting, *CONDITION_C)


def witness_is_valid(dataset: Dataset, witness: PartitionWitness) -> bool:
    """Re-evaluate a witness against the data: does it really violate the
    condition it names?"""
    t = dataset.num_teams
    if set(witness.q1) | set(witness.q2) != set(range(t)):
        return False
    in_q1 = np.zeros(t, dtype=bool)
    in_q1[list(witness.q1)] = True
    i, j, games = dataset.counts.i, dataset.counts.j, dataset.counts.games

    def crosses(weights, into_q1: bool) -> bool:
        """Whether an arc of ``weights`` runs from q2 into q1 (``into_q1``),
        or from q1 into q2."""
        src, dst = arcs(i, j, weights)
        return bool(np.any((in_q1[src] != into_q1) & (in_q1[dst] == into_q1)))

    if witness.condition == "A":
        return not crosses(dataset.totals[:2], True)
    if witness.condition == "B":
        return not np.any(in_q1[i] != in_q1[j])
    if witness.condition == "C":
        return not (crosses(games.sum(axis=0), False) and crosses(games.sum(axis=0), True))
    return False
