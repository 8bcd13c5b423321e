"""Connectivity diagnostics for paired-comparison data.

Three graphs are read off a dataset:

* the win digraph, with an edge i -> j whenever i has beaten j (``a_ij > 0``);
* the comparison graph, undirected, with an edge whenever the pair has met
  (``n_ij > 0``);
* the hosting digraph, with an edge i -> j whenever i has hosted j
  (``n_host[i][j] > 0``).

Condition A asks for strong connectivity of the win digraph, Condition B for
connectivity of the comparison graph, and Condition C for the two-directional
hosting property: every split of the teams must have some first-set team
hosting a second-set team and some first-set team visiting one. Condition C
holds exactly when the hosting digraph is strongly connected (for every
proper vertex subset, strong connectivity means an edge leaves it and an edge
enters it, which are precisely the two hosting directions), so all three
checks reduce to one strong-connectivity test (on the symmetric digraph of
the pair totals for B) instead of a scan over all 2^t - 2 splits.

A digraph is strongly connected exactly when every team is reachable from
team 0 along its edges and along its reversed edges, so the test is two
breadth-first searches in numpy over the dense adjacency. Only when it fails
are the strongly connected components labelled (``strong_components``,
Tarjan's algorithm over the edge list), to name a witness. The checks return
None on success and a PartitionWitness on failure. The solver labels the
components of the raw data with the same function, for the coarse space of
its sparse Newton step.
"""

from __future__ import annotations

import numpy as np

from .errors import VenuelessDataError
from .types import Array, Dataset, PartitionWitness

# (condition, witness detail) of the raw-data checks; fit refusals under the
# Improved scheme reuse them
CONDITION_B = ("B", "no games at all between the two sets")
CONDITION_C = ("C", "no team in the second set has ever hosted a team in the first set")


def _reaches_all(adjacency: np.ndarray) -> bool:
    """True if every vertex is reachable from vertex 0 along the edges."""
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~reached
        reached |= frontier
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


def _source_component(adjacency: np.ndarray) -> np.ndarray:
    """Vertices of a source SCC (no incoming edges from other components).

    Among all source components, the one containing the smallest vertex
    index is returned, which makes witnesses deterministic.
    """
    rows, cols = np.nonzero(adjacency)
    labels = strong_components(adjacency.shape[0], rows, cols)
    has_incoming = np.zeros(labels.max() + 1, dtype=bool)
    cross = labels[rows] != labels[cols]
    has_incoming[labels[cols[cross]]] = True
    first_source = np.argmax(~has_incoming[labels])  # smallest vertex in a source SCC
    return np.flatnonzero(labels == labels[first_source])


def strong_connectivity_witness(
    weights: Array, condition: str, detail: str
) -> PartitionWitness | None:
    """None if the digraph with edges ``weights > 0`` is strongly connected,
    else a witness split (q1 = a source component, so q2 sends no edges into
    q1)."""
    adjacency = np.asarray(weights) > 0
    if _reaches_all(adjacency) and _reaches_all(adjacency.T):
        return None
    t = adjacency.shape[0]
    q1 = _source_component(adjacency)
    in_q1 = np.zeros(t, dtype=bool)
    in_q1[q1] = True
    q2 = np.flatnonzero(~in_q1)
    return PartitionWitness(condition=condition, q1=tuple(q1), q2=tuple(q2), detail=detail)


def check_condition_a(dataset: Dataset) -> PartitionWitness | None:
    """Strong connectivity of the win digraph.

    On failure the witness has q1 = a set nobody outside it has beaten.
    """
    return strong_connectivity_witness(
        dataset.totals.a,
        condition="A",
        detail="no team in the second set has beaten any team in the first set",
    )


def check_condition_b(dataset: Dataset) -> PartitionWitness | None:
    """Connectivity of the comparison graph.

    The pair totals are symmetric, so the comparison graph is connected
    exactly when the digraph with edges ``n_ij > 0`` is strongly connected,
    and every component is a source component. On failure the witness has
    q1 = the component containing the lowest team index, q2 = everyone
    else; the two sets share no games.
    """
    return strong_connectivity_witness(dataset.totals.n, *CONDITION_B)


def check_condition_c(dataset: Dataset) -> PartitionWitness | None:
    """Strong connectivity of the hosting digraph (venue data required).

    On failure, q1 is a set of teams that never visit the rest: no team in
    q2 has ever hosted a team in q1.
    """
    if dataset.venueless:
        raise VenuelessDataError(
            "condition C needs home/away structure and this dataset has none"
        )
    return strong_connectivity_witness(dataset.totals.n_host, *CONDITION_C)


def witness_is_valid(dataset: Dataset, witness: PartitionWitness) -> bool:
    """Re-evaluate a witness against the data: does it really violate the
    condition it names?"""
    q1 = np.array(witness.q1)
    q2 = np.array(witness.q2)
    if set(witness.q1) | set(witness.q2) != set(range(dataset.num_teams)):
        return False
    totals = dataset.totals
    if witness.condition == "A":
        return totals.a[np.ix_(q2, q1)].sum() == 0
    if witness.condition == "B":
        return totals.n[np.ix_(q1, q2)].sum() == 0
    if witness.condition == "C":
        hosts = totals.n_host[np.ix_(q1, q2)].sum() > 0
        visits = totals.n_host[np.ix_(q2, q1)].sum() > 0
        return not (hosts and visits)
    return False
