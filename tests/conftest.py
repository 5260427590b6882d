"""Shared corpus graphs and independent brute-force oracles.

Oracles here are deliberately naive re-derivations (permutation scans, full
assignment enumeration, networkx) so they cannot share bugs with the package's
algorithms.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

import networkx as nx
import pytest

from fanram.graphs import (
    Graph,
    complete,
    complete_multipartite,
    copies,
    disjoint_union,
    empty_graph,
    from_edges,
    generalized_fan,
)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def random_graph(rng: random.Random, order: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < p
    ]
    return from_edges(order, edges)


def corpus() -> list[tuple[str, Graph]]:
    out = [
        ("K1", complete(1)),
        ("E3", empty_graph(3)),
        ("K2", complete(2)),
        ("K3", complete(3)),
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("P3", path_graph(3)),
        ("P5", path_graph(5)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("C7", cycle_graph(7)),
        ("K33", complete_multipartite([3, 3])),
        ("K23", complete_multipartite([2, 3])),
        ("star4", from_edges(5, [(0, i) for i in range(1, 5)])),
        ("F21", generalized_fan(2, 1)),
        ("F22", generalized_fan(2, 2)),
        ("F32", generalized_fan(3, 2)),
        ("M3", copies(3, complete(2))),
        ("2K3", copies(2, complete(3))),
        ("K4+K2", disjoint_union(complete(4), complete(2))),
        ("petersen", petersen()),
    ]
    rng = random.Random(20240816)
    for i in range(8):
        order = rng.randrange(4, 11)
        out.append((f"rand{i}", random_graph(rng, order, rng.uniform(0.2, 0.8))))
    return out


@pytest.fixture(scope="session")
def corpus_graphs() -> list[tuple[str, Graph]]:
    return corpus()


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.order))
    out.add_edges_from(g.edges())
    return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_contains(g: Graph, h: Graph) -> bool:
    """Non-induced subgraph containment by scanning all injections."""
    if h.order > g.order:
        return False
    hedges = h.edges()
    for subset in combinations(range(g.order), h.order):
        for image in permutations(subset):
            if all(g.has_edge(image[a], image[b]) for a, b in hedges):
                return True
    return False


def oracle_max_matching(g: Graph) -> int:
    return len(nx.max_weight_matching(to_nx(g), maxcardinality=True))


def oracle_max_matching_recursive(g: Graph) -> int:
    edges = g.edges()

    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        take = 0
        if not (used >> u & 1) and not (used >> v & 1):
            take = 1 + best(i + 1, used | (1 << u) | (1 << v))
        return max(take, best(i + 1, used))

    return best(0, 0)


def oracle_clique_packing(g: Graph, m: int, k: int, avail=None, through=()) -> bool:
    """Whether k disjoint m-cliques lie within the vertex set avail (all of
    g by default), one of them holding every vertex of through: networkx
    lists the cliques, and a search picks them in list order, each from
    those disjoint from the ones already picked, while they still cover
    enough vertices."""
    keep = set(range(g.order) if avail is None else avail)
    cliques = []
    for c in nx.enumerate_all_cliques(to_nx(g).subgraph(keep)):  # by size
        if len(c) > m:
            break
        if len(c) == m:
            cliques.append(frozenset(c))

    def pick(cands: list, left: int) -> bool:
        if left == 0:
            return True
        if len(frozenset().union(*cands)) < m * left:
            return False
        return any(
            pick([d for d in cands[j + 1:] if not c & d], left - 1)
            for j, c in enumerate(cands)
        )

    if not through:
        return pick(cliques, k)
    return any(
        pick([d for d in cliques if not c & d], k - 1)
        for c in cliques if set(through) <= c
    )


def oracle_chromatic(g: Graph) -> int:
    if g.order == 0:
        return 0
    edges = g.edges()

    def colorable(k: int) -> bool:
        for assignment in product(range(k), repeat=g.order):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return True
        return False

    k = 1
    while not colorable(k):
        k += 1
    return k


def oracle_optimal_partitions(g: Graph, chi: int) -> set[frozenset[frozenset[int]]]:
    """Every proper coloring with chi colors, as an unordered partition."""
    edges = g.edges()
    seen = set()
    for assignment in product(range(chi), repeat=g.order):
        if any(assignment[u] == assignment[v] for u, v in edges):
            continue
        classes = {}
        for v, c in enumerate(assignment):
            classes.setdefault(c, set()).add(v)
        if len(classes) != chi:
            continue
        seen.add(frozenset(frozenset(c) for c in classes.values()))
    return seen


def oracle_surplus(g: Graph) -> int:
    chi = oracle_chromatic(g)
    return min(
        min(len(c) for c in part)
        for part in oracle_optimal_partitions(g, chi)
    )


def oracle_tau(g: Graph) -> int:
    chi = oracle_chromatic(g)
    s = oracle_surplus(g)
    best = None
    for part in oracle_optimal_partitions(g, chi):
        for u1 in part:
            if len(u1) != s:
                continue
            for v in u1:
                for u2 in part:
                    if u2 is u1:
                        continue
                    d = sum(1 for w in u2 if g.has_edge(v, w))
                    best = d if best is None else min(best, d)
    assert best is not None
    return best
