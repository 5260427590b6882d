from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanram.errors import BadParam, OrderCap
from fanram.graphs import (
    Graph,
    bits,
    complement,
    complete,
    complete_multipartite,
    components,
    copies,
    degree_profile,
    disjoint_union,
    empty_graph,
    from_edges,
    generalized_fan,
    induced,
    is_connected,
    join,
    relabel,
    star_augmented,
    transpose,
)

from conftest import cycle_graph, path_graph, random_graph


def test_complete_basic():
    g = complete(4)
    assert g.order == 4
    assert g.size() == 6
    assert g.edges() == [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert all(g.degree(v) == 3 for v in range(4))


def test_empty_graph():
    g = empty_graph(3)
    assert g.order == 3 and g.size() == 0
    assert empty_graph(0).order == 0


def test_from_edges_dedupes_and_orders():
    g = from_edges(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges() == [(0, 3), (1, 2)]
    assert g.has_edge(2, 1) and g.has_edge(1, 2)
    assert not g.has_edge(0, 1)


def test_from_edges_rejects_bad_input():
    with pytest.raises(BadParam):
        from_edges(3, [(0, 0)])
    with pytest.raises(BadParam):
        from_edges(3, [(0, 3)])
    with pytest.raises(OrderCap):
        from_edges(-1, [])


def test_graph_validation():
    with pytest.raises(OrderCap):
        complete(129)
    # the cap is checked before anything of that order is built
    for build in (complete, empty_graph, lambda n: copies(n, complete(1))):
        with pytest.raises(OrderCap):
            build(10**12)
    with pytest.raises(BadParam):
        Graph(2, (0b10,))  # row count mismatch
    with pytest.raises(BadParam):
        Graph(2, (0b01, 0b10))  # self loops
    with pytest.raises(BadParam):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(BadParam):
        Graph(2, (0b100, 0b000))  # stray bit past order


def _transpose_by_bits(rows):
    n = len(rows)
    return tuple(sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n))


@pytest.mark.parametrize("order", [0, 1, 63, 64, 65, 127, 128])
def test_transpose_matches_brute_force(order):
    rng = random.Random(order)
    full = (1 << order) - 1
    for rows in (
        [rng.getrandbits(order) if order else 0 for _ in range(order)],
        [full] * order,
        [1 << (order - 1 - v) for v in range(order)],
    ):
        assert transpose(rows) == _transpose_by_bits(rows)


def _first_unmatched(rows):
    """The pair a per-edge scan reports: rows ascending, neighbors ascending."""
    for v, row in enumerate(rows):
        for u in bits(row):
            if not rows[u] >> v & 1:
                return u, v
    return None


def test_asymmetry_names_the_first_unmatched_pair():
    with pytest.raises(BadParam, match=r"^adjacency not symmetric at \(1, 0\)$"):
        Graph(2, (0b10, 0b00))
    rng = random.Random(5)
    for order in (2, 5, 9, 64, 70, 128):
        for _ in range(10):
            rows = list(random_graph(rng, order, 0.4).rows)
            for _ in range(rng.randint(1, 3)):
                u, v = rng.sample(range(order), 2)
                rows[u] ^= 1 << v
            pair = _first_unmatched(rows)
            if pair is None:
                assert Graph(order, tuple(rows)).rows == tuple(rows)
                continue
            with pytest.raises(BadParam) as exc:
                Graph(order, tuple(rows))
            assert str(exc.value) == f"adjacency not symmetric at {pair}"


def test_disjoint_union_shifts_second_block():
    g = disjoint_union(complete(3), complete(2))
    assert g.order == 5
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (3, 4)]
    with pytest.raises(OrderCap):
        disjoint_union(complete(100), complete(29))


def test_copies_and_components():
    g = copies(3, complete(2))
    assert g.order == 6
    assert g.edges() == [(0, 1), (2, 3), (4, 5)]
    comps = components(g)
    assert len(comps) == 3
    assert copies(1, complete(3)) == complete(3)
    with pytest.raises(BadParam):
        copies(0, complete(2))


def test_join_keeps_first_labels():
    g = join(empty_graph(2), empty_graph(2))
    # K_{2,2}: cross edges only
    assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert join(complete(2), complete(1)) == complete(3)


def test_generalized_fan_shape():
    for t in (2, 3, 4):
        for n in (1, 2, 3, 4, 5):
            f = generalized_fan(t, n)
            assert f.order == t * n + 1
            assert f.degree(0) == t * n  # hub sees everything
            mn, mx, _ = degree_profile(f)
            assert mn == t  # blade vertices: t-1 inside the blade + hub
            assert mx == t * n
    assert generalized_fan(2, 1) == complete(3)
    with pytest.raises(BadParam):
        generalized_fan(0, 2)
    with pytest.raises(BadParam):
        generalized_fan(2, 0)


def test_fan_blades_are_disjoint_cliques():
    f = generalized_fan(3, 2)
    blades = [{1, 2, 3}, {4, 5, 6}]
    for blade in blades:
        for u in blade:
            for v in blade:
                if u != v:
                    assert f.has_edge(u, v)
    assert not f.has_edge(1, 4)


def test_complete_multipartite():
    g = complete_multipartite([9, 4])
    assert g.order == 13
    assert g.size() == 36
    assert not g.has_edge(0, 1)  # same part
    assert g.has_edge(0, 9)
    assert complete_multipartite([1, 1, 1]) == complete(3)
    with pytest.raises(BadParam):
        complete_multipartite([])
    with pytest.raises(BadParam):
        complete_multipartite([2, 0])


def test_star_augmented():
    g = star_augmented(5, 3)
    assert g.order == 6
    assert g.degree(5) == 3
    assert all(g.has_edge(5, i) for i in range(3))
    assert not g.has_edge(5, 3) and not g.has_edge(5, 4)
    # base is complete
    assert induced(g, range(5)) == complete(5)
    with pytest.raises(BadParam):
        star_augmented(4, 5)


def test_complement_and_induced():
    c5 = cycle_graph(5)
    assert complement(complement(c5)) == c5
    assert complement(complete(4)) == empty_graph(4)
    sub = induced(complete(6), [1, 3, 5])
    assert sub == complete(3)
    p = path_graph(4)
    assert induced(p, [0, 1, 3]).edges() == [(0, 1)]


def test_connectivity():
    assert is_connected(complete(5))
    assert is_connected(complete(1))
    assert not is_connected(copies(2, complete(3)))
    assert not is_connected(empty_graph(2))


def test_degree_profile():
    mn, mx, degs = degree_profile(path_graph(4))
    assert (mn, mx) == (1, 2)
    assert degs == (1, 2, 2, 1)
    with pytest.raises(BadParam):
        degree_profile(empty_graph(0))


def test_relabel():
    g = path_graph(3)
    h = relabel(g, [2, 0, 1])  # vertex i of g becomes perm[i]
    assert h.size() == g.size()
    assert h.has_edge(2, 0) and h.has_edge(0, 1)
    with pytest.raises(BadParam):
        relabel(g, [0, 0, 1])


def test_bits_iteration():
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert list(bits(0)) == []


@st.composite
def small_graphs(draw):
    order = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return from_edges(order, [p for i, p in enumerate(pairs) if mask >> i & 1])


@settings(max_examples=150)
@given(small_graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g
    assert g.size() + complement(g).size() == g.order * (g.order - 1) // 2


@settings(max_examples=100)
@given(small_graphs(), small_graphs())
def test_disjoint_union_adds(a, b):
    u = disjoint_union(a, b)
    assert u.order == a.order + b.order
    assert u.size() == a.size() + b.size()
    assert induced(u, range(a.order)) == a
    assert induced(u, range(a.order, u.order)) == b
