from __future__ import annotations

import random
import time
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanram.colorings import lemma27_construction
from fanram.errors import BadParam, ParseError
from fanram.graphs import (
    bits,
    complete,
    complete_multipartite,
    copies as graph_copies,
    disjoint_union,
    empty_graph,
    from_edges,
    generalized_fan,
    induced,
    join,
)
from fanram.patterns import (
    Clique,
    Copies,
    EmbeddingWitness,
    Explicit,
    Fan,
    Matching,
    _blossom,
    _kernel_form,
    _clique_pack,
    _clique_search,
    _cliques_iter,
    _fans_iter,
    _fans_through,
    _matching_at_least,
    _new_containment,
    clique_number,
    contains_clique,
    contains_copies,
    contains_fan,
    contains_target,
    copies_pattern,
    format_target,
    independence_number,
    kt_packing,
    max_matching,
    parse_target,
    pattern_graph,
    pattern_order,
    witness_valid,
)

from conftest import (
    corpus,
    cycle_graph,
    oracle_clique_packing,
    oracle_contains,
    oracle_max_matching,
    oracle_max_matching_recursive,
    path_graph,
    petersen,
    random_graph,
)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_basic_forms():
    assert parse_target("K3") == Clique(3)
    assert parse_target("F:2,1") == Fan(2, 1)
    assert parse_target("M:2") == Matching(2)
    assert parse_target("2xF:2,2") == Copies(2, Fan(2, 2))
    assert parse_target("G6:D~{") == Explicit(complete(5))


def test_parse_normalizes():
    assert parse_target("3xM:2") == Matching(6)
    assert parse_target("1xK3") == Clique(3)
    assert parse_target("2xK3") == Copies(2, Clique(3))


def test_parse_zero_counts_are_bad_params():
    # the target dataclasses validate; parse_target adds no check of its own
    for text, message in (
        ("K0", "clique size must be positive"),
        ("M:0", "matching size must be positive"),
        ("F:0,3", "fan parameters must be positive"),
        ("F:2,0", "fan parameters must be positive"),
        ("0xK3", "copy count must be positive"),
    ):
        with pytest.raises(BadParam) as exc:
            parse_target(text)
        assert str(exc.value) == message, text


def test_parse_errors_have_positions():
    for text in ("", "K", "Q5", "F:2", "F:2,", "K3trailing", "M:2,3", "2x", "K-1"):
        with pytest.raises(ParseError):
            parse_target(text)
    with pytest.raises(ParseError) as exc:
        parse_target("Q5")
    assert exc.value.position == 0


def test_format_round_trips():
    for text in ("K3", "F:2,1", "M:4", "2xF:3,2", "2xK3", "G6:D~{"):
        pat = parse_target(text)
        assert parse_target(format_target(pat)) == pat
    assert format_target(parse_target("3xM:2")) == "M:6"


def test_pattern_order_and_graph():
    assert pattern_order(Clique(4)) == 4
    assert pattern_order(Fan(3, 2)) == 7
    assert pattern_order(Matching(3)) == 6
    assert pattern_order(Copies(2, Fan(2, 1))) == 6
    assert pattern_graph(Fan(2, 1)) == complete(3)
    assert pattern_graph(Matching(2)) == graph_copies(2, complete(2))
    assert pattern_graph(Copies(2, Clique(3))) == graph_copies(2, complete(3))


def test_copies_pattern_validation():
    assert copies_pattern(2, Copies(3, Clique(2))) == Copies(6, Clique(2))
    with pytest.raises(BadParam):
        copies_pattern(0, Clique(2))


# ---------------------------------------------------------------------------
# cliques and independence
# ---------------------------------------------------------------------------


def test_clique_detection_examples():
    w = contains_clique(complete(5), 4)
    assert w is not None and w.groups == ((0, 1, 2, 3),)
    assert contains_clique(cycle_graph(5), 3) is None
    assert contains_clique(complete(3), 1) is not None
    assert contains_clique(empty_graph(0), 1) is None
    with pytest.raises(BadParam):
        contains_clique(complete(3), 0)


def test_clique_search_finds_the_first_clique():
    # the clique bound runs only with three or more vertices left to choose;
    # what it cuts must never change which clique comes first
    rng = random.Random(17)
    for trial in range(150):
        order = rng.randrange(1, 12)
        g = random_graph(rng, order, rng.uniform(0.2, 0.9))
        avail = rng.getrandbits(order)
        within = [v for v in range(order) if avail >> v & 1]
        for m in (1, 2, 3, 4):
            first = next(
                (c for c in combinations(within, m)
                 if all(g.has_edge(a, b) for a, b in combinations(c, 2))),
                None,
            )
            assert _clique_search(g.rows, avail, m) == first, (trial, m, g.edges(), avail)


def test_cliques_iter_lists_every_clique_in_lexicographic_order():
    # the first witness of every packing follows this order, so the stack
    # enumerator must yield exactly the brute-force list, in the same order
    rng = random.Random(29)
    for trial in range(200):
        order = rng.randrange(0, 17)
        g = random_graph(rng, order, rng.uniform(0.2, 0.95))
        avail = rng.getrandbits(order) if order else 0
        min_v = rng.randrange(0, order + 2)
        within = [v for v in range(order) if avail >> v & 1]
        for t in range(6):
            expect = [
                c for c in combinations(within, t)
                if (not c or c[0] >= min_v)
                and all(g.has_edge(a, b) for a, b in combinations(c, 2))
            ]
            got = list(_cliques_iter(g.rows, avail, t, min_v))
            assert got == expect, (trial, t, min_v, g.edges(), avail)


def test_cliques_iter_cuts_a_level_its_coloring_bound_rules_out(monkeypatch):
    # K(6,6,6,6,6) has 7,776 5-cliques and no 6-clique; five greedy color
    # classes settle that at the root, before any vertex is chosen
    from fanram import patterns

    calls = []
    bound = patterns._greedy_bound

    def counted(rows, mask, cutoff):
        calls.append(cutoff)
        return bound(rows, mask, cutoff)

    monkeypatch.setattr(patterns, "_greedy_bound", counted)
    g = complete_multipartite([6] * 5)
    assert list(_cliques_iter(g.rows, (1 << g.order) - 1, 6, 0)) == []
    assert calls == [6]


def test_clique_number_corpus():
    def oracle(g):
        k = 0
        while oracle_contains(g, complete(k + 1)):
            k += 1
        return k

    for name, g in corpus():
        if g.order > 9:
            continue
        assert clique_number(g) == oracle(g), name


def test_independence_is_complement_clique():
    from fanram.graphs import complement

    for name, g in corpus():
        if g.order > 9:
            continue
        assert independence_number(g) == clique_number(complement(g)), name
    assert independence_number(complete_multipartite([3, 3])) == 3
    assert independence_number(cycle_graph(5)) == 2


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def test_matching_hand_cases():
    assert len(max_matching(path_graph(4)).groups) == 2
    assert len(max_matching(cycle_graph(5)).groups) == 2
    assert len(max_matching(petersen()).groups) == 5
    assert len(max_matching(empty_graph(4)).groups) == 0
    # triangle with a pendant: matching 2 needs the blossom to flip
    g = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (1, 4)])
    assert len(max_matching(g).groups) == 2


def test_matching_blossom_critical():
    # two triangles joined by a path: classic blossom instance
    g = from_edges(
        8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)]
    )
    assert len(max_matching(g).groups) == oracle_max_matching(g)


def test_matching_against_oracles_random():
    rng = random.Random(99)
    for trial in range(200):
        order = rng.randrange(2, 13)
        g = random_graph(rng, order, rng.uniform(0.1, 0.9))
        got = len(max_matching(g).groups)
        assert got == oracle_max_matching(g), (trial, g.edges())
        if order <= 9:
            assert got == oracle_max_matching_recursive(g)


def _odd_cliques_with_chords(rng: random.Random, order: int):
    perm = rng.sample(range(order), order)
    edges = set()
    i = 0
    while i < order:
        size = rng.choice([1, 3, 5, 7])
        edges.update(combinations(sorted(perm[i:i + size]), 2))
        i += size
    for _ in range(rng.randrange(order)):
        edges.add(tuple(sorted(rng.sample(range(order), 2))))
    return from_edges(order, sorted(edges))


def _lopsided_bipartite(rng: random.Random, order: int):
    """K_{a,b} with a >> b, as in Lemma 2.7's red graph (big side first,
    or shuffled), plus a few random edges inside either side."""
    small = rng.randrange(1, order // 4 + 1)
    perm = rng.sample(range(order), order) if rng.random() < 0.5 else list(range(order))
    big, little = perm[:order - small], perm[order - small:]
    edges = {tuple(sorted((u, v))) for u in big for v in little}
    for _ in range(rng.randrange(4)):
        side = rng.choice([big, little])
        if len(side) >= 2:
            edges.add(tuple(sorted(rng.sample(side, 2))))
    return from_edges(order, sorted(edges))


def test_matching_against_oracle_at_real_sizes():
    # a search that fails leaves a dead tree that later searches skip; that
    # needs several exposed roots before an augmentation, which orders up
    # to 12 rarely give
    rng = random.Random(2020)
    for trial in range(240):
        order = rng.randrange(13, 61)
        if trial % 3 == 0:
            g = random_graph(rng, order, rng.choice([0.03, 0.06, 0.1, 0.2]))
        elif trial % 3 == 1:
            g = _odd_cliques_with_chords(rng, order)
        else:
            g = _lopsided_bipartite(rng, order)
        nu = oracle_max_matching(g)
        pairs = max_matching(g).groups
        assert len(pairs) == nu, (trial, g.edges())
        assert len({v for e in pairs for v in e}) == 2 * nu
        assert all(g.has_edge(u, v) for u, v in pairs)
        for k in range(4, 9):
            assert (_blossom(g.rows, g.order, k)[1] >= k) == (nu >= k), (trial, k)


# max_matching(g).groups of seeded G(n, p) graphs whose dead trees come
# before augmentations; check-free reports and cache records carry these
# witnesses, so pruning must not change them
PINNED_MATCHINGS = [
    (20, 142, 0.08, [(0, 13), (1, 7), (2, 9), (3, 12), (4, 15), (6, 14), (8, 18), (10, 11)]),
    (24, 108, 0.1, [
        (0, 22), (2, 18), (3, 17), (4, 13), (5, 19), (6, 14), (7, 9), (8, 21), (11, 23),
        (15, 16),
    ]),
    (28, 155, 0.08, [
        (0, 13), (1, 10), (2, 11), (3, 14), (5, 26), (6, 8), (7, 18), (9, 24), (12, 23),
        (15, 22), (16, 20), (17, 19), (25, 27),
    ]),
    (32, 91, 0.1, [
        (0, 18), (1, 10), (2, 13), (3, 28), (5, 21), (6, 25), (7, 29), (8, 17), (9, 19),
        (11, 23), (12, 16), (14, 30), (15, 24), (22, 31), (26, 27),
    ]),
    (36, 12, 0.06, [
        (0, 24), (1, 27), (2, 30), (4, 17), (5, 28), (6, 35), (7, 34), (8, 21), (10, 12),
        (11, 18), (15, 29), (19, 25), (22, 23),
    ]),
    (40, 127, 0.08, [
        (0, 22), (1, 29), (2, 15), (3, 31), (4, 28), (5, 7), (6, 18), (8, 33), (9, 14),
        (10, 16), (11, 13), (12, 32), (17, 20), (21, 37), (23, 24), (25, 39), (26, 34),
        (27, 35), (30, 38),
    ]),
]


def test_matching_witnesses_are_pinned():
    for order, seed, p, groups in PINNED_MATCHINGS:
        g = random_graph(random.Random(seed), order, p)
        assert list(max_matching(g).groups) == groups, (order, seed)
    red = lemma27_construction(30, 2, 48).red
    assert max_matching(red).groups == tuple((i, 96 + i) for i in range(29))


def test_blossom_walks_a_dead_tree_once(monkeypatch):
    # K_{96,29}: the greedy start matches the small side, the search from
    # vertex 29 fails, and its dead tree holds every neighbor of the 66
    # exposed vertices after it, which then fail without a search
    queues = []

    def counting_deque(*args):
        queues.append(args)
        return deque(*args)

    monkeypatch.setattr("fanram.patterns.deque", counting_deque)
    match, size = _blossom(complete_multipartite([96, 29]).rows, 125)
    assert size == 29 and match[:29] == list(range(96, 125))
    assert len(queues) <= 1


def test_matching_at_least_zero_edges_is_always_true():
    for g in (empty_graph(0), empty_graph(3), complete(4), petersen()):
        full = (1 << g.order) - 1
        assert _matching_at_least(g.rows, 0, 0)
        assert _matching_at_least(g.rows, full, 0)


def _check_matching_at_least(g, avail: int) -> None:
    nu = oracle_max_matching(induced(g, [v for v in range(g.order) if avail >> v & 1]))
    for k in range(7):
        assert _matching_at_least(g.rows, avail, k) == (nu >= k), (k, avail, g.edges())


def test_matching_at_least_against_oracle():
    # k = 2 is a closed form, k = 3 one branch into it, k >= 4 blossom;
    # sparse graphs keep the answers near those thresholds
    rng = random.Random(23)
    for _ in range(400):
        order = rng.randrange(1, 15)
        g = random_graph(rng, order, rng.choice([0.05, 0.15, 0.3, 0.5, 0.7]))
        _check_matching_at_least(g, rng.getrandbits(order))
        _check_matching_at_least(g, (1 << order) - 1)


def test_matching_at_least_on_small_shapes():
    # the edges of a star or a triangle pairwise meet; one more edge (a
    # pendant, K4's opposite edge, P4's last edge or 2K2) makes two disjoint
    shapes = [
        complete_multipartite([1, 5]),
        complete(3),
        from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        complete(4),
        path_graph(4),
        graph_copies(2, complete(2)),
    ]
    for g in shapes:
        for avail in range(1 << g.order):
            _check_matching_at_least(g, avail)
        # the same shape inside a larger host, at other labels
        rng = random.Random(g.order)
        for _ in range(20):
            labels = rng.sample(range(14), g.order)
            host = from_edges(14, [tuple(sorted((labels[a], labels[b]))) for a, b in g.edges()])
            _check_matching_at_least(host, (1 << 14) - 1)


def test_matching_witness_edges_are_disjoint():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, 10, 0.4)
        w = max_matching(g)
        used = set()
        for u, v in w.groups:
            assert g.has_edge(u, v)
            assert u not in used and v not in used
            used.update((u, v))


# ---------------------------------------------------------------------------
# packings and fans
# ---------------------------------------------------------------------------


def test_kt_packing_examples():
    assert kt_packing(complete(6), 3, 2) is not None
    assert kt_packing(complete(5), 3, 2) is None
    assert kt_packing(graph_copies(2, complete(3)), 3, 2) is not None
    assert kt_packing(graph_copies(2, complete(3)), 3, 3) is None
    w = kt_packing(complete(6), 3, 2)
    assert w.groups == ((0, 1, 2), (3, 4, 5))
    # first witnesses are pinned: certificates hash them, so a change of the
    # search order would change stored certificates
    g = random_graph(random.Random(7), 11, 0.6)
    assert kt_packing(g, 3, 2).groups == ((0, 1, 2), (3, 5, 6))
    assert contains_fan(g, 2, 2).groups == ((0,), (1, 2), (4, 5))
    assert contains_fan(g, 3, 2).groups == ((0,), (1, 2, 7), (4, 5, 6))
    assert contains_copies(g, 2, Fan(2, 1)).groups == ((0, 1, 2), (3, 5, 6))
    p3 = Explicit(path_graph(3))
    assert contains_copies(g, 3, p3).groups == ((0, 1, 2), (3, 5, 4), (6, 7, 8))
    assert contains_copies(g, 2, Explicit(cycle_graph(4))).groups == (
        (0, 1, 2, 5), (3, 6, 4, 8)
    )
    k34 = complete_multipartite([3, 4])
    assert contains_copies(k34, 2, p3).groups == ((0, 3, 1), (4, 2, 5))
    assert contains_copies(k34, 3, p3) is None
    # only the image of vertex 0 is ordered: the second copy must use vertex
    # 0, below the first copy's start
    h = from_edges(6, [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 5)])
    assert contains_copies(h, 2, p3).groups == ((1, 4, 5), (2, 0, 3))


def test_contains_fan_examples():
    wheel4 = join(complete(1), cycle_graph(4))  # hub 0 over a 4-cycle
    assert contains_fan(wheel4, 2, 2) is not None
    assert contains_fan(wheel4, 3, 1) is None  # no triangle among the rim
    assert contains_fan(complete_multipartite([3, 3]), 2, 1) is None  # triangle-free
    assert contains_fan(complete(7), 3, 2) is not None
    assert contains_fan(complete(6), 3, 2) is None  # order 7 pattern
    f = generalized_fan(4, 3)
    assert contains_fan(f, 4, 3) is not None
    assert contains_fan(f, 4, 4) is None
    # hub 0 over K6 on 1..6 and the edge 7-8: 7 and 8 are in no triangle of
    # the hub's neighborhood, so peeling them changes no packing
    g = join(complete(1), disjoint_union(complete(6), complete(2)))
    assert contains_fan(g, 3, 2).groups == ((0,), (1, 2, 3), (4, 5, 6))
    assert contains_fan(g, 3, 3) is None


def test_fan_matching_filter_keeps_first_witness():
    # F:2,n centers are filtered by their neighborhood's matching number.
    # Both neighborhoods below have four non-isolated vertices, and the greedy
    # matching takes one edge (1-2 at center 0, 6-7 at center 5), so blossom
    # decides: a star at center 0 (skipped), a path 8-6-7-9 at center 5
    # (kept). Witnesses are those of the unfiltered packing search.
    g = from_edges(10, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
        (5, 6), (5, 7), (5, 8), (5, 9), (6, 7), (6, 8), (7, 9),
    ])
    assert not _matching_at_least(g.rows, g.rows[0], 2)
    assert _matching_at_least(g.rows, g.rows[5], 2)
    assert contains_fan(g, 2, 2).groups == ((5,), (6, 8), (7, 9))
    h = from_edges(5, [(0, 1), (0, 2), (1, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
    assert contains_fan(h, 2, 2).groups == ((4,), (0, 2), (1, 3))


def test_fan_witness_shape():
    w = contains_fan(complete(7), 3, 2)
    assert w is not None
    center = w.groups[0]
    assert len(center) == 1
    assert len(w.groups) == 3  # center group + 2 blades
    assert all(len(b) == 3 for b in w.groups[1:])


def test_contains_copies_examples():
    two_k3 = graph_copies(2, complete(3))
    assert contains_copies(two_k3, 2, Clique(3)) is not None
    assert contains_copies(disjoint_union(complete(3), complete(2)), 2, Clique(3)) is None
    big = disjoint_union(complete(9), complete(4))
    assert contains_copies(big, 2, Fan(2, 2)) is None  # only K_9 can host one
    assert contains_copies(big, 1, Fan(2, 2)) is not None
    assert contains_copies(complete(10), 2, Fan(2, 2)) is not None


def test_copies_inner_validation():
    with pytest.raises(BadParam):
        contains_copies(complete(6), 2, Matching(1))
    with pytest.raises(BadParam):
        contains_copies(complete(6), 2, Copies(2, Clique(2)))
    with pytest.raises(BadParam):
        contains_copies(complete(6), 2, Explicit(graph_copies(2, complete(2))))
    with pytest.raises(BadParam):
        contains_copies(complete(6), 2, Explicit(empty_graph(0)))


def test_contains_target_dispatch_matches_specialized():
    g = complete(6)
    assert contains_target(g, Clique(4)).groups == contains_clique(g, 4).groups
    assert contains_target(g, Matching(3)) is not None
    assert contains_target(g, Fan(2, 2)) is not None
    assert contains_target(g, parse_target("2xK3")) is not None
    assert contains_target(cycle_graph(4), Explicit(path_graph(3))) is not None
    assert contains_target(cycle_graph(4), Explicit(complete(3))) is None


def test_explicit_empty_pattern_always_present():
    w = contains_target(complete(2), Explicit(empty_graph(0)))
    assert w is not None and w.pattern_order == 0


def test_witnesses_validate():
    pats = [
        Clique(3),
        Matching(2),
        Fan(2, 1),
        Fan(2, 2),
        copies_pattern(2, Clique(3)),
        Explicit(path_graph(4)),
    ]
    for name, g in corpus():
        for pat in pats:
            w = contains_target(g, pat)
            if w is not None:
                assert witness_valid(g, pat, w), (name, pat)


def test_witness_valid_rejects_garbage():
    g = complete(4)
    w = contains_clique(g, 3)
    assert witness_valid(g, Clique(3), w)
    assert not witness_valid(g, Clique(3), EmbeddingWitness(3, ((0, 0, 1),)))
    assert not witness_valid(g, Clique(3), EmbeddingWitness(3, ((0, 1, 9),)))
    assert not witness_valid(cycle_graph(4), Clique(3), EmbeddingWitness(3, ((0, 1, 2),)))
    assert not witness_valid(g, Matching(2), EmbeddingWitness(4, ((0, 1), (1, 2))))
    # one wrong shape per kind, each with every pattern edge on a host edge
    k6 = complete(6)
    assert witness_valid(k6, Fan(2, 1), EmbeddingWitness(3, ((0,), (1, 2))))
    assert not witness_valid(k6, Fan(2, 1), EmbeddingWitness(3, ((0, 1), (2,))))
    two_k3 = copies_pattern(2, Clique(3))
    assert witness_valid(k6, two_k3, EmbeddingWitness(6, ((0, 1, 2), (3, 4, 5))))
    assert not witness_valid(k6, two_k3, EmbeddingWitness(6, ((0, 1, 2, 3), (4, 5))))
    assert not witness_valid(k6, Matching(2), EmbeddingWitness(4, ((0, 1, 2), (3,))))
    p3 = Explicit(path_graph(3))
    assert witness_valid(path_graph(4), p3, EmbeddingWitness(3, ((0, 1, 2),)))
    assert not witness_valid(path_graph(4), p3, EmbeddingWitness(3, ((0, 2, 1),)))
    assert not witness_valid(g, Clique(3), EmbeddingWitness(4, ((0, 1, 2),)))


def _fan_key(emb: tuple[int, ...], t: int):
    return emb[0], frozenset(frozenset(emb[i:i + t]) for i in range(1, len(emb), t))


def test_fans_through_yields_the_fans_that_use_the_edge():
    # _fans_through against its definition: the fans of _fans_iter that map
    # a pattern edge to uv, i.e. uv is a spoke or lies inside a blade
    rng = random.Random(17)
    hits = 0
    for _ in range(40):
        g = random_graph(rng, rng.randrange(3, 10), rng.uniform(0.4, 0.95))
        if not g.edges():
            continue
        u, v = rng.choice(g.edges())
        full = (1 << g.order) - 1
        for t in range(1, 5):
            for n in range(1, 4):
                fan = Fan(t, n)
                through = [_fan_key(emb, t) for emb in _fans_through(g.rows, fan, u, v)]
                assert len(set(through)) == len(through), (fan, u, v)
                want = set()
                for emb in _fans_iter(g.rows, full, fan, 0):
                    c, blades = _fan_key(emb, t)
                    if any(c in (u, v) and {u, v} - {c} <= b or {u, v} <= b for b in blades):
                        want.add((c, blades))
                assert set(through) == want, (fan, u, v, g.edges())
                hits += bool(want)
    assert hits > 100


def test_specialized_agrees_with_oracle():
    rng = random.Random(4242)
    pats = [
        Clique(2), Clique(3), Clique(4),
        Matching(1), Matching(2), Matching(3),
        Fan(2, 1), Fan(2, 2), Fan(3, 1), Fan(3, 2),
        copies_pattern(2, Clique(2)), copies_pattern(2, Clique(3)),
        copies_pattern(2, Fan(2, 1)), copies_pattern(2, Explicit(path_graph(3))),
    ]
    for trial in range(120):
        g = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.15, 0.9))
        pat = pats[trial % len(pats)]
        got = contains_target(g, pat) is not None
        want = oracle_contains(g, pattern_graph(pat))
        assert got == want, (trial, pat, g.edges())


@st.composite
def graph_and_supergraph(draw):
    order = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    extra = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    g = from_edges(order, [p for i, p in enumerate(pairs) if mask >> i & 1])
    h = from_edges(order, [p for i, p in enumerate(pairs) if (mask | extra) >> i & 1])
    return g, h


@settings(max_examples=120, deadline=None)
@given(graph_and_supergraph(), st.sampled_from(
    ["K2", "K3", "M:2", "F:2,1", "2xK2"]
))
def test_containment_monotone_under_edges(pair, text):
    g, h = pair
    pat = parse_target(text)
    if contains_target(g, pat) is not None:
        assert contains_target(h, pat) is not None


# ---------------------------------------------------------------------------
# spellings of one target graph
# ---------------------------------------------------------------------------

# F:t,1 is K_{t+1}, M:1 and F:1,1 are K2, and s copies of K2 are M:s
SPELLINGS = (
    ("K2", "M:1", "F:1,1"),
    ("K3", "F:2,1"),
    ("K4", "F:3,1"),
    ("M:2", "2xK2", "2xF:1,1"),
    ("M:3", "3xK2", "3xF:1,1"),
    ("2xK3", "2xF:2,1"),
    ("2xK4", "2xF:3,1"),
)


def test_kernel_form_resolves_every_spelling_to_one_target():
    for spellings in SPELLINGS:
        forms = {_kernel_form(parse_target(text)) for text in spellings}
        assert forms == {parse_target(spellings[0])}, spellings
    assert _kernel_form(Copies(2, Fan(2, 2))) == Copies(2, Fan(2, 2))
    assert _kernel_form(Fan(1, 3)) == Fan(1, 3)


def test_every_spelling_of_a_target_finds_one_witness():
    # one kernel per target graph: the witnesses of its spellings name the
    # same vertices, grouped by each spelled kind; the witness of F:t,1 is
    # the fan kernel's first fan, its center the lowest vertex of the
    # lexicographically first (t+1)-clique and its blade the rest
    rng = random.Random(2111)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 11), rng.random())
        full = (1 << g.order) - 1
        for spellings in SPELLINGS:
            found = []
            for text in spellings:
                target = parse_target(text)
                w = contains_target(g, target)
                assert w is None or witness_valid(g, target, w), text
                found.append(None if w is None else w.vertices())
            assert len(set(found)) == 1, (spellings, found)
        for t in (1, 2, 3):
            w = contains_target(g, Fan(t, 1))
            first = next(_fans_iter(g.rows, full, Fan(t, 1), 0), None)
            assert (None if w is None else w.vertices()) == first


def test_copies_of_k2_run_the_matching_kernel():
    # three K7 and a vertex joined to all of them: a maximum matching takes
    # three edges in each K7 and one at the joined vertex, 10 in all. Read
    # as 11 copies of K2, the target would be packed over one component of
    # 22 vertices; it is M:11, and blossom settles it at once
    g = join(complete(1), graph_copies(3, complete(7)))
    assert g.order == 22 and oracle_max_matching(g) == 10
    start = time.perf_counter()
    assert contains_target(g, parse_target("11xK2")) is None
    assert time.perf_counter() - start < 1.0
    assert contains_target(g, Matching(11)) is None
    w = contains_target(g, parse_target("10xK2"))
    assert w is not None and witness_valid(g, parse_target("10xK2"), w)


def test_clique_pack_and_copies_through_match_a_brute_force():
    # k disjoint K_m (m = 3, 4, 5; k = 2-4) within a random vertex set, and
    # k disjoint K_m one of which holds a random edge uv (the anchored check
    # of kxK_m), against networkx
    rng = random.Random(23)
    answers = {True: 0, False: 0}
    for _ in range(2000):
        order = rng.randrange(4, 17)
        g = random_graph(rng, order, rng.uniform(0.4, 0.95))
        m, k = rng.choice((3, 4, 5)), rng.randrange(2, 5)
        avail = (1 << order) - 1
        if rng.random() < 0.3:
            avail &= rng.getrandbits(order)
        got = _clique_pack(g.rows, avail, m, k)
        assert got == oracle_clique_packing(g, m, k, bits(avail)), (g.edges(), avail, m, k)
        answers[got] += avail.bit_count() >= m * k
        if g.edges():
            u, v = rng.choice(g.edges())
            got = _new_containment(g.rows, order, copies_pattern(k, Clique(m)), u, v)
            assert got == oracle_clique_packing(g, m, k, through=(u, v)), (g.edges(), u, v)
            answers[got] += order >= m * k
    assert min(answers.values()) > 300, answers


class _Untouchable:
    def __getitem__(self, v):
        raise AssertionError("rows read")


def test_clique_pack_counts_vertices_before_reading_rows():
    # fewer than mk vertices hold no k disjoint K_m, and k = 0 copies need
    # no vertex: neither answer reads a row
    assert not _clique_pack(_Untouchable(), (1 << 8) - 1, 3, 3)
    assert not _clique_pack(_Untouchable(), 0b1100111, 3, 2)
    assert _clique_pack(_Untouchable(), 0, 4, 0)
