from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations, product
from math import factorial

import networkx as nx
import pytest

from fanram.colorings import TwoColoring, check_free, lemma27_construction, thm17_construction
from fanram.errors import BadParam, BudgetExhausted, OrderCap, PreconditionViolated, RangeError
from fanram.graph6 import encode
from fanram.graphs import Graph, complete, from_edges, induced, is_connected
from fanram import patterns
from fanram.patterns import (
    Fan,
    _blossom,
    _contains_rows,
    _fans_through,
    contains_target,
    parse_target,
    pattern_graph,
    pattern_order,
)
from fanram.search import (
    SearchConfig,
    SearchStats,
    _as_pattern,
    _CapTable,
    _color_slots,
    _free_coloring_dfs,
    _has_edge,
    _identity_value,
    _new_containment,
    _sample_min_degree,
    _seed_coloring,
    exists_free_coloring,
    packing_property_check,
    ramsey_number,
    star_critical,
)

from conftest import random_graph


def _free(order: int, red_edges, red_t: str, blue_t: str) -> bool:
    red = from_edges(order, red_edges)
    blue_edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if not red.has_edge(u, v)
    ]
    blue = from_edges(order, blue_edges)
    return (
        contains_target(red, parse_target(red_t)) is None
        and contains_target(blue, parse_target(blue_t)) is None
    )


def oracle_ramsey(red_t: str, blue_t: str, hi: int) -> int:
    """Exhaustive 2^edges scan, no pruning, no symmetry."""
    for order in range(1, hi + 1):
        pairs = list(combinations(range(order), 2))
        found = False
        for mask in range(1 << len(pairs)):
            red = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if _free(order, red, red_t, blue_t):
                found = True
                break
        if not found:
            return order
    raise AssertionError("no value in range")


def oracle_star(red_t: str, blue_t: str, r: int) -> int:
    """Brute force over all base colorings and all star extensions."""
    m = r - 1
    pairs = list(combinations(range(m), 2))
    best = -1
    for mask in range(1 << len(pairs)):
        red = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if not _free(m, red, red_t, blue_t):
            continue
        for choice in product((None, True, False), repeat=m):
            attached = sum(1 for c in choice if c is not None)
            if attached <= best:
                continue
            ext_red = list(red) + [(j, m) for j, c in enumerate(choice) if c is True]
            host_edges = pairs + [(j, m) for j, c in enumerate(choice) if c is not None]
            red_g = from_edges(m + 1, ext_red)
            blue_g = from_edges(
                m + 1, [e for e in host_edges if e not in set(ext_red)]
            )
            if (
                contains_target(red_g, parse_target(red_t)) is None
                and contains_target(blue_g, parse_target(blue_t)) is None
            ):
                best = attached
    assert best >= 0
    return best + 1


def test_k5_triangle_free_coloring_is_pentagon():
    w = exists_free_coloring(complete(5), "K3", "K3")
    assert w is not None
    red = w.red_graph()
    assert all(red.degree(v) == 2 for v in range(5))
    assert is_connected(red)  # 2-regular connected on 5 vertices: a 5-cycle
    assert check_free(w, "K3", "K3").valid


def test_k6_forces_triangles():
    assert exists_free_coloring(complete(6), "K3", "K3") is None


def test_k5_forces_matching_or_fan():
    assert exists_free_coloring(complete(5), "M:2", "F:2,1") is None
    assert exists_free_coloring(complete(4), "M:2", "F:2,1") is not None


def test_ramsey_k3_k3():
    res = ramsey_number("K3", "K3", 3, 8)
    assert res.value == 6 and res.status == "exact"
    assert res.witness.host.order == 5
    assert check_free(res.witness, "K3", "K3").valid


def test_ramsey_agrees_with_blind_oracle():
    cases = [("K3", "K3", 7), ("M:2", "F:2,1", 6), ("M:1", "K3", 4), ("K2", "K4", 5)]
    for red, blue, hi in cases:
        assert ramsey_number(red, blue, 1, hi).value == oracle_ramsey(red, blue, hi)


def test_ramsey_matching_fan_family():
    # r(sK_2, F_{t,n}) = max(s,n) + (t-1)n + s at desk scale
    for s, t, n in [(2, 2, 1), (3, 2, 1), (2, 2, 2), (1, 2, 2), (2, 3, 1)]:
        want = max(s, n) + (t - 1) * n + s
        res = ramsey_number(f"M:{s}", f"F:{t},{n}", 1, want + 2)
        assert res.value == want, (s, t, n)
        assert res.witness.host.order == want - 1
        assert check_free(res.witness, f"M:{s}", f"F:{t},{n}").valid
        assert res.witness.host.order == lemma27_construction(s, t, n).host.order


def test_ramsey_seeding_matches_plain_scan():
    # seeded orientation and the swapped orientation must agree
    a = ramsey_number("M:2", "F:2,2", 1, 8)
    b = ramsey_number("F:2,2", "M:2", 1, 8)
    assert a.value == b.value == 6


def test_ramsey_range_error():
    with pytest.raises(RangeError):
        ramsey_number("K3", "K3", 3, 5)
    # the seeded construction covers the range: the scan is empty
    with pytest.raises(RangeError, match=r"^every order in \[1, 4\] admits a free coloring$"):
        ramsey_number("M:2", "F:2,2", 1, 4)
    with pytest.raises(BadParam):
        ramsey_number("K3", "K3", 5, 3)


def test_ramsey_lo_above_the_value_raises():
    # K7 refuted, and so is the witness order K6: the value lies below lo
    with pytest.raises(RangeError, match="below 7"):
        ramsey_number("K3", "K3", 7, 9)
    res = ramsey_number("K3", "K3", 6, 9)
    assert (res.value, res.status) == (6, "exact")
    assert res.witness.host == complete(5) and check_free(res.witness, "K3", "K3").valid
    res = ramsey_number("K1", "K3", 1, 3)
    assert (res.value, res.witness) == (1, None)


def test_ramsey_budget_exhaustion():
    res = ramsey_number("K4", "K4", 3, 18, SearchConfig(node_budget=500))
    assert res.status == "budget_exhausted"
    assert res.value is None and res.witness is None
    assert res.stats.nodes > 500


def test_negative_budget_is_rejected():
    with pytest.raises(BadParam, match="node_budget must be at least 0, got -5"):
        ramsey_number("K3", "K3", 3, 8, SearchConfig(node_budget=-5))
    res = ramsey_number("K3", "K3", 3, 8, SearchConfig(node_budget=0))
    assert (res.status, res.stats.nodes) == ("budget_exhausted", 1)


def test_exists_budget_raises():
    with pytest.raises(BudgetExhausted) as exc:
        exists_free_coloring(complete(8), "K4", "K4", SearchConfig(node_budget=100))
    assert exc.value.stats is not None
    assert exc.value.stats.nodes > 100


def test_deep_search_needs_no_frame_per_edge():
    # K46 has 1035 edges, more than the interpreter allows frames; no
    # 2-coloring of 46 vertices holds a matching of 30 edges, so the first
    # all-red branch is free and costs one node per edge
    stats = SearchStats()
    w = exists_free_coloring(
        complete(46), "M:30", "M:30", SearchConfig(node_budget=5000), _stats=stats
    )
    assert w is not None and check_free(w, "M:30", "M:30").valid
    assert stats.nodes == 1035


C4 = "G6:" + encode(from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
P3 = "G6:" + encode(from_edges(3, [(0, 1), (1, 2)]))


@pytest.mark.parametrize(
    "target",
    [
        "K4", "K5", "F:1,3", "F:2,2", "F:2,3", "F:2,4", "F:3,1", "F:3,2", "M:3", "2xK3",
        "2xF:2,1", "3xF:2,1", "2xF:1,3", "2xF:2,2", "2xF:3,1", "2xF:3,2", C4, "2x" + P3,
        "F:2,5", "F:4,2", "2xK4", "K3", "M:2", "M:4", "M:5",
    ],
)
def test_anchored_containment_matches_full_check(target):
    t = _as_pattern(target)
    _check_anchored_against_full(t, max(9, pattern_order(t) + 1), 30)


@pytest.mark.parametrize(
    "target", ["2xK3", "3xF:2,1", "4xF:2,1", "2xK4", "F:3,2", "F:3,3", "F:4,2"]
)
def test_anchored_containment_matches_full_check_on_k13(target):
    # the clique packer's targets on the order of the frontier searches
    _check_anchored_against_full(_as_pattern(target), 13, 30)


def _check_anchored_against_full(t, n: int, runs: int) -> None:
    # seeded random colorings of K_n built edge by edge: while the class
    # that receives the edge was free before it, the check anchored at that
    # edge must agree with the full one
    rng = random.Random(11)
    edges = list(combinations(range(n), 2))
    checked = hits = 0
    for _ in range(runs):
        rng.shuffle(edges)
        p_red = rng.random()
        rows = ([0] * n, [0] * n)
        free = [True, True]
        for u, v in edges:
            c = 0 if rng.random() < p_red else 1
            cls = rows[c]
            cls[u] |= 1 << v
            cls[v] |= 1 << u
            if free[c]:
                full = _contains_rows(cls, n, t) is not None
                assert _new_containment(cls, n, t, u, v) == full, (u, v)
                free[c] = not full
                checked += 1
                hits += full
    assert 0 < hits < checked


def test_anchored_fan_check_matches_fans_through():
    # for t >= 3 the check packs the other n-1 blades with _clique_pack
    # after each start, and for t = 1 it reads two degrees; it must answer
    # as the embedding generator does
    rng = random.Random(29)
    answers = Counter()
    for _ in range(2000):
        order = rng.randrange(4, 17)
        g = random_graph(rng, order, rng.uniform(0.4, 0.95))
        if not g.edges():
            continue
        u, v = rng.choice(g.edges())
        fans = [Fan(t, n) for t in (3, 4) for n in (1, 2, 3)] + [Fan(1, n) for n in (2, 3, 4)]
        for fan in fans:
            want = next(_fans_through(g.rows, fan, u, v), None) is not None
            assert _new_containment(g.rows, order, fan, u, v) == want, (g.edges(), fan, u, v)
            answers[want] += 1
    assert min(answers.values()) > 1000, answers


def test_anchored_clique_checks_avoid_the_generic_packer(monkeypatch):
    # copies of K3 and the blades of F:3,2 are packed by _clique_pack, and
    # a star F:1,3 needs no blades at all; with the witness path's packing
    # generator, blade packer and greedy bound made to raise, every answer
    # stays the same
    rng = random.Random(31)
    cases = []
    for _ in range(300):
        order = rng.randrange(6, 15)
        g = random_graph(rng, order, rng.uniform(0.4, 0.95))
        if g.edges():
            u, v = rng.choice(g.edges())
            for target in ("2xK3", "3xK3", "F:3,2", "F:1,3"):
                t = _as_pattern(target)
                cases.append((g.rows, order, t, u, v, _new_containment(g.rows, order, t, u, v)))

    def boom(*args, **kwargs):
        raise AssertionError("generic packing path")

    for name in ("_packings", "_blades", "_greedy_bound"):
        monkeypatch.setattr(patterns, name, boom)
    assert [_new_containment(*case[:5]) for case in cases] == [case[5] for case in cases]
    assert Counter(case[5] for case in cases).keys() == {True, False}


@pytest.mark.parametrize(
    "blue, order, budget, stats",
    [
        ("F:3,2", 13, 4000, (4001, 719, 852, 243, 336)),
        ("3xF:2,1", 11, 100000, (100001, 20241, 26272, 2108, 2734)),
    ],
)
def test_clique_packs_keep_the_search_counts(blue, order, budget, stats):
    # the anchored copies and fan checks answer as before, so the DFS takes
    # the same decisions: node and prune counts are pinned
    res = ramsey_number("K3", blue, order, order, SearchConfig(node_budget=budget))
    assert res.status == "budget_exhausted"
    assert res.stats == SearchStats(*stats)


def _count_anchored_blossoms(monkeypatch) -> list[int]:
    """Patch _blossom and _new_containment so that the returned one-item
    list counts the _blossom calls made inside the anchored check."""
    depth = 0
    blossoms = [0]

    def counted_blossom(*args, **kwargs):
        blossoms[0] += depth > 0
        return _blossom(*args, **kwargs)

    def tracked(*args):
        nonlocal depth
        depth += 1
        try:
            return _new_containment(*args)
        finally:
            depth -= 1

    monkeypatch.setattr("fanram.patterns._blossom", counted_blossom)
    monkeypatch.setattr("fanram.search._new_containment", tracked)
    return blossoms


def test_fan22_centers_need_no_blossom(monkeypatch):
    # an F:2,n center u gains its fan through spoke uv, so a common neighbor
    # w is v's blade partner and n-1 more edges lie in N(u) - {v, w}; for
    # F:2,2 that is a one-edge scan, and the DFS runs no blossom at all;
    # the (K4, M:2) cap is seeded by lemma27, K4 read as F:3,1
    blossoms = _count_anchored_blossoms(monkeypatch)
    res = ramsey_number("K4", "F:2,2", 13, 13, SearchConfig(node_budget=14000))
    assert res.status == "budget_exhausted"
    assert blossoms == [0]
    assert res.stats == SearchStats(
        nodes=14001, red_prunes=2063, blue_prunes=2762, degree_prunes=1998, iso_prunes=312
    )


def test_small_matchings_need_no_blossom(monkeypatch):
    # M:s needs s-1 disjoint edges avoiding u and v, and F:2,n centers n-1
    # in a neighborhood; up to three disjoint edges are found without
    # blossom, so M:s with s <= 4 and F:2,n with n <= 4 run none in the DFS
    blossoms = _count_anchored_blossoms(monkeypatch)
    res = ramsey_number("K3", "M:4", 1, 12)
    assert (res.value, res.status) == (9, "exact")
    assert res.stats == SearchStats(
        nodes=2483, red_prunes=363, blue_prunes=602, degree_prunes=54, iso_prunes=451
    )
    star = star_critical("M:3", "F:2,2", 8)
    assert star.value == 6
    assert star.stats == SearchStats(
        nodes=2493, red_prunes=591, blue_prunes=400, degree_prunes=27, iso_prunes=448
    )
    assert blossoms == [0]


def _free_colorings(order: int, red, blue, iso: bool) -> list[tuple[int, ...]]:
    """Red rows of every free coloring the DFS reaches on K_order with no
    degree windows; iso=False reaches every labeled one."""
    zero = [0] * order
    return [
        rows_red
        for rows_red, _ in _color_slots(
            complete(order).edges(), zero[:], zero[:], _as_pattern(red), _as_pattern(blue),
            SearchConfig(), SearchStats(), iso=iso,
        )
    ]


def _red_classes(order: int, colorings) -> list[nx.Graph]:
    """One networkx red graph per isomorphism class of the colorings."""
    reps: list[nx.Graph] = []
    for rows_red in colorings:
        g = nx.empty_graph(order)
        g.add_edges_from((u, v) for u, v in complete(order).edges() if rows_red[u] >> v & 1)
        if not any(nx.is_isomorphic(g, h) for h in reps):
            reps.append(g)
    return reps


@pytest.mark.parametrize(
    "red, blue, order",
    [
        ("K3", "K3", 5), ("K3", "K4", 6), ("K3", "K4", 7), ("K3", "F:2,2", 7),
        ("K3", "F:2,2", 8), ("M:3", "F:2,2", 7), ("K3", "M:3", 6),
    ],
)
def test_iso_rule_keeps_every_isomorphism_class(red, blue, order):
    # the plain enumeration holds every labeled free coloring, so it is the
    # disjoint union of the orbits of its classes, each of n!/|Aut| colorings;
    # the canonical one is a subset whose classes' orbits must fill it
    plain = set(_free_colorings(order, red, blue, iso=False))
    canonical = _free_colorings(order, red, blue, iso=True)
    assert plain.issuperset(canonical)
    orbits = 0
    for g in _red_classes(order, canonical):
        automorphisms = sum(1 for _ in nx.isomorphism.GraphMatcher(g, g).isomorphisms_iter())
        orbits += factorial(order) // automorphisms
    assert orbits == len(plain)


def test_iso_rule_gives_published_class_counts():
    # Ramsey-graph counts (Radziszowski, DS1): one (3,3)-graph on 5
    # vertices, nine (3,4)-graphs on 7 and three on 8
    for red, blue, order, classes in [("K3", "K3", 5, 1), ("K3", "K4", 7, 9), ("K3", "K4", 8, 3)]:
        canonical = _free_colorings(order, red, blue, iso=True)
        assert len(_red_classes(order, canonical)) == classes


def test_star_critical_k3_k3():
    res = star_critical("K3", "K3", 6)
    assert res.value == 5 and res.status == "exact"
    w = res.witness
    assert w.host.order == 6
    assert w.host.degree(5) == 4  # the star vertex carries 4 edges
    assert check_free(w, "K3", "K3").valid
    # the extension bound is checked when a level is entered, not on return
    assert res.stats.nodes == 52


def test_star_critical_fan_alias():
    # F_{2,1} is a triangle, so the pair is the same computation
    assert star_critical("K3", "F:2,1", 6).value == 5


def test_star_critical_vs_oracle():
    assert star_critical("M:2", "F:2,1", 5).value == oracle_star("M:2", "F:2,1", 5)
    assert star_critical("M:1", "K3", 3).value == oracle_star("M:1", "K3", 3)
    assert star_critical("M:2", "F:2,2", 6).value == oracle_star("M:2", "F:2,2", 6)


def test_star_critical_range_invariant():
    for red, blue, r in [("K3", "K3", 6), ("M:2", "F:2,1", 5), ("M:2", "F:2,2", 6)]:
        value = star_critical(red, blue, r).value
        assert 1 <= value <= r - 1


def test_star_critical_canonical_bases_match_oracle():
    # base colorings are enumerated up to isomorphism only; the brute-force
    # oracle sees every labeled base
    for red, blue, r in [("M:2", "F:2,1", 5), ("K3", "K3", 6)]:
        res = star_critical(red, blue, r)
        assert res.value == oracle_star(red, blue, r), (red, blue)
        assert res.witness.host.degree(r - 1) == res.value - 1
        assert check_free(res.witness, red, blue).valid


def test_star_critical_value_zero_when_every_base_is_blocked():
    # G6:Cw is K3 plus an isolated vertex and r(G6:Cw, K2) = 4: the fresh
    # vertex completes a red G6:Cw on every free base before any star edge
    # is colored, so no base extends and the value is 0, with no witness
    assert ramsey_number("G6:Cw", "K2", 1, 6).value == 4
    res = star_critical("G6:Cw", "K2", 4)
    assert (res.value, res.witness, res.status) == (0, None, "exact")


def test_star_critical_preconditions():
    with pytest.raises(PreconditionViolated):
        star_critical("K3", "K3", 5)  # K_5 still has a free coloring
    with pytest.raises(PreconditionViolated):
        star_critical("K3", "K3", 7)  # K_6 already forces
    with pytest.raises(BadParam):
        star_critical("K3", "K3", 2)
    # r is checked against the order cap before any search
    with pytest.raises(OrderCap, match=r"^order 129 exceeds 128$"):
        star_critical("K3", "K3", 129)


@pytest.mark.parametrize(
    "red, blue, value",
    [
        ("M:3", "F:2,2", 8), ("K3", "M:3", 7), ("K3", "K3", 6), ("M:2", "F:2,1", 5),
        ("M:1", "K3", 3), ("M:2", "F:2,2", 6), ("K3", "K4", 9), ("K3", "M:4", 9),
        ("K3", "2xF:2,1", 8), ("M:3", "M:2", 7),
    ],
)
def test_star_critical_finds_a_free_k_r_in_its_base_pass(red, blue, value):
    # star_critical runs no search of K_r: an extension of a base by all
    # r - 1 star edges is a free coloring of K_r, and every free coloring of
    # K_r restricts to a base that extends that far, so the base pass raises
    # exactly when the search of K_r finds a free coloring
    for r in range(max(3, value - 1), value + 2):
        try:
            outcome = star_critical(red, blue, r).status
        except PreconditionViolated as exc:
            outcome = str(exc)
        k_r_free = exists_free_coloring(complete(r), red, blue) is not None
        refused = outcome == f"K_{r} admits a free coloring, so r is not the Ramsey number"
        assert refused == k_r_free, (r, outcome)
        assert (outcome == "exact") == (r == value), (r, outcome)


def test_ramsey_seeds_from_construction_one_order_below_lo():
    # thm17(3,1,2,2) colors K8 freely, so with lo = 9 only K9 is searched
    res = ramsey_number("K3", "F:2,2", 9, 9)
    assert res.value == 9 and res.status == "exact"
    assert res.witness == thm17_construction(3, 1, 2, 2)
    stats = SearchStats()
    assert exists_free_coloring(complete(9), "K3", "F:2,2", _stats=stats) is None
    assert res.stats == stats


def _plain_first(order: int, red, blue):
    stats = SearchStats()
    host = complete(order)
    found = next(_free_coloring_dfs(host, red, blue, SearchConfig(), stats, None), None)
    return None if found is None else TwoColoring(host, Graph(order, found[0]))


def _all_free(order: int, red, blue, windowed: bool) -> set:
    cfg, stats = SearchConfig(), SearchStats()
    caps = _CapTable(cfg, stats) if windowed else None
    return set(map(tuple, _free_coloring_dfs(complete(order), red, blue, cfg, stats, caps)))


@pytest.mark.parametrize(
    "red, blue, value",
    [
        ("K3", "K3", 6),
        ("K3", "K4", 9),
        ("K3", "F:2,2", 9),
        ("K3", "F:3,1", 9),
        ("K4", "F:2,1", 9),
        ("M:2", "F:2,2", 6),
        ("K3", "2xF:2,1", 8),
        ("F:1,1", "F:2,2", 5),
        ("K3", "M:3", 7),
        ("M:3", "M:2", 7),
        ("K3", "2xK3", 8),
        ("M:2", "2xF:2,1", 7),
        ("M:2", "2xF:3,1", 9),
    ],
)
def test_degree_windows_match_plain_search(red, blue, value):
    red_t, blue_t = _as_pattern(red), _as_pattern(blue)
    for order in range(1, value + 1):
        windowed = exists_free_coloring(complete(order), red_t, blue_t)
        assert windowed == _plain_first(order, red_t, blue_t), order
        assert (windowed is None) == (order == value)
        if order <= 6:
            assert _all_free(order, red_t, blue_t, True) == _all_free(
                order, red_t, blue_t, False
            ), order
    res = ramsey_number(red, blue, 1, value + 1)
    assert res.value == value
    for cap in res.caps:
        if cap.value is not None:
            assert ramsey_number(cap.red, cap.blue, 1, cap.value).value == cap.value
        elif cap.free_order:
            assert exists_free_coloring(complete(cap.free_order), cap.red, cap.blue)
        assert cap.caps_for


@pytest.mark.parametrize(
    "red, blue",
    [
        ("K3", "M:2"),
        ("M:2", "M:2"),
        ("K3", "M:3"),
        ("M:2", "M:3"),
        ("F:2,1", "M:3"),
        ("K2", "2xK3"),
        ("M:2", "2xK3"),
    ],
)
def test_union_bound_is_at_least_the_oracle_value(red, blue):
    # B - x = G + H for x vertex 0 of B (an apex of one copy), and the window
    # bounds r(R, G + H) by max(r(R, G) + |V(H)|, r(R, H)) under the better
    # of the two namings of the parts: at least the blind oracle's value
    red_t, blue_t = _as_pattern(red), _as_pattern(blue)
    g = pattern_graph(blue_t)
    minus_x = "G6:" + encode(induced(g, range(1, g.order)))

    def bound(color, red_t, blue_t):
        return _CapTable(SearchConfig(), SearchStats())._bound_minus_vertex(
            color, red_t, blue_t, 20
        )

    hi = bound("blue", red_t, blue_t)
    assert hi < 20 and bound("red", blue_t, red_t) == hi
    # the oracle raises when every order up to hi admits a free coloring
    assert oracle_ramsey(red, minus_x, hi) <= hi


def test_copies_of_cliques_are_seeded_as_copies_of_fans():
    # 2xK3 is 2xF:2,1: both are seeded by thm17(3,2,2,1), a free coloring
    # of K7, and search the same tree
    assert _seed_coloring(_as_pattern("K3"), _as_pattern("2xK3")).host.order == 7
    plain, fans = ramsey_number("K3", "2xK3", 1, 9), ramsey_number("K3", "2xF:2,1", 1, 9)
    assert plain.value == fans.value == 8
    assert plain.stats.nodes == fans.stats.nodes


# every spelling of one pair: F:t,1 is K_{t+1}, M:1 and F:1,1 are K2, and
# s copies of K2 are M:s
RAMSEY_SPELLINGS = [
    ["K3 K3", "K3 F:2,1", "F:2,1 K3", "F:2,1 F:2,1"],
    ["K3 M:2", "K3 2xK2", "K3 2xF:1,1"],
    ["M:1 K3", "K2 K3", "F:1,1 K3"],
    ["K4 F:2,1", "K4 K3"],
    ["K3 K4", "K3 F:3,1"],
    ["K3 2xF:2,1", "K3 2xK3"],
    ["M:2 K4", "M:2 F:3,1"],
    ["K3 M:4", "K3 4xK2"],
]


@pytest.mark.parametrize("spellings", RAMSEY_SPELLINGS)
def test_every_spelling_of_a_pair_runs_one_ramsey_search(spellings):
    results = [ramsey_number(*pair.split(), 1, 12) for pair in spellings]
    first = results[0]
    assert first.status == "exact"
    for pair, res in zip(spellings, results):
        assert (res.value, res.witness, res.stats, res.caps) == (
            first.value, first.witness, first.stats, first.caps
        ), pair


@pytest.mark.parametrize(
    "spellings, r",
    [(["K3 K3", "K3 F:2,1"], 6), (["K3 M:3", "K3 3xK2"], 7), (["M:2 K3", "M:2 F:2,1"], 5)],
)
def test_every_spelling_of_a_pair_runs_one_star_search(spellings, r):
    results = [star_critical(*pair.split(), r) for pair in spellings]
    first = results[0]
    for pair, res in zip(spellings, results):
        assert (res.value, res.witness, res.stats, res.caps) == (
            first.value, first.witness, first.stats, first.caps
        ), pair


def test_seed_rule_reads_kk_as_a_fan_and_k2_as_a_matching():
    # on the fan side K_k (k >= 2) stands for F:k-1,1, alone or inside copies
    seed = _seed_coloring(_as_pattern("K3"), _as_pattern("K4"))
    assert seed == thm17_construction(3, 1, 3, 1)
    seed = _seed_coloring(_as_pattern("M:2"), _as_pattern("K4"))
    assert seed == lemma27_construction(2, 3, 1)
    # on the matching side K2 stands for M:1; thm17 needs K_m with m >= 3
    seed = _seed_coloring(_as_pattern("M:1"), _as_pattern("F:2,2"))
    assert seed == lemma27_construction(1, 2, 2)
    assert ramsey_number("K2", "F:2,2", 1, 8).stats.nodes == 0
    # no other reading: M:2 is not two copies of F:1,1, so (K3, M:2) is
    # seeded by lemma27 with K3 read as F:2,1, colors swapped, not thm17
    swapped = lemma27_construction(2, 2, 1)
    swapped = TwoColoring(swapped.host, swapped.blue_graph())
    seed = _seed_coloring(_as_pattern("K3"), _as_pattern("2xF:1,1"))
    assert seed == swapped != thm17_construction(3, 2, 1, 1)


def test_k2_identity_holds_for_every_target():
    # a coloring with no red edge is all blue, and K_N holds H exactly when
    # N >= |V(H)|, isolated vertices or not
    k2 = _as_pattern("K2")
    for text in ("K1", "3xK1", "K3", "M:2", "G6:" + encode(from_edges(3, [(0, 1)]))):
        h = _as_pattern(text)
        value = oracle_ramsey("K2", text, pattern_order(h) + 1)
        assert _identity_value(k2, h) == _identity_value(h, k2) == value == pattern_order(h)
    assert _identity_value(_as_pattern("K3"), _as_pattern("K3")) is None


def test_degree_caps_identities_and_cones():
    # thm17(4,1,2,2) colors K12, so the search starts at K13; the caps are
    # settled at its root, before the budget runs out in its DFS
    res = ramsey_number("K4", "F:2,2", 13, 13, SearchConfig(node_budget=3000))
    found = {(cap.red, cap.blue): cap for cap in res.caps}
    # K4 = K1 + K3 and F:2,2 = K1 + 2K2
    red_cap = found[(_as_pattern("K3"), _as_pattern("F:2,2"))]
    blue_cap = found[(_as_pattern("K4"), _as_pattern("M:2"))]
    assert ("red", _as_pattern("K4"), _as_pattern("F:2,2")) in red_cap.caps_for
    assert ("blue", _as_pattern("K4"), _as_pattern("F:2,2")) in blue_cap.caps_for
    # r(K2, H) = |V(H)| needs no search
    k2 = found[(_as_pattern("K2"), _as_pattern("F:2,2"))]
    assert (k2.value, k2.source, k2.nodes) == (5, "identity", 0)
    # the scan of r(K3, F:2,2) starts above thm17(3,1,2,2) on K8
    assert red_cap.source == "search" and red_cap.free_order >= 8
    assert (red_cap.value, blue_cap.value) == (9, 6)


def test_has_edge_reads_the_pattern_parameters():
    small = ["K1", "K2", "K5", "F:1,1", "F:2,3", "M:1", "M:4", "3xK1", "2xK3", "G6:B?", "G6:Bg"]
    for text in small:
        p = _as_pattern(text)
        assert _has_edge(p) == any(pattern_graph(p).rows), text
    # past the order cap, where pattern_graph raises
    assert _has_edge(_as_pattern("K200")) and _has_edge(_as_pattern("M:100"))
    assert not _has_edge(_as_pattern("200xK1"))


def test_cap_scans_share_the_node_budget():
    # K18 needs r(K3, K4) = 9 as a cap, whose scan runs out of budget first
    res = ramsey_number("K4", "K4", 18, 18, SearchConfig(node_budget=50))
    assert res.status == "budget_exhausted"
    assert res.stats.nodes == 51
    assert sum(cap.nodes for cap in res.caps) == 51
    again = ramsey_number("K4", "K4", 18, 18, SearchConfig(node_budget=50))
    assert again.stats == res.stats and again.caps == res.caps


def test_cap_scans_build_no_colorings(monkeypatch):
    # K47 for (K30, K30) spends its whole budget scanning the cap r(K29, K30)
    # up to K23; smaller pairs such as r(K28, K30) >= 30 cannot bind below
    # K30 and are never scanned. A scan only asks whether a free coloring
    # exists, so the call builds no TwoColoring. Stats and caps are pinned:
    # building no coloring must not change what the scans count.
    built = []
    post_init = TwoColoring.__post_init__
    monkeypatch.setattr(
        TwoColoring, "__post_init__", lambda self: built.append(1) or post_init(self)
    )
    res = ramsey_number("K30", "K30", 47, 48, SearchConfig(node_budget=2000))
    assert built == []
    assert res.status == "budget_exhausted"
    assert res.stats == SearchStats(nodes=2001)
    assert sum(cap.nodes for cap in res.caps) == 2001
    assert len(res.caps) == 1
    assert {(cap.source, cap.value) for cap in res.caps} == {("search", None)}
    assert res.caps[0].caps_for == [("red", _as_pattern("K30"), _as_pattern("K30"))]
    # K1..K22 take C(k, 2) nodes each, C(23, 3) = 1,771 in all, and K23 the rest
    assert sorted(Counter((cap.free_order, cap.nodes) for cap in res.caps).items()) == [
        ((22, 2001), 1),
    ]
    caps = [
        (cap.red, cap.blue, cap.source, cap.free_order, cap.value, cap.nodes, cap.caps_for)
        for cap in res.caps
    ]
    assert hashlib.sha256(repr(caps).encode()).hexdigest() == (
        "62cf263d87d4e65302ff52fa72100cb55b811600a1d31281f9e7bf0e9a646625"
    )


def test_star_critical_budget():
    res = star_critical("K3", "K3", 6, SearchConfig(node_budget=50))
    assert res.status == "budget_exhausted" and res.value is None


def test_packing_property_small():
    rep = packing_property_check(2, 2, 30)
    assert rep.ok and rep.trials == 30
    rep = packing_property_check(3, 1, 10)
    assert rep.ok
    assert rep.min_degree_floor == 2


def test_packing_determinism_and_seeds():
    a = packing_property_check(2, 3, 25, seed=7)
    b = packing_property_check(2, 3, 25, seed=7)
    assert a == b
    c = packing_property_check(2, 3, 25, seed=8)
    assert c.ok


def test_min_degree_sampling_augments_a_sparse_sample():
    # a generator whose every coin says no edge rejects all twenty samples;
    # the last, empty one is then augmented up to the floor
    class NoEdges(random.Random):
        def random(self):
            return 1.0

    for order, floor in ((6, 3), (7, 6), (9, 4)):
        g = _sample_min_degree(NoEdges(5), order, floor)
        assert g.order == order
        assert min(g.degree(v) for v in range(order)) >= floor


def test_packing_validation():
    with pytest.raises(BadParam):
        packing_property_check(1, 3, 5)
    with pytest.raises(BadParam):
        packing_property_check(3, 9, 5)  # order 27 over the cap
    with pytest.raises(BadParam):
        packing_property_check(2, 2, 0)


def test_explicit_targets_in_search():
    # triangle as an explicit pattern behaves like K3
    res = ramsey_number("G6:Bw", "K3", 3, 8)
    assert res.value == 6


def test_non_complete_host():
    # a path host cannot force anything interesting: color everything red-free
    host = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    w = exists_free_coloring(host, "K3", "K3")
    assert w is not None
    assert check_free(w, "K3", "K3").valid
