from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fanram
from fanram.colorings import (
    Certificate,
    TwoColoring,
    burr_coloring,
    certificate_obj,
    check_free,
    lemma27_construction,
    load_certificate,
    serialize_certificate,
    thm17_construction,
    verify_lemma24,
)
from fanram.graph6 import encode
from fanram.errors import (
    BadParam,
    CorruptRecord,
    FanramError,
    OrderCap,
    PreconditionViolated,
    StructureNotFound,
)
from fanram.graphs import (
    complement,
    complete,
    complete_multipartite,
    components,
    copies,
    empty_graph,
    from_edges,
    induced,
    is_connected,
)
from fanram.patterns import Clique, EmbeddingWitness, Fan, copies_pattern, parse_target

from conftest import cycle_graph, random_graph


def test_two_coloring_validation():
    host = complete(3)
    c = TwoColoring(host, from_edges(3, [(0, 1)]))
    assert c.blue_graph().edges() == [(0, 2), (1, 2)]
    with pytest.raises(BadParam, match="^red graph order differs from host order$"):
        TwoColoring(host, empty_graph(4))
    with pytest.raises(BadParam, match=r"^red edge \(0, 2\) not in the host$"):
        TwoColoring(from_edges(3, [(0, 1)]), from_edges(3, [(0, 2)]))


def test_coloring_graph_views():
    host = complete(4)
    red = from_edges(4, [(0, 1), (2, 3)])
    c = TwoColoring(host, red)
    # the red graph is stored as given; blue is built once, as host minus red
    assert c.red is red and c.red_graph() is red
    assert c.blue_graph() == complement(red)
    assert c.blue_graph() is c.blue_graph()
    # colorings compare as labelled graphs
    assert TwoColoring(host, from_edges(4, [(2, 3), (0, 1)])) == c
    assert TwoColoring(host, from_edges(4, [(0, 2), (1, 3)])) != c
    c = TwoColoring(cycle_graph(5), from_edges(5, [(0, 1), (0, 4)]))
    assert c.blue_graph().edges() == [(1, 2), (2, 3), (3, 4)]


def test_two_coloring_rejects_the_first_bad_red_edge():
    # the edge named is the lowest (u, v), in row order, that is red but not
    # a host edge
    host = from_edges(6, [(0, 1), (1, 2), (2, 3)])
    for red, first in (
        ([(0, 1), (3, 4), (2, 1)], (3, 4)),
        ([(4, 5), (2, 1), (0, 5)], (0, 5)),
        ([(1, 2), (0, 3), (2, 0)], (0, 2)),
    ):
        with pytest.raises(BadParam) as exc:
            TwoColoring(host, from_edges(6, red))
        assert str(exc.value) == f"red edge {first} not in the host"
    rng = random.Random(14)
    for _ in range(200):
        host, red = random_graph(rng, 9, 0.6), random_graph(rng, 9, 0.3)
        outside = [e for e in red.edges() if not host.has_edge(*e)]
        if not outside:
            assert TwoColoring(host, red).blue_graph().size() == host.size() - red.size()
            continue
        with pytest.raises(BadParam) as exc:
            TwoColoring(host, red)
        assert str(exc.value) == f"red edge {min(outside)} not in the host"


def test_every_public_name_is_exported():
    for name in fanram.__all__:
        assert hasattr(fanram, name), name


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def test_burr_coloring_structure():
    c = burr_coloring(3, 1, 17)
    assert c.host.order == 32
    blue = c.blue_graph()
    comps = components(blue)
    assert len(comps) == 2
    for mask in comps:
        vs = [v for v in range(32) if mask >> v & 1]
        assert len(vs) == 16
        assert induced(blue, vs) == complete(16)
    # red side is the complete bipartite complement
    red = c.red_graph()
    assert red.size() == 16 * 16


def test_burr_coloring_surplus_block():
    c = burr_coloring(3, 2, 5)
    # two K_4 blocks then a K_1 block: 2*(5-1)+2-1 = 9 vertices
    assert c.host.order == 9
    blue = c.blue_graph()
    sizes = sorted(m.bit_count() for m in components(blue))
    assert sizes == [1, 4, 4]
    # surplus block sits at the end of the vertex range
    assert blue.degree(8) == 0


def test_burr_coloring_validation():
    for args in ((1, 1, 5), (3, 0, 5), (3, 1, 0), (3, 4, 2)):
        with pytest.raises(BadParam):
            burr_coloring(*args)
    with pytest.raises(OrderCap):
        burr_coloring(3, 1, 100)


def test_thm17_structure_and_equalities():
    c = thm17_construction(3, 2, 2, 2)
    assert c.host.order == 13
    assert c.red_graph() == complete_multipartite([9, 4])
    # labeled coincidence of the two constructions at the overlap point
    assert thm17_construction(3, 1, 4, 4) == burr_coloring(3, 1, 17)
    c2 = thm17_construction(4, 1, 2, 3)
    assert c2.host.order == 18
    assert check_free(c2, Clique(4), Fan(2, 3)).valid


def test_thm17_order_formula_grid():
    for m in (3, 4):
        for s in (1, 2):
            for t in (2, 3):
                for n in (1, 2, 3):
                    c = thm17_construction(m, s, t, n)
                    assert c.host.order == t * n * (m + s - 2) + s - 1
                    cert = check_free(c, Clique(m), copies_pattern(s, Fan(t, n)))
                    assert cert.valid, (m, s, t, n)


def test_thm17_validation():
    with pytest.raises(BadParam):
        thm17_construction(2, 1, 2, 2)
    with pytest.raises(BadParam):
        thm17_construction(3, 0, 2, 2)
    with pytest.raises(OrderCap):
        thm17_construction(10, 2, 4, 4)  # order 16*10+1 = 161


def test_lemma27_case1_bipartite():
    c = lemma27_construction(2, 2, 2)
    assert c.host.order == 5
    red = c.red_graph()
    assert red.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    from fanram.patterns import max_matching

    assert len(max_matching(red).groups) == 1
    cert = check_free(c, "M:2", "F:2,2")
    assert cert.valid


def test_lemma27_case2_small():
    c = lemma27_construction(2, 2, 1)
    assert c.host.order == 4
    red = c.red_graph()
    sizes = sorted(m.bit_count() for m in components(red))
    assert sizes == [1, 3]
    blue = c.blue_graph()
    assert blue.size() == 3 and blue.degree(0) == 3  # the isolated red vertex hubs a blue star
    assert check_free(c, "M:2", "F:2,1").valid


def test_lemma27_order_deficit_case():
    c = lemma27_construction(1, 3, 2)
    assert c.host.order == 6
    assert c.blue_graph() == complete(6)
    assert check_free(c, "M:1", "F:3,2").valid


def test_lemma27_order_formula_grid():
    for s in (1, 2, 3):
        for t in (2, 3):
            for n in (1, 2, 3):
                c = lemma27_construction(s, t, n)
                assert c.host.order == max(s, n) + (t - 1) * n + s - 1
                assert check_free(c, f"M:{s}", f"F:{t},{n}").valid, (s, t, n)


def test_lemma27_red_graph_is_labelled_as_documented():
    # n >= s: red joins the first tn vertices to the last s-1; n < s: the
    # first (t-1)n vertices have no red edge and the last 2s-1 form a red
    # clique. Cases n > s, n = s, n < s and s = 1 (no red edge at all).
    for s, t, n in ((2, 3, 4), (3, 2, 3), (4, 3, 2), (5, 1, 2), (1, 2, 3), (1, 1, 1)):
        if n >= s:
            order = t * n + s - 1
            red = [(u, v) for u in range(t * n) for v in range(t * n, order)]
        else:
            lo = (t - 1) * n
            order = lo + 2 * s - 1
            red = [(u, v) for u in range(lo, order) for v in range(u + 1, order)]
        c = lemma27_construction(s, t, n)
        assert c.host == complete(order), (s, t, n)
        assert c.red_graph().edges() == red, (s, t, n)


def test_lemma27_boundary_uses_bipartite_case():
    # n = s falls into the crossing-edges construction
    c = lemma27_construction(2, 2, 2)
    red = c.red_graph()
    assert all(u < 4 and v == 4 for u, v in red.edges())


# ---------------------------------------------------------------------------
# structure verification
# ---------------------------------------------------------------------------


def test_verify_lemma24_finds_blue_cliques():
    c = burr_coloring(3, 1, 17)
    a, b = verify_lemma24(c, 4)
    assert a == frozenset(range(16))
    assert b == frozenset(range(16, 32))


def test_verify_lemma24_larger_n():
    c = burr_coloring(3, 1, 29)
    a, b = verify_lemma24(c, 7)
    assert len(a) == len(b) == 28 and not (a & b)


def test_verify_lemma24_preconditions():
    c = burr_coloring(3, 1, 17)
    with pytest.raises(PreconditionViolated):
        verify_lemma24(c, 3)  # below the stated range
    with pytest.raises(PreconditionViolated):
        verify_lemma24(c, 5)  # host order mismatch
    # free for the wrong pair: all-blue K_32 contains a blue fan
    all_blue = TwoColoring(complete(32), empty_graph(32))
    with pytest.raises(PreconditionViolated):
        verify_lemma24(all_blue, 4)


def test_verify_lemma24_structure_not_found_is_unreachable_here():
    # any coloring passing the freeness precondition must contain the cliques;
    # exercise the error type directly instead
    assert issubclass(StructureNotFound, Exception)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_check_free_valid_and_invalid():
    c = burr_coloring(3, 1, 17)
    cert = check_free(c, "K3", "F:4,4")
    assert cert.valid
    assert cert.red_witness is None and cert.blue_witness is None
    bad = check_free(c, "K3", "F:2,1")  # blue K_16 blocks contain triangles
    assert not bad.valid
    assert bad.blue_witness is not None


def test_check_free_rejects_a_malformed_witness(monkeypatch):
    # a red "triangle" through the non-edge 0-2 of the path 0-1-2
    bogus = EmbeddingWitness(3, ((0, 1, 2),))
    monkeypatch.setattr("fanram.patterns.contains_target", lambda g, t: bogus)
    coloring = TwoColoring(complete(3), from_edges(3, [(0, 1), (1, 2)]))
    with pytest.raises(FanramError, match="red witness .* fails re-validation"):
        check_free(coloring, "K3", "K3")


def test_check_free_rejects_a_malformed_witness_under_optimization():
    # python -O strips assert statements; the re-validation must still run
    script = """
import fanram.patterns as patterns
from fanram.colorings import TwoColoring, check_free
from fanram.errors import FanramError
from fanram.graphs import complete, from_edges
patterns.contains_target = lambda g, t: patterns.EmbeddingWitness(3, ((0, 1, 2),))
try:
    check_free(TwoColoring(complete(3), from_edges(3, [(0, 1), (1, 2)])), "K3", "K3")
except FanramError as exc:
    raise SystemExit(f"rejected: {exc}")
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert "rejected: red witness" in proc.stderr


def test_certificate_round_trip_and_hash():
    c = lemma27_construction(2, 2, 1)
    cert = check_free(c, "M:2", "F:2,1")
    text = serialize_certificate(cert)
    again = load_certificate(text)
    assert again.content_hash == cert.content_hash
    assert serialize_certificate(again) == text
    # hash is stable across repeated construction
    assert check_free(c, "M:2", "F:2,1").content_hash == cert.content_hash


def test_certificate_encodes_its_graphs_once(monkeypatch):
    # the payload is built once, hashed by check_free and reused for the
    # report, so host and red are graph6-encoded one time each
    calls = []
    monkeypatch.setattr("fanram.colorings.encode", lambda g: calls.append(g) or encode(g))
    c = lemma27_construction(2, 2, 1)
    cert = check_free(c, "M:2", "F:2,1")
    doc = certificate_obj(cert)
    assert calls == [c.host, c.red]
    assert doc == {**cert.payload, "content_hash": cert.content_hash}
    assert list(doc) == [
        "format", "host", "red", "red_target", "blue_target", "red_witness",
        "blue_witness", "content_hash",
    ]
    assert doc["host"] == encode(c.host) and doc["red"] == encode(c.red)
    assert "content_hash" not in cert.payload


def test_certificate_hash_tracks_content():
    c1 = check_free(lemma27_construction(2, 2, 1), "M:2", "F:2,1")
    c2 = check_free(lemma27_construction(3, 2, 1), "M:3", "F:2,1")
    assert c1.content_hash != c2.content_hash


def test_load_certificate_rejects_corruption():
    cert = check_free(lemma27_construction(2, 2, 1), "M:2", "F:2,1")
    text = serialize_certificate(cert)
    with pytest.raises(CorruptRecord):
        load_certificate(text.replace('"M:2"', '"M:3"', 1))
    with pytest.raises(CorruptRecord):
        load_certificate("not json at all")
    doc = json.loads(text)
    del doc["content_hash"]
    with pytest.raises(CorruptRecord):
        load_certificate(json.dumps(doc))
    doc = json.loads(text)
    doc["content_hash"] = "0" * 64
    with pytest.raises(CorruptRecord):
        load_certificate(json.dumps(doc))
    # every stored field is compared, not only the hash: thm17(3,1,2,2) is
    # free for (K3, F:2,2), and no edit may make it load as anything else
    text = serialize_certificate(check_free(thm17_construction(3, 1, 2, 2), "K3", "F:2,2"))
    assert load_certificate(text).valid
    for field, value in [
        ("red_witness", {"pattern_order": 3, "groups": [[0, 4, 5]]}),
        ("blue_witness", {"pattern_order": 5, "groups": [[0], [1, 2], [3, 4]]}),
        ("format", "fanram-certificate-0"),
        ("note", "an extra key"),
    ]:
        doc = json.loads(text)
        doc[field] = value
        with pytest.raises(CorruptRecord, match="differs from its re-validation"):
            load_certificate(json.dumps(doc))


def test_load_certificate_bad_coloring_is_corruption():
    doc = json.loads(serialize_certificate(
        check_free(lemma27_construction(2, 2, 1), "M:2", "F:2,1")
    ))
    doc["host"] = encode(empty_graph(4))  # the stored red edges leave the host
    with pytest.raises(CorruptRecord, match="not in the host"):
        load_certificate(json.dumps(doc))
    for broken in ([], None, {"host": 5}):
        with pytest.raises(CorruptRecord):
            load_certificate(json.dumps(broken))


def test_certificate_embeds_witness_when_not_free():
    cert = check_free(TwoColoring(complete(3), complete(3)), "K3", "K3")
    assert not cert.valid
    assert cert.red_witness is not None and cert.blue_witness is None
    text = serialize_certificate(cert)
    again = load_certificate(text)
    assert again.red_witness == cert.red_witness


def _without_edge(g, u, v):
    return from_edges(g.order, [e for e in g.edges() if e != (u, v)])


def test_check_free_just_below_a_fan_is_fast():
    # free colorings one edge away from a fan: every center's blue
    # neighborhood has too few disjoint edges, which the fan check of F:2,n
    # learns from a matching bound instead of trying every partial packing
    c = thm17_construction(3, 1, 2, 8)
    assert c.red.has_edge(0, 16)
    near = TwoColoring(c.host, _without_edge(c.red, 0, 16))
    assert check_free(near, "K3", "F:2,8").valid
    c = lemma27_construction(30, 2, 10)
    assert c.host.order == 69
    assert check_free(c, "M:30", "F:2,10").valid
    # for F:3,n the blue neighborhood of vertex 0 is K_14 plus vertex 15,
    # which has no neighbor in it: peeling 15 leaves 14 < 15 vertices
    c = thm17_construction(3, 1, 3, 5)
    assert c.red.has_edge(0, 15)
    near = TwoColoring(c.host, _without_edge(c.red, 0, 15))
    assert check_free(near, "K3", "F:3,5").valid
