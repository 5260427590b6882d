from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanram.errors import OrderCap, ParseError
from fanram.graph6 import decode, encode
from fanram.graphs import complete, empty_graph, from_edges

from conftest import corpus, cycle_graph, random_graph


def test_k5_standard_encoding():
    assert encode(complete(5)) == "D~{"
    assert decode("D~{") == complete(5)


def test_small_named_values():
    # single vertex and empty graphs encode to header only
    assert encode(empty_graph(1)) == "@"
    assert decode("@") == empty_graph(1)
    assert encode(empty_graph(2)) == "A?"
    assert encode(complete(2)) == "A_"
    assert decode("A_") == complete(2)


def test_header_prefix_allowed():
    assert decode(">>graph6<<D~{") == complete(5)


def test_corpus_round_trip():
    for name, g in corpus():
        assert decode(encode(g)) == g, name


def test_long_form_round_trip():
    rng = random.Random(7)
    for order in (63, 64, 100, 128):
        g = random_graph(rng, order, 0.3)
        text = encode(g)
        assert text.startswith("~")
        assert decode(text) == g
    # order 62 still uses the short form
    assert not encode(empty_graph(62)).startswith("~")


def test_encode_matches_networkx_at_every_order():
    nx = pytest.importorskip("networkx")
    rng = random.Random(128)
    for order in range(129):
        g = random_graph(rng, order, (0.1, 0.5, 0.9)[order % 3])
        ref = nx.Graph()
        ref.add_nodes_from(range(order))
        ref.add_edges_from(g.edges())
        text = encode(g)
        assert text == nx.to_graph6_bytes(ref, header=False).decode().rstrip("\n"), order
        assert decode(text) == g, order
    # the order prefix switches to the long form between 62 and 63
    assert encode(complete(62))[0] == chr(62 + 63)
    assert encode(complete(63))[:4] == "~" + chr(63) + chr(63) + chr(63 + 63)
    assert decode(encode(complete(63))) == complete(63)


def test_order_cap_on_decode():
    # long-form header for order 129: 129 = 0*64^2 + 2*64 + 1
    header = "~" + chr(63) + chr(63 + 2) + chr(63 + 1)
    with pytest.raises(OrderCap):
        decode(header + "?" * 3000)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        decode("D~\x01")  # below the graph6 range, and kept by str.strip
    assert exc.value.position == 2
    assert str(exc.value).startswith("invalid graph6 character '\\x01'")
    with pytest.raises(ParseError):
        decode("")
    with pytest.raises(ParseError):
        decode("D~")  # truncated body
    with pytest.raises(ParseError):
        decode("D~{~")  # trailing garbage


def test_decode_rejects_bad_headers_and_characters():
    # "\x1f" is whitespace to str.strip, so it needs a character that is not
    with pytest.raises(ParseError) as exc:
        decode("D\x7f~")
    assert exc.value.position == 1
    assert str(exc.value).startswith("invalid graph6 character '\\x7f'")
    # "~~" opens the eight-byte form, for orders of 2^18 and more
    with pytest.raises(OrderCap, match="eight-byte graph6 orders"):
        decode("~~??????")
    with pytest.raises(ParseError) as exc:
        decode("~??")
    assert exc.value.position == 3
    assert str(exc.value).startswith("truncated long-form order")


def test_padding_must_be_zero():
    # order 3 uses 3 body bits, leaving 3 padding bits in the single body char
    good = encode(cycle_graph(3))
    assert good == "Bw"
    bad = good[:-1] + chr(((ord(good[-1]) - 63) | 0b1) + 63)
    with pytest.raises(ParseError):
        decode(bad)
    # order 65 uses 2080 bits, so the last of its 347 body chars has 2 pad
    # bits; set the first of them
    text = encode(complete(65))
    bad = text[:-1] + chr(((ord(text[-1]) - 63) | 0b10) + 63)
    with pytest.raises(ParseError) as exc:
        decode(bad)
    assert exc.value.position == 346


@st.composite
def arbitrary_graphs(draw):
    order = draw(st.integers(min_value=0, max_value=20))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return from_edges(order, [p for i, p in enumerate(pairs) if mask >> i & 1])


@settings(max_examples=200)
@given(arbitrary_graphs())
def test_round_trip_property(g):
    assert decode(encode(g)) == g
