"""Immutable labeled graphs on at most 128 vertices.

Adjacency is stored as one integer bitmask per vertex, which keeps the
exact-search inner loops (intersections, popcounts) cheap. All construction
helpers document their vertex layout because colorings and witnesses are
compared as labeled objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress, repeat
from typing import Iterable, Iterator, Sequence

from .errors import BadParam, OrderCap

MAX_ORDER = 128
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

# A vertex set is just a frozenset of indices into a host graph.
VertexSet = frozenset[int]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@cache
def _swap_steps(size: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap transposing a size x size bit matrix
    stored row after row in one integer: the step for block width k swaps
    bit (i, j) with bit (i + k, j - k) wherever i & k == 0 and j & k != 0."""
    steps = []
    k = size // 2
    while k:
        row = sum(1 << j for j in range(size) if j & k)
        mask = sum(row << size * i for i in range(size) if not i & k)
        steps.append((k * (size - 1), mask))
        k //= 2
    return tuple(steps)


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """Rows of the transposed bit matrix: bit j of rows[i] becomes bit i of
    row j. Every row must lie below 2**len(rows). The rows are packed into
    one integer, padded to a power-of-two side of at least 8 so each row is
    whole bytes, and transposed by one delta swap per halving of the side."""
    n = len(rows)
    size = 8
    while size < n:
        size *= 2
    width = size // 8
    x = int.from_bytes(b"".join(r.to_bytes(width, "little") for r in rows), "little")
    for shift, mask in _swap_steps(size):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    data = x.to_bytes(n * width, "little")
    return tuple(
        int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width)
    )


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with vertices 0..order-1.

    rows[v] is the neighbor bitmask of v. Equality and hashing are on the
    labeled structure, so two graphs are equal only if they agree vertex by
    vertex.
    """

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.order <= MAX_ORDER:
            raise OrderCap(f"order {self.order} outside 0..{MAX_ORDER}")
        if len(self.rows) != self.order:
            raise BadParam("rows length does not match order")
        full = (1 << self.order) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise BadParam(f"row {v} has bits beyond the vertex range")
            if row >> v & 1:
                raise BadParam(f"self-loop at vertex {v}")
        columns = transpose(self.rows)
        if tuple(self.rows) != columns:
            # the first row v with a neighbor u whose row lacks v
            for v, (row, col) in enumerate(zip(self.rows, columns)):
                extra = row & ~col
                if extra:
                    u = (extra & -extra).bit_length() - 1
                    raise BadParam(f"adjacency not symmetric at ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> int:
        """Neighbor bitmask of v."""
        return self.rows[v]

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def size(self) -> int:
        """Number of edges."""
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        out = []
        for u, row in enumerate(self.rows):
            # one 0/1 byte per vertex above u, lowest first
            above = format(row >> (u + 1), "b")[::-1].encode().translate(_BIT_BYTES)
            out.extend(zip(repeat(u), compress(range(u + 1, self.order), above)))
        return out

    def vertices(self) -> range:
        return range(self.order)


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * order
    for u, v in edges:
        if u == v:
            raise BadParam(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise BadParam(f"edge ({u}, {v}) outside 0..{order - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise BadParam("negative order")
    if n > MAX_ORDER:
        raise OrderCap(f"order {n} exceeds {MAX_ORDER}")
    return Graph(n, (0,) * n)


@cache
def complete(n: int) -> Graph:
    """K_n, built once per order (at most MAX_ORDER + 1 of them): graphs
    are immutable, so every caller shares it."""
    if n < 0:
        raise BadParam("negative order")
    if n > MAX_ORDER:
        raise OrderCap(f"order {n} exceeds {MAX_ORDER}")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g followed by h, with h's vertices shifted up by g.order."""
    n = g.order + h.order
    if n > MAX_ORDER:
        raise OrderCap(f"union order {n} exceeds {MAX_ORDER}")
    rows = list(g.rows) + [r << g.order for r in h.rows]
    return Graph(n, tuple(rows))


def copies(s: int, g: Graph) -> Graph:
    """s disjoint copies of g, laid out block by block."""
    if s < 1:
        raise BadParam("copy count must be at least 1")
    if s * g.order > MAX_ORDER:
        raise OrderCap(f"order {s * g.order} exceeds {MAX_ORDER}")
    return reduce(disjoint_union, [g] * s)


def join(g: Graph, h: Graph) -> Graph:
    """g + h: disjoint union plus every cross edge. g keeps its labels."""
    u = disjoint_union(g, h)
    gmask = (1 << g.order) - 1
    hmask = ((1 << u.order) - 1) ^ gmask
    rows = [
        row | (hmask if v < g.order else gmask) for v, row in enumerate(u.rows)
    ]
    return Graph(u.order, tuple(rows))


def generalized_fan(t: int, n: int) -> Graph:
    """K_1 + n*K_t: a hub (vertex 0) joined to n disjoint blades K_t.

    Blade i occupies vertices 1 + i*t .. t + i*t.
    """
    if t < 1 or n < 1:
        raise BadParam("blade order and blade count must be at least 1")
    return join(complete(1), copies(n, complete(t)))


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Parts laid out in the given order; edges exactly between distinct parts."""
    if not parts:
        raise BadParam("at least one part required")
    if any(p < 1 for p in parts):
        raise BadParam("empty part")
    n = sum(parts)
    if n > MAX_ORDER:
        raise OrderCap(f"order {n} exceeds {MAX_ORDER}")
    full = (1 << n) - 1
    rows = []
    start = 0
    for p in parts:
        part_mask = ((1 << p) - 1) << start
        rows.extend([(full ^ part_mask) for _ in range(p)])
        start += p
    return Graph(n, tuple(rows))


def star_augmented(base_order: int, k: int) -> Graph:
    """K_{base_order} plus one extra vertex adjacent to base vertices 0..k-1."""
    if not 0 <= k <= base_order:
        raise BadParam("star size must lie between 0 and the base order")
    g = disjoint_union(complete(base_order), complete(1))
    rows = list(g.rows)
    w = base_order
    for v in range(k):
        rows[v] |= 1 << w
        rows[w] |= 1 << v
    return Graph(g.order, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    return Graph(
        g.order, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.rows))
    )


def induced(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertices, relabeled in ascending order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for u in bits(g.rows[v]):
            if u in index:
                rows[index[v]] |= 1 << index[u]
    return Graph(len(keep), tuple(rows))


def is_connected(g: Graph) -> bool:
    """True for the empty graph on 0 vertices and any connected graph."""
    return len(components_rows(g.rows, g.order)) <= 1


def components_rows(rows, n: int) -> list[int]:
    """Connected component bitmasks of the graph with adjacency rows on
    vertices 0..n-1, ordered by their lowest vertex."""
    remaining = (1 << n) - 1
    out = []
    while remaining:
        start = remaining & -remaining
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~seen
            seen |= frontier
        out.append(seen)
        remaining &= ~seen
    return out


def components(g: Graph) -> list[int]:
    """Connected component bitmasks, ordered by their lowest vertex."""
    return components_rows(g.rows, g.order)


def degree_profile(g: Graph) -> tuple[int, int, tuple[int, ...]]:
    """(min degree, max degree, per-vertex degrees). Requires order >= 1."""
    if g.order == 0:
        raise BadParam("degree profile of the empty graph is undefined")
    degs = tuple(r.bit_count() for r in g.rows)
    return min(degs), max(degs), degs


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under vertex permutation perm (perm[v] is v's new label)."""
    if sorted(perm) != list(range(g.order)):
        raise BadParam("not a permutation of the vertex range")
    rows = [0] * g.order
    for v in range(g.order):
        for u in bits(g.rows[v]):
            rows[perm[v]] |= 1 << perm[u]
    return Graph(g.order, tuple(rows))
