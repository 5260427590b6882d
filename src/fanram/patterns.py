"""Target patterns and exact containment oracles.

A target is what a search forbids on one color class: a clique, a generalized
fan, a matching, disjoint copies of a connected pattern, or an explicit graph.
All oracles are exact and deterministic: candidate vertices are always tried
in ascending index order, so the first witness found is reproducible.

Each kind's shape is stated once: pattern_graph, and _group_sizes, which
splits a flat embedding (images of pattern_graph's vertices in label order)
into a witness's groups; witness_valid checks every kind by one rule.

normalize_pattern is the one reader of a target: every entry point parses,
normalizes and validates its targets there once, and the kernels trust what
it returns.

One target graph can be spelled several ways: the fan F:t,1 is the clique
K_{t+1}, M:1 and F:1,1 are K2, and s copies of K2 are M:s. _kernel_form
alone resolves these to the one form the kernels check; the coloring search
applies it where it starts, and the full check (_contains_rows) dispatches on
it while still grouping the witness by the spelled kind.

Three kernels check every kind. Cliques: one branch-and-bound, the
explicit-stack enumerator _cliques_iter, which lists cliques in
lexicographic order; its greedy coloring bound runs only while three or more
vertices are left to choose, since with fewer the expansion finds out as
soon, and with one left every candidate completes a clique. The first
clique (_clique_search), the clique and independence numbers, and the
cliques of every packing that yields a witness all come from it.
Matchings: Edmonds' blossom algorithm, which deletes the Hungarian tree of
every failed search, except that up to three disjoint edges are found
without it (_matching_at_least). Everything else is a
packing: _packings yields k disjoint embeddings of a connected pattern with
copies ordered by ascending first vertex (a clique's lowest vertex, a fan's
center, an explicit pattern's image of vertex 0), so no family is found
twice in another order. A fan F:t,n is a center plus a packing of n t-cliques
in its neighborhood, and one packer finds the blades (_blades): for t >= 3,
neighbors with fewer than t-1 neighbors left in the neighborhood are peeled
off first; a center with fewer than tn left is skipped; and the blades of
F:2,n are a matching, so a center whose neighborhood has matching number
below n is skipped too, all before its packings are tried. Disjoint copies
are a packing of the inner pattern, searched one connected component at a
time.

The coloring search asks a narrower question after each edge it colors:
_new_containment, the anchored check, answers yes or no from kernels of
its own.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, Union

from .errors import BadParam, ParseError
from .graph6 import decode, encode
from .graphs import Graph, bits, complete, copies as graph_copies
from .graphs import components_rows, generalized_fan, is_connected, mask_of


@dataclass(frozen=True)
class Clique:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise BadParam("clique size must be positive")


@dataclass(frozen=True)
class Fan:
    """K_1 joined to n disjoint copies of K_t."""

    t: int
    n: int

    def __post_init__(self):
        if self.t < 1 or self.n < 1:
            raise BadParam("fan parameters must be positive")


@dataclass(frozen=True)
class Matching:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise BadParam("matching size must be positive")


@dataclass(frozen=True)
class Copies:
    count: int
    inner: "TargetPattern"

    def __post_init__(self):
        if self.count < 1:
            raise BadParam("copy count must be positive")


@dataclass(frozen=True)
class Explicit:
    graph: Graph


TargetPattern = Union[Clique, Fan, Matching, Copies, Explicit]


def copies_pattern(count: int, inner: TargetPattern) -> TargetPattern:
    """Copies constructor that flattens nesting and absorbs matchings."""
    if count < 1:
        raise BadParam("copy count must be positive")
    inner = normalize_pattern(inner)
    if isinstance(inner, Copies):
        count *= inner.count
        inner = inner.inner
    if isinstance(inner, Matching):
        return Matching(count * inner.size)
    if count == 1:
        return inner
    return Copies(count, inner)


def normalize_pattern(p: TargetPattern | str) -> TargetPattern:
    """The one reader of a target: parse a string (parse_target), then
    normalize copies (copies_pattern: 1xX is X, copies of copies flatten,
    copies of a matching are a matching) and validate them. The inner
    pattern of a Copies object, once normalized, must be connected: a
    matching, copies or a disconnected or empty explicit graph raises
    BadParam. Every entry point (contains_target, witness_valid,
    colorings.check_free, the searches, the command line) reads its targets
    here once; the kernels below trust what it returns."""
    if isinstance(p, str):
        p = parse_target(p)
    if isinstance(p, Copies):
        inner = normalize_pattern(p.inner)
        if isinstance(inner, (Matching, Copies)) or isinstance(inner, Explicit) and (
            inner.graph.order == 0 or not is_connected(inner.graph)
        ):
            raise BadParam("inner pattern of copies must be connected")
        return copies_pattern(p.count, inner)
    return p


def pattern_order(p: TargetPattern) -> int:
    if isinstance(p, Clique):
        return p.size
    if isinstance(p, Fan):
        return p.t * p.n + 1
    if isinstance(p, Matching):
        return 2 * p.size
    if isinstance(p, Copies):
        return p.count * pattern_order(p.inner)
    return p.graph.order


@lru_cache(maxsize=256)
def pattern_graph(p: TargetPattern) -> Graph:
    """The labeled graph a pattern stands for (hub-first for fans); graphs
    are immutable, so one built graph serves every caller."""
    if isinstance(p, Clique):
        return complete(p.size)
    if isinstance(p, Fan):
        return generalized_fan(p.t, p.n)
    if isinstance(p, Matching):
        return graph_copies(p.size, complete(2))
    if isinstance(p, Copies):
        return graph_copies(p.count, pattern_graph(p.inner))
    return p.graph


def _kernel_form(p: TargetPattern) -> TargetPattern:
    """The one form the kernels check for a normalized target: the fan
    F:t,1 is the clique K_{t+1} (so F:1,1 is K2), M:1 is K2, s copies of K2
    are M:s, and copies of any other target are copies of its kernel form."""
    if isinstance(p, Fan) and p.n == 1:
        return Clique(p.t + 1)
    if isinstance(p, Matching) and p.size == 1:
        return Clique(2)
    if isinstance(p, Copies):
        inner = _kernel_form(p.inner)
        return Matching(p.count) if inner == Clique(2) else Copies(p.count, inner)
    return p


def parse_target(text: str) -> TargetPattern:
    """Parse the target grammar.

    K<m>, F:<t>,<n>, M:<s>, G6:<graph6>, optionally prefixed by <s>x for
    disjoint copies. Copies are normalized on construction.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty target", 0)
    i = 0
    count = None
    mcopy = re.match(r"(\d+)x", s)
    if mcopy:
        count = int(mcopy.group(1))
        i = mcopy.end()
    body = s[i:]
    if body.startswith("K"):
        m = re.fullmatch(r"K(\d+)", body)
        if not m:
            raise ParseError("expected digits after 'K'", i + 1)
        inner: TargetPattern = Clique(int(m.group(1)))
    elif body.startswith("F"):
        m = re.fullmatch(r"F:(\d+),(\d+)", body)
        if not m:
            raise ParseError("expected 'F:<t>,<n>'", i + 1)
        inner = Fan(int(m.group(1)), int(m.group(2)))
    elif body.startswith("M"):
        m = re.fullmatch(r"M:(\d+)", body)
        if not m:
            raise ParseError("expected 'M:<s>'", i + 1)
        inner = Matching(int(m.group(1)))
    elif body.startswith("G6:"):
        inner = Explicit(decode(body[3:]))
    else:
        raise ParseError(f"unrecognized target {body!r}", i)
    if count is None:
        return inner
    return copies_pattern(count, inner)


def format_target(p: TargetPattern) -> str:
    if isinstance(p, Clique):
        return f"K{p.size}"
    if isinstance(p, Fan):
        return f"F:{p.t},{p.n}"
    if isinstance(p, Matching):
        return f"M:{p.size}"
    if isinstance(p, Copies):
        return f"{p.count}x{format_target(p.inner)}"
    return f"G6:{encode(p.graph)}"


@dataclass(frozen=True)
class EmbeddingWitness:
    """Host vertices of one embedding, grouped by pattern component.

    Cliques use one group; matchings one group per edge; fans a singleton hub
    group followed by one group per blade; disjoint copies one group per copy,
    listing host vertices in the inner pattern's label order.
    """

    pattern_order: int
    groups: tuple[tuple[int, ...], ...]

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for grp in self.groups for v in grp)


def _group_sizes(p: TargetPattern) -> tuple[int, ...]:
    """Sizes of the groups a normalized pattern's witness has, in order."""
    if isinstance(p, Clique):
        return (p.size,)
    if isinstance(p, Matching):
        return (2,) * p.size
    if isinstance(p, Fan):
        return (1,) + (p.t,) * p.n
    if isinstance(p, Copies):
        return (pattern_order(p.inner),) * p.count
    return (p.graph.order,)


# ---------------------------------------------------------------------------
# row-level search kernels (shared with the coloring search)
# ---------------------------------------------------------------------------


def _greedy_bound(rows, mask: int, cutoff: int) -> int:
    """Greedy color-class count of mask, capped at cutoff. Upper-bounds the
    clique number of the induced subgraph."""
    classes: list[int] = []
    for v in bits(mask):
        row = rows[v]
        for i, cm in enumerate(classes):
            if not cm & row:
                classes[i] = cm | 1 << v
                break
        else:
            classes.append(1 << v)
            if len(classes) >= cutoff:
                return cutoff
    return len(classes)


def _clique_search(rows, avail: int, m: int) -> tuple[int, ...] | None:
    """First m-clique within avail in ascending order, or None."""
    return next(_cliques_iter(rows, avail, m, 0), None)


def _clique_number_rows(rows, n: int) -> int:
    """Clique number: ascend _clique_search until a size has no clique,
    growing each clique found greedily to a maximal one first."""
    full = (1 << n) - 1
    m = 0
    while (found := _clique_search(rows, full, m + 1)) is not None:
        common = full
        for v in found:
            common &= rows[v]
        m = len(found)
        while common:
            common &= rows[(common & -common).bit_length() - 1]
            m += 1
    return m


def _cliques_iter(rows, avail: int, t: int, min_v: int) -> Iterator[tuple[int, ...]]:
    """All ascending t-cliques within avail whose lowest vertex is >= min_v,
    in lexicographic order. One explicit stack holds, per chosen vertex, the
    candidates left to try after it; every candidate of the last level
    completes a clique, so that level is yielded in one pass. A level is
    cut when its candidates are fewer than the vertices left to choose or,
    on entry with three or more left, when a greedy coloring of them has
    fewer classes. Cuts drop no clique, so the order is kept."""
    if t <= 0:
        yield ()
        return
    cur: list[int] = []
    stack = [avail >> min_v << min_v]
    fresh = True
    while stack:
        rest = stack[-1]
        need = t - len(cur)
        if need == 1:
            prefix = tuple(cur)
            while rest:
                low = rest & -rest
                rest ^= low
                yield prefix + (low.bit_length() - 1,)
        elif rest.bit_count() >= need and not (
            fresh and need >= 3 and _greedy_bound(rows, rest, need) < need
        ):
            low = rest & -rest
            rest ^= low
            stack[-1] = rest
            v = low.bit_length() - 1
            cur.append(v)
            stack.append(rest & rows[v])
            fresh = True
            continue
        fresh = False
        stack.pop()
        if cur:
            cur.pop()


def _blades(rows, around: int, t: int, n: int) -> Iterator[list[tuple[int, ...]]]:
    """Every packing of n t-cliques within around, the neighborhood of a fan
    center, in _packings order. Vertices with fewer than t-1 neighbors left
    in around are in no blade and are peeled off first; fewer than tn left,
    or for F:2,n a matching number below n, then settle that there is none."""
    if n == 0:
        yield []
        return
    while t >= 3 and around.bit_count() >= t * n:
        peel = sum(1 << w for w in bits(around) if (rows[w] & around).bit_count() < t - 1)
        if not peel:
            break
        around ^= peel
    if around.bit_count() < t * n or t == 2 and n > 1 and not _matching_at_least(
        rows, around, n
    ):
        return
    yield from _packings(rows, around, _cliques_iter, t, t, n)


def _fans_iter(rows, avail: int, fan: Fan, low: int) -> Iterator[tuple[int, ...]]:
    """All fan embeddings within avail with center >= low, as the center
    followed by the blades' vertices (_blades of its neighborhood)."""
    for c in bits(avail >> low << low):
        for blades in _blades(rows, avail & rows[c], fan.t, fan.n):
            yield (c,) + tuple(v for cl in blades for v in cl)


def _fan_starts(rows, fan: Fan, u: int, v: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The start of every fan embedding that maps a pattern edge to the host
    edge uv, as (center, blade, the center's neighbors off the blade).
    Either the center is u (or v) and the blade through v (or u) is that
    vertex plus a K_{t-1} in the common neighborhood, or the center is a
    common neighbor c and the blade is u, v plus a K_{t-2} in the common
    neighborhood of all three. A center with fewer than tn neighbors holds
    no fan and has none."""
    t = fan.t
    least = t * fan.n
    common = rows[u] & rows[v]
    starts = [(c, (x,), common) for c, x in ((u, v), (v, u))]
    if t >= 2:
        starts += [(c, (u, v), common & rows[c]) for c in bits(common)]
    for c, ends, within in starts:
        if rows[c].bit_count() < least:
            continue
        left = rows[c] & ~mask_of(ends)
        for rest in _cliques_iter(rows, within, t - len(ends), 0):
            yield c, ends + rest, left & ~mask_of(rest)


def _fans_through(rows, fan: Fan, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """All embeddings of a fan that map a pattern edge to the host edge uv,
    as in _fans_iter: each start (_fan_starts) followed by n-1 more blades
    (_blades)."""
    for c, blade, left in _fan_starts(rows, fan, u, v):
        for blades in _blades(rows, left, fan.t, fan.n - 1):
            yield (c,) + blade + tuple(w for cl in blades for w in cl)


def _copies_kernel(inner: TargetPattern):
    """The embed generator and its pat parameter (see _packings) for copies
    of a connected clique, fan or explicit pattern in kernel form."""
    if isinstance(inner, Clique):
        return _cliques_iter, inner.size
    if isinstance(inner, Fan):
        return _fans_iter, inner
    return _embed_iter, inner.graph


def _clique_pack(rows, avail: int, m: int, k: int) -> bool:
    """Whether avail holds k disjoint copies of K_m, m >= 3.

    Decides on the lowest vertex x of avail: either x lies in one of the
    copies, with a K_{m-1} of its neighbors above it, and k-1 more copies
    follow outside that one, or it lies in none and is dropped. Fewer
    than mk vertices left settle no. For m = 3 the K_2 is a pair of
    neighbors, found by two inline bit loops.

    The coloring search asks this yes/no question at every node, where
    _packings (the witness path) would build an embedding generator per
    copy and _cliques_iter a greedy coloring at every root; the full check
    keeps those, so its witnesses stay the first in _packings order."""
    if k <= 0:
        return True
    while avail.bit_count() >= m * k:
        low = avail & -avail
        avail ^= low
        nbrs = rows[low.bit_length() - 1] & avail
        if m > 3:
            for rest in _cliques_iter(rows, nbrs, m - 1, 0):
                if _clique_pack(rows, avail & ~mask_of(rest), m, k - 1):
                    return True
            continue
        while nbrs:
            bw = nbrs & -nbrs
            nbrs ^= bw
            pairs = rows[bw.bit_length() - 1] & nbrs
            if pairs and k == 1:
                return True
            while pairs:
                by = pairs & -pairs
                pairs ^= by
                if _clique_pack(rows, avail & ~(bw | by), 3, k - 1):
                    return True
    return False


def _embed_iter(rows, avail: int, pat: Graph, low: int) -> Iterator[tuple[int, ...]]:
    """All injective maps of pat into the host (subgraph, not induced),
    restricted to avail, pattern vertices mapped in label order and vertex 0
    to a host vertex >= low."""
    p = pat.order
    degs = [r.bit_count() for r in pat.rows]
    mapping = [-1] * p

    def rec(i: int, used: int):
        if i == p:
            yield tuple(mapping)
            return
        cand = avail & ~used if i else avail >> low << low
        for pj in bits(pat.rows[i] & ((1 << i) - 1)):
            cand &= rows[mapping[pj]]
        for v in bits(cand):
            if rows[v].bit_count() < degs[i]:
                continue
            mapping[i] = v
            yield from rec(i + 1, used | 1 << v)

    yield from rec(0, 0)


def _packings(rows, avail: int, embed, pat, size: int, k: int, low: int = 0):
    """All families of k disjoint embeddings of a connected pattern within
    avail, copies ordered by ascending first vertex, the first at least low.

    embed(rows, avail, pat, low) yields each embedding of the pattern
    (pat is its parameter) as a tuple of size host vertices whose first
    vertex is >= low: _cliques_iter (lowest vertex), _fans_iter (center) or
    _embed_iter (image of vertex 0).
    """
    if k == 0:
        yield []
        return
    if avail.bit_count() < k * size:
        return
    for emb in embed(rows, avail, pat, low):
        rest_avail = avail & ~mask_of(emb)
        for rest in _packings(rows, rest_avail, embed, pat, size, k - 1, emb[0] + 1):
            yield [emb] + rest


def _two_disjoint_edges(rows, avail: int) -> bool:
    """Whether the subgraph induced by avail has two disjoint edges. Take
    its first edge ab: an edge avoiding a and b settles yes; otherwise every
    edge meets a or b, and two disjoint ones are ac and bd with c != d."""
    m = avail
    while m:
        low = m & -m
        na = rows[low.bit_length() - 1] & avail
        if na:
            break
        m ^= low
    else:
        return False
    b = (na & -na).bit_length() - 1
    ab = low | 1 << b
    rest = m = avail & ~ab
    while m:
        low = m & -m
        if rows[low.bit_length() - 1] & rest:
            return True
        m ^= low
    na &= ~ab
    nb = rows[b] & rest
    return bool(na and nb) and (na | nb).bit_count() >= 2


def _matching_at_least(rows, avail: int, k: int) -> bool:
    """Whether the subgraph induced by avail has k disjoint edges; k <= 3
    runs no blossom. One edge needs only a vertex with a neighbor in avail.
    Edges that pairwise meet form a star or a triangle (_two_disjoint_edges
    tells them from two disjoint ones), and a maximum matching that misses
    a non-isolated vertex x has an edge at every neighbor w of x, which can
    be traded for xw, so three exist exactly when two exist in avail - {x, w}
    for some neighbor w of a least-degree x. From three on, fewer than 2k
    non-isolated vertices settle no; from four on, the greedy start of
    _blossom settles most yes answers, and augmenting paths run only when
    the greedy matching and the vertex count disagree."""
    if k <= 0:
        return True
    if k == 1:
        rest = avail
        while rest:
            low = rest & -rest
            if rows[low.bit_length() - 1] & avail:
                return True
            rest ^= low
        return False
    if avail.bit_count() < 2 * k:
        return False
    if k == 2:
        return _two_disjoint_edges(rows, avail)
    sub = [0] * len(rows)
    touched = 0
    x = least = len(rows)
    m = avail
    while m:
        low = m & -m
        m ^= low
        w = low.bit_length() - 1
        row = rows[w] & avail
        if row:
            sub[w] = row
            touched |= low
            if row.bit_count() < least:
                x, least = w, row.bit_count()
    if touched.bit_count() < 2 * k:
        return False
    if k == 3:
        m = sub[x]
        while m:
            low = m & -m
            m ^= low
            if _two_disjoint_edges(rows, touched & ~(1 << x | low)):
                return True
        return False
    return _blossom(sub, len(rows), k)[1] >= k


def _max_matching_rows(rows, n: int) -> list[tuple[int, int]]:
    """Edges of a maximum matching, sorted."""
    match = _blossom(rows, n)[0]
    return sorted(
        {(min(v, match[v]), max(v, match[v])) for v in range(n) if match[v] != -1}
    )


def _blossom(rows, n: int, limit: int | None = None) -> tuple[list[int], int]:
    """Mates (-1 when exposed) and size of a maximum matching: a greedy
    start, then augmenting paths with blossom contraction. With a limit,
    stops once the matching has that many edges or can no longer reach it.

    A search that finds no augmenting path leaves a Hungarian tree: its
    outer vertices (used) have no live neighbor outside it, and its inner
    ones (p[i] != -1) are matched into it. An alternating path can enter
    it only at an inner vertex, along a non-matching edge, and from there
    only go down the tree, never out again; and its one exposed vertex is
    the root that just failed. So no augmenting path ever meets the tree,
    now or after later augmentations, which stay outside it. Its vertices
    leave alive for the rest of the call; the later searches walk live
    vertices only and find the same paths and mates that searches over
    the whole graph would, without re-walking the tree."""
    match = [-1] * n
    free = (1 << n) - 1
    alive = free
    size = 0
    for v in range(n):
        mates = rows[v] & free
        if mates and free >> v & 1:
            u = (mates & -mates).bit_length() - 1
            match[v] = u
            match[u] = v
            free ^= 1 << v | 1 << u
            size += 1

    def find_path(root: int) -> bool:
        nonlocal alive
        p = [-1] * n
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])

        def lca(a: int, b: int) -> int:
            seen = set()
            v = a
            while True:
                v = base[v]
                seen.add(v)
                if match[v] == -1:
                    break
                v = p[match[v]]
            v = b
            while base[v] not in seen:
                v = p[match[v]]
            return base[v]

        def mark_path(v: int, b: int, child: int, blossom: list[bool]):
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while q:
            v = q.popleft()
            adj = rows[v] & alive
            while adj:
                low = adj & -adj
                adj ^= low
                to = low.bit_length() - 1
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u2 = to
                        while u2 != -1:
                            pv = p[u2]
                            ppv = match[pv]
                            match[u2] = pv
                            match[pv] = u2
                            u2 = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        alive &= ~sum(1 << i for i in range(n) if used[i] or p[i] != -1)
        return False

    # an exposed vertex with no augmenting path never gets one later, so each
    # augmentation matches two exposed vertices not yet tried as roots; a
    # root whose neighbors all lie in dead trees fails without a search
    untried = sum(1 for v in range(n) if match[v] == -1 and rows[v])
    for root in range(n):
        if match[root] != -1 or not rows[root]:
            continue
        if limit is not None and not size < limit <= size + untried // 2:
            break
        if rows[root] & alive and find_path(root):
            size += 1
            untried -= 2
        else:
            untried -= 1
    return match, size


# ---------------------------------------------------------------------------
# the anchored check of the coloring search
# ---------------------------------------------------------------------------


def _new_containment(rows, n: int, target: TargetPattern, u: int, v: int) -> bool:
    """Whether the color class rows holds the target right after edge uv
    was added to it.

    The coloring search calls this after each edge it colors, on the class
    that received it. Every earlier partial coloring was checked, so the
    class without uv was target-free and any embedding now maps a pattern
    edge to uv: each kind is looked for through uv only. The target is in
    kernel form (_kernel_form), so F:t,1 arrives as K_{t+1}, M:1 as K2 and
    sK2 as M:s.

    K_m: a K_{m-2} in the common neighborhood of u and v (for K3 a common
    neighbor, for K4 an edge among the common neighbors).

    F:t,n: a center in {u, v} or the common neighborhood and a blade through
    uv (_fan_starts), then n-1 more blades in the center's neighborhood
    without it. For t = 1 the center is u or v (_fan_starts with no common
    neighbor as a center) and the blade the other end, so the star is there
    when u or v has n or more neighbors. For t >= 3 the blades are n-1
    disjoint K_t, which _clique_pack decides. For t = 2 they are a matching,
    and every center is anchored at its blade through a common neighbor w:
    a center u can only gain a fan in which uv is a spoke and {v, w} a
    blade, so it needs n-1 disjoint edges in N(u) - {v, w} (v the same, with
    u and v swapped); a center w can only gain one in which uv is a blade,
    so it needs n-1 disjoint edges in N(w) - {u, v}. For F:2,2 each is a
    one-edge scan.

    M:s: s-1 disjoint edges avoiding u and v. Up to three disjoint edges
    are found without blossom (_matching_at_least), so M:s with s <= 4 and
    F:2,n with n <= 4 run none here.

    Copies of K_m (m >= 3): a copy through uv is u, v and a K_{m-2} of their
    common neighbors (for K3 one common neighbor), and count-1 disjoint K_m
    must fit outside it (_clique_pack). Copies of a fan: each fan through uv
    (_fans_through), taken once per vertex set, completed by a packing of
    count-1 more fans outside it.

    Explicit patterns and their copies fall back to the full check, which
    is equally sound.
    """
    if isinstance(target, Clique):
        m = target.size
        if m <= 2:
            return True
        common = rows[u] & rows[v]
        if m == 3:
            return common != 0
        if m == 4:
            rest = common
            while rest:
                low = rest & -rest
                if rows[low.bit_length() - 1] & common:
                    return True
                rest ^= low
            return False
        return _clique_search(rows, common, m - 2) is not None
    if isinstance(target, Fan):
        if target.t == 2:
            # F:2,n centered at c is n disjoint edges in N(c); uv joins one
            # only through a common neighbor w, as the spoke to blade {v, w}
            # of center u (or {u, w} of center v) or as the blade of center w
            k = target.n - 1
            bu, bv = 1 << u, 1 << v
            common = rows[u] & rows[v]
            while common:
                bw = common & -common
                if (
                    _matching_at_least(rows, rows[u] & ~(bv | bw), k)
                    or _matching_at_least(rows, rows[v] & ~(bu | bw), k)
                    or _matching_at_least(rows, rows[bw.bit_length() - 1] & ~(bu | bv), k)
                ):
                    return True
                common ^= bw
            return False
        if target.t == 1:
            return rows[u].bit_count() >= target.n or rows[v].bit_count() >= target.n
        for _, _, left in _fan_starts(rows, target, u, v):
            if _clique_pack(rows, left, target.t, target.n - 1):
                return True
        return False
    if isinstance(target, Matching):
        avoid = ((1 << n) - 1) & ~(1 << u | 1 << v)
        return _matching_at_least(rows, avoid, target.size - 1)
    if isinstance(target, Copies):
        count, inner = target.count, target.inner
        full = (1 << n) - 1
        if isinstance(inner, Clique) and inner.size >= 3:
            m = inner.size
            outside = full & ~(1 << u | 1 << v)
            common = rows[u] & rows[v]
            if m == 3:
                while common:
                    bw = common & -common
                    if _clique_pack(rows, outside ^ bw, 3, count - 1):
                        return True
                    common ^= bw
                return False
            # a loop, not any() over a generator, which would turn rows into
            # a closure cell and slow every branch of this hot function
            for rest in _cliques_iter(rows, common, m - 2, 0):
                if _clique_pack(rows, outside & ~mask_of(rest), m, count - 1):
                    return True
            return False
        if isinstance(inner, Fan):
            p = pattern_order(inner)
            seen = set()
            for emb in _fans_through(rows, inner, u, v):
                used = mask_of(emb)
                if used in seen:
                    continue
                seen.add(used)
                packing = _packings(rows, full & ~used, _fans_iter, inner, p, count - 1)
                if next(packing, None) is not None:
                    return True
            return False
    return _contains_rows(rows, n, target) is not None


# ---------------------------------------------------------------------------
# public oracles
# ---------------------------------------------------------------------------


def contains_clique(g: Graph, m: int) -> EmbeddingWitness | None:
    """First m-clique of g in ascending vertex order, if any."""
    return contains_target(g, Clique(m))


def clique_number(g: Graph) -> int:
    return _clique_number_rows(g.rows, g.order)


def independence_number(g: Graph) -> int:
    """Size of a largest independent set (clique number of the complement)."""
    full = (1 << g.order) - 1
    comp_rows = tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows))
    return _clique_number_rows(comp_rows, g.order)


def max_matching(g: Graph) -> EmbeddingWitness:
    """A maximum matching; edges sorted, pattern_order twice the edge count."""
    pairs = _max_matching_rows(g.rows, g.order)
    return EmbeddingWitness(2 * len(pairs), tuple(pairs))


def kt_packing(g: Graph, t: int, n: int) -> EmbeddingWitness | None:
    """n pairwise-disjoint t-cliques, copies ordered by lowest vertex."""
    if t < 1 or n < 1:
        raise BadParam("packing parameters must be positive")
    for packing in _packings(g.rows, (1 << g.order) - 1, _cliques_iter, t, t, n):
        return EmbeddingWitness(t * n, tuple(packing))
    return None


def contains_fan(g: Graph, t: int, n: int) -> EmbeddingWitness | None:
    """First fan embedding: centers tried ascending, blades packed within the
    center's neighborhood in ascending order."""
    return contains_target(g, Fan(t, n))


def contains_copies(g: Graph, count: int, inner: TargetPattern) -> EmbeddingWitness | None:
    """count disjoint copies of a connected inner pattern.

    Each copy lies within one connected component, so the search decomposes by
    component: a component of c vertices holds at most c // order(inner)
    copies, and components contribute independently.
    """
    return contains_target(g, Copies(count, inner))


def _copies_rows(rows, n: int, target: Copies) -> tuple[int, ...] | None:
    p = pattern_order(target.inner)
    embed, pat = _copies_kernel(target.inner)
    remaining = target.count
    flat: list[int] = []
    for comp in components_rows(rows, n):
        if remaining == 0:
            break
        k = min(comp.bit_count() // p, remaining)
        while k >= 1:
            found = next(_packings(rows, comp, embed, pat, p, k), None)
            if found is not None:
                flat.extend(v for emb in found for v in emb)
                remaining -= k
                break
            k -= 1
    return None if remaining else tuple(flat)


def _contains_rows(rows, n: int, t: TargetPattern) -> EmbeddingWitness | None:
    """First embedding from the kernel of the target's _kernel_form, flat,
    split into the groups of the spelled kind by _group_sizes. t is what
    normalize_pattern returned (or its kernel form): the caller has read and
    validated it, and this only dispatches."""
    k = _kernel_form(t)
    full = (1 << n) - 1
    if isinstance(k, Clique):
        flat = _clique_search(rows, full, k.size)
    elif isinstance(k, Matching):
        pairs = _max_matching_rows(rows, n)
        flat = None if len(pairs) < k.size else tuple(v for e in pairs[: k.size] for v in e)
    elif isinstance(k, Fan):
        flat = next(_fans_iter(rows, full, k, 0), None)
    elif isinstance(k, Copies):
        flat = _copies_rows(rows, n, k)
    else:
        flat = None if k.graph.order > n else next(_embed_iter(rows, full, k.graph, 0), None)
    if flat is None:
        return None
    it = iter(flat)
    return EmbeddingWitness(len(flat), tuple(tuple(islice(it, m)) for m in _group_sizes(t)))


def contains_target(g: Graph, target: TargetPattern | str) -> EmbeddingWitness | None:
    """Dispatch to the specialized oracle for each pattern kind. The target
    is read by normalize_pattern: a string is parsed, and the inner pattern
    of copies must be connected (BadParam otherwise)."""
    return _contains_rows(g.rows, g.order, normalize_pattern(target))


def witness_valid(g: Graph, target: TargetPattern | str, w: EmbeddingWitness) -> bool:
    """Re-validate a witness against the host by one rule for every kind:
    distinct vertices of the host, groups of the sizes the pattern's kind
    gives them, and every edge of pattern_graph mapped to a host edge, the
    vertices read in label order."""
    t = normalize_pattern(target)
    verts = w.vertices()
    if len(set(verts)) != len(verts) or any(not 0 <= v < g.order for v in verts):
        return False
    if w.pattern_order != len(verts) or tuple(map(len, w.groups)) != _group_sizes(t):
        return False
    return all(g.has_edge(verts[a], verts[b]) for a, b in pattern_graph(t).edges())
