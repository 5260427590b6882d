"""Checks on fanram's reports that do not use fanram.

Everything here is computed from published results, from networkx, or by
brute force: expected Ramsey values, graph6 decoding, freeness of witness
colorings, certificate hashes. A check that fails raises CheckFailed with a
message naming the operation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re

import networkx as nx

CERT_FIELDS = (
    "format",
    "host",
    "red",
    "red_target",
    "blue_target",
    "red_witness",
    "blue_witness",
)


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


def parse(text: str) -> tuple:
    """('K', m), ('M', s), ('F', t, n) or ('x', count, inner).

    F:t,1 is the clique K_{t+1} and is returned as one."""
    m = re.fullmatch(r"(\d+)x(.+)", text)
    if m:
        return ("x", int(m.group(1)), parse(m.group(2)))
    m = re.fullmatch(r"K(\d+)", text)
    if m:
        return ("K", int(m.group(1)))
    m = re.fullmatch(r"M:(\d+)", text)
    if m:
        return ("M", int(m.group(1)))
    m = re.fullmatch(r"F:(\d+),(\d+)", text)
    if m:
        t, n = int(m.group(1)), int(m.group(2))
        return ("K", t + 1) if n == 1 else ("F", t, n)
    raise CheckFailed(f"benchmark cannot parse target {text!r}")


def _order(p: tuple) -> int:
    kind = p[0]
    if kind == "K":
        return p[1]
    if kind == "M":
        return 2 * p[1]
    if kind == "F":
        return p[1] * p[2] + 1
    return p[1] * _order(p[2])


# ---------------------------------------------------------------------------
# published Ramsey values
# ---------------------------------------------------------------------------


def _ramsey_one_way(a: tuple, b: tuple) -> tuple[int | None, int]:
    """(exact value or None, lower bound) for r(a, b), one orientation."""
    if a == ("K", 3) and b[0] == "K" and b[1] <= 5:
        # Greenwood and Gleason (1955): r(3,3)=6, r(3,4)=9, r(3,5)=14
        value = {2: 3, 3: 6, 4: 9, 5: 14}[b[1]]
        return value, value
    if a[0] == "K" and b[0] == "M":
        # r(K_m, nK_2) = m + 2n - 2 (Faudree, Schelp and Sheehan)
        value = a[1] + 2 * b[1] - 2
        return value, value
    if a == ("K", 3) and b == ("x", 2, ("K", 3)):
        # Burr, Erdos and Spencer (1975): r(mK3, nK3) = 3m + 2n, m >= n, m >= 2
        return 8, 8
    if a[0] == "M" and b[0] == "F":
        # lemma 2.7 of the paper: r(sK_2, F_{t,n}) = max(s,n) + (t-1)n + s
        s, t, n = a[1], b[1], b[2]
        value = max(s, n) + (t - 1) * n + s
        return value, value
    if a == ("K", 3) and b[0] == "F" and b[1] == 2 and b[2] >= 2:
        # Li and Rousseau (1996), theorem 1.3(i) of the paper: 4n + 1
        value = 4 * b[2] + 1
        return value, value
    if a[0] == "K" and a[1] >= 3:
        # lower bound of theorem 1.7: r(K_m, sF_{t,n}) > tn(m+s-2) + s - 1
        s, fan = (b[1], b[2]) if b[0] == "x" else (1, b)
        if fan[0] == "F":
            t, n = fan[1], fan[2]
            return None, t * n * (a[1] + s - 2) + s
    return None, 1


def ramsey_facts(red: str, blue: str) -> tuple[int | None, int]:
    """(exact value or None, lower bound) of r(red, blue) from the
    literature, trying both orientations."""
    a, b = parse(red), parse(blue)
    exact, lower = _ramsey_one_way(a, b)
    if exact is None:
        exact, lower2 = _ramsey_one_way(b, a)
        lower = max(lower, lower2)
    return exact, lower


# ---------------------------------------------------------------------------
# graphs and containment by brute force
# ---------------------------------------------------------------------------


def decode(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.encode("ascii"))


def encode(order: int, edges) -> str:
    """graph6 text of a graph on 0..order-1: the order, then the upper
    triangle column by column, six bits to a character."""
    if order <= 62:
        head = chr(order + 63)
    else:
        head = "~" + "".join(chr((order >> shift & 63) + 63) for shift in (12, 6, 0))
    groups = bytearray((order * (order - 1) // 2 + 5) // 6)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        pos = j * (j - 1) // 2 + i
        groups[pos // 6] |= 32 >> pos % 6
    return head + "".join(chr(g + 63) for g in groups)


def _clique_sets(g: nx.Graph, size: int, within) -> list[frozenset]:
    verts = sorted(within)
    return [
        frozenset(c)
        for c in itertools.combinations(verts, size)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))
    ]


def _disjoint(sets: list[frozenset], k: int, used: frozenset = frozenset()) -> bool:
    """True when k pairwise disjoint members of sets avoid `used`."""
    if k == 0:
        return True
    for i, s in enumerate(sets):
        if not s & used and _disjoint(sets[i + 1:], k - 1, used | s):
            return True
    return False


def _copy_sets(g: nx.Graph, p: tuple) -> list[frozenset]:
    """Vertex sets of every copy of a connected pattern in g."""
    if p[0] == "K":
        return _clique_sets(g, p[1], g.nodes)
    if p[0] == "F":
        out = set()
        for c in g.nodes:
            blades = _clique_sets(g, p[1], g.adj[c])
            for combo in itertools.combinations(blades, p[2]):
                if len(frozenset().union(*combo)) == p[1] * p[2]:
                    out.add(frozenset().union(*combo) | {c})
        return sorted(out, key=sorted)
    raise CheckFailed(f"no brute-force copies for {p!r}")


def brute_contains(g: nx.Graph, target: str) -> bool:
    """Containment by exhaustive enumeration; for small graphs only."""
    p = parse(target)
    if p[0] == "K":
        return bool(_clique_sets(g, p[1], g.nodes))
    if p[0] == "M":
        edges = [frozenset(e) for e in g.edges]
        return _disjoint(edges, p[1])
    if p[0] == "F":
        return any(
            _disjoint(_clique_sets(g, p[1], g.adj[c]), p[2]) for c in g.nodes
        )
    return _disjoint(_copy_sets(g, p[2]), p[1])


def oracle_contains(g: nx.Graph, target: str) -> bool | None:
    """Containment by a polynomial oracle where one exists: clique number
    for K_m, maximum matching for M:s, a maximum matching inside each
    neighbourhood for F:2,n. None for other targets."""
    p = parse(target)
    if p[0] == "K":
        return nx.max_weight_clique(g, weight=None)[1] >= p[1]
    if p[0] == "M":
        return len(nx.max_weight_matching(g, maxcardinality=True)) >= p[1]
    if p[0] == "F" and p[1] == 2:
        for c in g.nodes:
            hood = g.subgraph(g.adj[c])
            if len(nx.max_weight_matching(hood, maxcardinality=True)) >= p[2]:
                return True
        return False
    return None


def witness_embeds(g: nx.Graph, target: str, witness: dict) -> bool:
    """True when the report's witness groups form the target in g."""
    p = parse(target)
    groups = [tuple(grp) for grp in witness["groups"]]
    verts = [v for grp in groups for v in grp]
    if len(set(verts)) != len(verts) or witness["pattern_order"] != len(verts):
        return False
    if len(verts) != _order(p) or any(v not in g for v in verts):
        return False

    def clique(vs) -> bool:
        return all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2))

    def fan(hub, blades, t) -> bool:
        return all(
            len(b) == t and clique(b) and all(g.has_edge(hub, v) for v in b)
            for b in blades
        )

    if p[0] == "K":
        return len(groups) == 1 and clique(groups[0])
    if p[0] == "M":
        return all(len(grp) == 2 and g.has_edge(*grp) for grp in groups)
    if p[0] == "F":
        return len(groups[0]) == 1 and fan(groups[0][0], groups[1:], p[1])
    inner = p[2]
    if len(groups) != p[1] or any(len(grp) != _order(inner) for grp in groups):
        return False
    if inner[0] == "K":
        return all(clique(grp) for grp in groups)
    t, n = inner[1], inner[2]
    return all(
        fan(grp[0], [grp[1 + i * t: 1 + (i + 1) * t] for i in range(n)], t)
        for grp in groups
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def certificate_colors(cert: dict, name: str) -> tuple[nx.Graph, nx.Graph, nx.Graph]:
    """Check the certificate's hash and field layout; return the decoded
    host, red graph and blue graph."""
    require(
        list(cert) == list(CERT_FIELDS) + ["content_hash"],
        f"{name}: certificate fields {list(cert)}",
    )
    require(cert["format"] == "fanram-certificate-1", f"{name}: certificate format")
    payload = {key: cert[key] for key in CERT_FIELDS}
    digest = hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()
    require(digest == cert["content_hash"], f"{name}: certificate hash mismatch")
    host = decode(cert["host"])
    red = decode(cert["red"])
    require(red.number_of_nodes() == host.number_of_nodes(), f"{name}: red order")
    require(
        all(host.has_edge(u, v) for u, v in red.edges), f"{name}: red edge off host"
    )
    blue = nx.Graph(host.edges)
    blue.add_nodes_from(host.nodes)
    blue.remove_edges_from(red.edges)
    return host, red, blue


def check_witnesses(cert: dict, red: nx.Graph, blue: nx.Graph, name: str) -> None:
    """Every witness the certificate names must embed its target."""
    for color, graph in (("red", red), ("blue", blue)):
        w = cert[f"{color}_witness"]
        if w is not None:
            require(
                witness_embeds(graph, cert[f"{color}_target"], w),
                f"{name}: {color} witness does not embed {cert[f'{color}_target']}",
            )


def check_free_witness(cert: dict, name: str) -> nx.Graph:
    """A search witness: hash, no witnesses, and free by brute force.
    Returns the host."""
    host, red, blue = certificate_colors(cert, name)
    require(
        cert["red_witness"] is None and cert["blue_witness"] is None,
        f"{name}: witness certificate is not free",
    )
    require(
        not brute_contains(red, cert["red_target"]),
        f"{name}: witness has a red {cert['red_target']}",
    )
    require(
        not brute_contains(blue, cert["blue_target"]),
        f"{name}: witness has a blue {cert['blue_target']}",
    )
    return host
