"""Two-colorings of host graphs, freeness certificates, and the extremal
constructions used as lower-bound witnesses.

A coloring is stored as its red graph; the blue graph is derived from the
host on construction, so files, certificates and constructions hand over
graphs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import reduce

from .errors import (
    BadParam, CorruptRecord, FanramError, OrderCap, PreconditionViolated, StructureNotFound
)
from .graph6 import decode, encode
from .graphs import (
    MAX_ORDER,
    Graph,
    VertexSet,
    complete,
    complement,
    disjoint_union,
    empty_graph,
)
from .patterns import (
    EmbeddingWitness,
    TargetPattern,
    format_target,
    normalize_pattern,
    witness_valid,
)
from . import patterns

CERT_FORMAT = "fanram-certificate-1"


@dataclass(frozen=True)
class TwoColoring:
    """A red/blue edge partition of a host graph: `red` is the red graph on
    the host's vertices, and every host edge it lacks is blue. The red graph
    must have the host's order and lie inside the host; the blue graph is
    built once, on construction."""

    host: Graph
    red: Graph
    _blue: Graph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, red, host = self.host.order, self.red.rows, self.host.rows
        if self.red.order != n:
            raise BadParam("red graph order differs from host order")
        for u, (row, h) in enumerate(zip(red, host)):
            extra = row & ~h
            if extra:
                # rows are symmetric, so the first such row holds the lower end
                v = (extra & -extra).bit_length() - 1
                raise BadParam(f"red edge ({u}, {v}) not in the host")
        object.__setattr__(self, "_blue", Graph(n, tuple(h & ~r for r, h in zip(red, host))))

    def red_graph(self) -> Graph:
        return self.red

    def blue_graph(self) -> Graph:
        return self._blue


@dataclass
class Certificate:
    """Verdicts of one freeness check, with a content hash over the canonical
    serialization so re-runs are comparable byte for byte. The serialization
    without the hash (certificate_payload) is built once, on construction,
    and kept as `payload`."""

    coloring: TwoColoring
    red_target: TargetPattern
    blue_target: TargetPattern
    red_witness: EmbeddingWitness | None
    blue_witness: EmbeddingWitness | None
    content_hash: str
    payload: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.payload = certificate_payload(self)

    @property
    def valid(self) -> bool:
        """True when neither forbidden pattern was found (the coloring is free)."""
        return self.red_witness is None and self.blue_witness is None


def witness_obj(w: EmbeddingWitness | None) -> dict | None:
    """An embedding witness as stored and reported; None stays None."""
    if w is None:
        return None
    return {"pattern_order": w.pattern_order, "groups": [list(g) for g in w.groups]}


def certificate_payload(cert: Certificate) -> dict:
    """Canonical field order; the hash is computed over exactly this object."""
    return {
        "format": CERT_FORMAT,
        "host": encode(cert.coloring.host),
        "red": encode(cert.coloring.red_graph()),
        "red_target": format_target(cert.red_target),
        "blue_target": format_target(cert.blue_target),
        "red_witness": witness_obj(cert.red_witness),
        "blue_witness": witness_obj(cert.blue_witness),
    }


def _hash_payload(payload: dict) -> str:
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def certificate_obj(cert: Certificate) -> dict:
    """The payload followed by its content hash: a certificate as stored and
    reported."""
    return {**cert.payload, "content_hash": cert.content_hash}


def serialize_certificate(cert: Certificate) -> str:
    return json.dumps(certificate_obj(cert), indent=2)


def load_certificate(text: str) -> Certificate:
    """Parse a serialized certificate, decode its coloring from the host and
    red strings, re-run the check, and require that the stored object equal
    the recomputed one (certificate_obj) in every field: format, targets,
    both verdicts and the hash, with no field missing or extra."""
    try:
        doc = json.loads(text)
        coloring = TwoColoring(decode(doc["host"]), decode(doc["red"]))
        red_t = normalize_pattern(doc["red_target"])
        blue_t = normalize_pattern(doc["blue_target"])
    except Exception as exc:  # noqa: BLE001 - any defect is corruption here
        raise CorruptRecord(f"certificate unreadable: {exc}") from exc
    cert = check_free(coloring, red_t, blue_t)
    if doc != certificate_obj(cert):
        raise CorruptRecord("certificate differs from its re-validation")
    return cert


def check_free(
    coloring: TwoColoring,
    red_target: TargetPattern | str,
    blue_target: TargetPattern | str,
) -> Certificate:
    """Run both containment oracles and package the verdicts.

    The coloring is free exactly when the red graph avoids the red target and
    the blue graph avoids the blue target. Every witness found is
    re-validated against its graph; one that fails raises FanramError.
    Both targets are read by normalize_pattern, so the certificate names
    them normalized and refuses what every other entry point refuses.
    """
    red_t = normalize_pattern(red_target)
    blue_t = normalize_pattern(blue_target)
    rw = patterns.contains_target(coloring.red_graph(), red_t)
    bw = patterns.contains_target(coloring.blue_graph(), blue_t)
    for color, graph, target, w in (
        ("red", coloring.red_graph(), red_t, rw),
        ("blue", coloring.blue_graph(), blue_t, bw),
    ):
        if w is not None and not witness_valid(graph, target, w):
            raise FanramError(f"{color} witness {witness_obj(w)} fails re-validation")
    cert = Certificate(coloring, red_t, blue_t, rw, bw, "")
    cert.content_hash = _hash_payload(cert.payload)
    return cert


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _disjoint_cliques(sizes) -> Graph:
    parts = [complete(b) for b in sizes]
    return reduce(disjoint_union, parts) if parts else complete(0)


def _coloring_with_blue(blue: Graph) -> TwoColoring:
    """Complete host whose blue graph is `blue` and red graph its complement."""
    return TwoColoring(complete(blue.order), complement(blue))


def burr_coloring(chi: int, surplus: int, h_order: int) -> TwoColoring:
    """Blue = (chi-1) disjoint K_{h_order-1} plus one K_{surplus-1} block last;
    red is the complementary complete multipartite graph.

    Free for any red target of chromatic number chi and surplus `surplus`
    versus any connected blue target of order h_order.
    """
    if chi < 2 or surplus < 1 or h_order < 1:
        raise BadParam("need chi >= 2, surplus >= 1, h_order >= 1")
    if h_order < surplus:
        raise BadParam("h_order must be at least the surplus")
    order = (chi - 1) * (h_order - 1) + surplus - 1
    if order > MAX_ORDER:
        raise OrderCap(f"order {order} exceeds {MAX_ORDER}")
    blue = _disjoint_cliques([h_order - 1] * (chi - 1) + [surplus - 1])
    return _coloring_with_blue(blue)


def thm17_construction(m: int, s: int, t: int, n: int) -> TwoColoring:
    """Red = complete multipartite with one part of (tn+1)s-1 vertices first and
    m-2 parts of tn vertices; order tn(m+s-2)+s-1.

    Blue is one large clique plus m-2 cliques K_{tn}: too small to hold s
    disjoint fans, while red has clique number m-1.
    """
    if m < 3 or s < 1 or t < 1 or n < 1:
        raise BadParam("need m >= 3 and s, t, n >= 1")
    order = t * n * (m + s - 2) + s - 1
    if order > MAX_ORDER:
        raise OrderCap(f"order {order} exceeds {MAX_ORDER}")
    blue = _disjoint_cliques([(t * n + 1) * s - 1] + [t * n] * (m - 2))
    return _coloring_with_blue(blue)


def lemma27_construction(s: int, t: int, n: int) -> TwoColoring:
    """Matching-versus-fan lower-bound coloring.

    For n >= s: red is complete bipartite with parts tn and s-1 (order tn+s-1),
    so blue is K_{tn} followed by K_{s-1}.
    For n < s: red is an empty block of (t-1)n vertices followed by K_{2s-1}
    (order (t-1)n+2s-1). The boundary n = s emits the first branch.
    """
    if s < 1 or t < 1 or n < 1:
        raise BadParam("need s, t, n >= 1")
    order = t * n + s - 1 if n >= s else (t - 1) * n + 2 * s - 1
    if order > MAX_ORDER:
        raise OrderCap(f"order {order} exceeds {MAX_ORDER}")
    if n >= s:
        return _coloring_with_blue(_disjoint_cliques([t * n, s - 1]))
    red = disjoint_union(empty_graph((t - 1) * n), complete(2 * s - 1))
    return TwoColoring(complete(order), red)


def verify_lemma24(coloring: TwoColoring, n: int) -> tuple[VertexSet, VertexSet]:
    """In a free coloring of K_{8n} for (K_3, F:4,n) with n >= 4, find two
    disjoint blue 4n-cliques, backtracking over the first choice if needed.

    Raises PreconditionViolated when the input is not such a coloring and
    StructureNotFound when no pair exists (a genuine failure signal).
    """
    if n < 4:
        raise PreconditionViolated("needs n >= 4")
    host = coloring.host
    if host != complete(8 * n):
        raise PreconditionViolated(f"host must be the complete graph on {8 * n} vertices")
    cert = check_free(coloring, patterns.Clique(3), patterns.Fan(4, n))
    if not cert.valid:
        raise PreconditionViolated("coloring is not free for (K3, F:4,n)")
    w = patterns.kt_packing(coloring.blue_graph(), 4 * n, 2)
    if w is None:
        raise StructureNotFound("no two disjoint blue cliques of the required size")
    first, second = w.groups
    return frozenset(first), frozenset(second)
