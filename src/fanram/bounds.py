"""Lower-bound machinery: exact chromatic invariants, the multipartite
lower-bound formula, goodness, the star lower bound, and a registry of
closed-form values with explicit validity conditions. Registry entries are
Ramsey numbers r unless their condition names the star-critical r_*."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import BadParam, MissingParam, OrderCap, PreconditionViolated, UnknownFormula
from .graphs import Graph, bits, is_connected

ENUM_ORDER_CAP = 12
CHI_ORDER_CAP = 40


def _greedy_clique(g: Graph) -> int:
    """Greedy clique lower bound: extend ascending from each vertex."""
    best = 0
    full = (1 << g.order) - 1
    for v in range(g.order):
        cur = [v]
        cand = g.rows[v] & full
        while cand:
            u = (cand & -cand).bit_length() - 1
            cur.append(u)
            cand &= g.rows[u]
        best = max(best, len(cur))
    return best


def _dsatur_upper(g: Graph) -> int:
    """Greedy coloring with max-saturation vertex selection; returns colors used."""
    n = g.order
    if n == 0:
        return 0
    color = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if color[u] == -1),
            key=lambda u: (len(neighbor_colors[u]), g.rows[u].bit_count(), -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        color[v] = c
        for u in bits(g.rows[v]):
            if color[u] == -1:
                neighbor_colors[u].add(c)
    return max(color) + 1


def _colorable(g: Graph, k: int) -> bool:
    """Exact k-colorability by backtracking; new colors introduced in order."""
    n = g.order
    color = [-1] * n

    def select() -> int | None:
        best_v, best_key = None, None
        for v in range(n):
            if color[v] != -1:
                continue
            seen = {color[u] for u in bits(g.rows[v]) if color[u] != -1}
            key = (-len(seen), -g.rows[v].bit_count(), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    def rec(used: int) -> bool:
        v = select()
        if v is None:
            return True
        banned = {color[u] for u in bits(g.rows[v]) if color[u] != -1}
        limit = min(k, used + 1)
        for c in range(limit):
            if c in banned:
                continue
            color[v] = c
            if rec(max(used, c + 1)):
                return True
            color[v] = -1
        return False

    return rec(0)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number for graphs of order at most 40."""
    if g.order > CHI_ORDER_CAP:
        raise OrderCap(f"chromatic number capped at order {CHI_ORDER_CAP}")
    if g.order == 0:
        return 0
    if g.size() == 0:
        return 1
    lo = max(2, _greedy_clique(g))
    hi = _dsatur_upper(g)
    for k in range(lo, hi):
        if _colorable(g, k):
            return k
    return hi


def _optimal_partitions(g: Graph, chi: int) -> Iterator[tuple[int, ...]]:
    """All partitions of the vertices into exactly chi independent classes.

    Classes are identified by first-use order, so each unordered partition is
    produced exactly once.
    """
    n = g.order
    classes: list[int] = []

    def rec(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            if len(classes) == chi:
                yield tuple(classes)
            return
        if len(classes) + (n - v) < chi:
            return
        row = g.rows[v]
        for i, cm in enumerate(classes):
            if not cm & row:
                classes[i] = cm | 1 << v
                yield from rec(v + 1)
                classes[i] = cm
        if len(classes) < chi:
            classes.append(1 << v)
            yield from rec(v + 1)
            classes.pop()

    yield from rec(0)


def chromatic_surplus(g: Graph) -> int:
    """Smallest color-class size over all proper colorings with exactly
    chromatic-number many colors. Enumeration-backed; order capped at 12."""
    if g.order > ENUM_ORDER_CAP:
        raise OrderCap(f"surplus enumeration capped at order {ENUM_ORDER_CAP}")
    if g.order == 0:
        raise BadParam("surplus of the empty graph is undefined")
    chi = chromatic_number(g)
    best = g.order
    for part in _optimal_partitions(g, chi):
        best = min(best, min(cm.bit_count() for cm in part))
        if best == 1:
            break
    return best


def tau(g: Graph) -> int:
    """Minimum, over optimal colorings carrying a class of surplus size, of a
    surplus-class vertex's edge count into another class.

    Every choice of optimal coloring, minimum-size class, vertex, and other
    class is considered, which yields the weakest usable value.
    """
    if g.order > ENUM_ORDER_CAP:
        raise OrderCap(f"tau enumeration capped at order {ENUM_ORDER_CAP}")
    chi = chromatic_number(g)
    if chi < 2:
        raise BadParam("tau needs at least two color classes")
    s = chromatic_surplus(g)
    best: int | None = None
    for part in _optimal_partitions(g, chi):
        for u1 in part:
            if u1.bit_count() != s:
                continue
            for v in bits(u1):
                for other in part:
                    if other == u1:
                        continue
                    d = (g.rows[v] & other).bit_count()
                    if best is None or d < best:
                        best = d
    assert best is not None
    return best


@dataclass(frozen=True)
class GraphParams:
    """The four graph invariants the lower bounds consume."""

    chi: int
    surplus: int
    tau: int
    min_degree: int


def graph_params(g: Graph) -> GraphParams:
    if g.order == 0:
        raise BadParam("parameters of the empty graph are undefined")
    return GraphParams(
        chi=chromatic_number(g),
        surplus=chromatic_surplus(g),
        tau=tau(g),
        min_degree=min(r.bit_count() for r in g.rows),
    )


@dataclass
class Validity:
    condition: str
    satisfied: bool
    assumed: str | None = None


@dataclass
class BoundReport:
    formula_id: str
    params: dict
    value: int
    kind: str
    validity: Validity


def burr_bound(g: Graph, h: Graph) -> BoundReport:
    """(chi(g)-1)(order(h)-1) + surplus(g): the multipartite lower bound for
    the Ramsey number of g versus a connected h."""
    chi = chromatic_number(g)
    s = chromatic_surplus(g)
    n = h.order
    if n < s:
        raise PreconditionViolated("order(h) below the surplus of g")
    conn = is_connected(h) and h.order >= 1
    return BoundReport(
        formula_id="burr",
        params={"chi": chi, "surplus": s, "h_order": n},
        value=(chi - 1) * (n - 1) + s,
        kind="lower",
        validity=Validity(
            condition="h connected and order(h) >= surplus(g)",
            satisfied=conn,
        ),
    )


def is_good(g: Graph, h: Graph, r_value: int, provenance: str = "verified") -> bool:
    """True when the known Ramsey number equals the multipartite lower bound.

    r_value must come from a verified source; provenance "unverified" raises.
    """
    if provenance == "unverified":
        raise PreconditionViolated("r_value provenance must be verified")
    return burr_bound(g, h).value == r_value


def star_lower_bound(g: Graph, h: Graph, good_asserted: bool = True) -> BoundReport:
    """(chi(g)-2)(order(h)-1) + min(order(h), delta(h) + tau(g) - 1).

    Valid when h is g-good; goodness is caller-asserted and recorded as such.
    """
    chi = chromatic_number(g)
    if chi < 2:
        raise PreconditionViolated("g must have chromatic number at least 2")
    s = chromatic_surplus(g)
    n = h.order
    if n < s:
        raise PreconditionViolated("order(h) below the surplus of g")
    t = tau(g)
    delta = min(r.bit_count() for r in h.rows)
    conn = is_connected(h) and h.order >= 1
    return BoundReport(
        formula_id="star_lower",
        params={"chi": chi, "surplus": s, "tau": t, "delta": delta, "h_order": n},
        value=(chi - 2) * (n - 1) + min(n, delta + t - 1),
        kind="lower",
        validity=Validity(
            condition="h connected, order(h) >= surplus(g), h is g-good",
            satisfied=conn and good_asserted,
            assumed="goodness of h is caller-asserted",
        ),
    )


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Formula:
    params: tuple[str, ...]
    kind: str
    condition: str
    value: callable = field(compare=False)
    check: callable = field(compare=False)
    assumed: str | None = None


_REGISTRY: dict[str, _Formula] = {
    "thm1.3i": _Formula(
        ("n",), "exact", "n >= 3",
        lambda p: 4 * p["n"] + 1,
        lambda p: p["n"] >= 3,
    ),
    "thm1.3ii": _Formula(
        ("n",), "exact", "n >= 4",
        lambda p: 6 * p["n"] + 1,
        lambda p: p["n"] >= 4,
    ),
    "thm1.3iii": _Formula(
        ("n",), "exact", "n >= 5",
        lambda p: 8 * p["n"] + 1,
        lambda p: p["n"] >= 5,
    ),
    "thm1.3iv": _Formula(
        ("n",), "exact", "n >= 6",
        lambda p: 10 * p["n"] + 1,
        lambda p: p["n"] >= 6,
    ),
    "thm1.4": _Formula(
        ("n",), "exact", "n >= 3",
        lambda p: 6 * p["n"] + 1,
        lambda p: p["n"] >= 3,
    ),
    "thm1.5": _Formula(
        ("n",), "exact", "n >= 4",
        lambda p: 8 * p["n"] + 1,
        lambda p: p["n"] >= 4,
    ),
    "thm1.4star": _Formula(
        ("n",), "exact", "star-critical r_*(K3, F_{3,n}); n >= 4",
        lambda p: 3 * p["n"] + 3,
        lambda p: p["n"] >= 4,
    ),
    "thm1.5star": _Formula(
        ("n",), "exact", "star-critical r_*(K3, F_{4,n}); n >= 4",
        lambda p: 4 * p["n"] + 4,
        lambda p: p["n"] >= 4,
    ),
    "thm1.6": _Formula(
        ("m", "s", "t", "n"), "exact", "m >= 3, s, t, n >= 1, tn large",
        lambda p: p["t"] * p["n"] * (p["m"] - 1) + p["s"],
        lambda p: p["m"] >= 3 and min(p["s"], p["t"], p["n"]) >= 1,
        assumed="the product tn must clear an unspecified threshold constant",
    ),
    "thm1.7lo": _Formula(
        ("m", "s", "t", "n"), "lower", "n >= m >= 3, s, t >= 1",
        lambda p: p["t"] * p["n"] * (p["m"] + p["s"] - 2) + p["s"],
        lambda p: p["n"] >= p["m"] >= 3 and min(p["s"], p["t"]) >= 1,
    ),
    "thm1.7hi": _Formula(
        ("m", "s", "t", "n", "base"), "upper",
        "n >= m >= 3, s, t >= 1; base is the one-copy Ramsey value",
        lambda p: (p["t"] * p["n"] + 1) * (p["s"] - 1) + p["base"],
        lambda p: p["n"] >= p["m"] >= 3 and min(p["s"], p["t"]) >= 1,
    ),
    "thm1.11": _Formula(
        ("m", "t", "n"), "upper", "t >= 3, m, n >= 1, 2m large",
        lambda p: max(p["m"], p["n"])
        + (p["t"] - 1) * (2 * p["m"] + p["n"])
        + p["n"]
        + p["m"],
        lambda p: p["t"] >= 3 and min(p["m"], p["n"]) >= 1,
        assumed="2m must clear an unspecified threshold constant",
    ),
    "lem2.1": _Formula(
        ("m", "n"), "exact", "n >= m >= 1 and n >= 2",
        lambda p: 4 * p["n"] + 2 * p["m"] + 1,
        lambda p: p["n"] >= p["m"] >= 1 and p["n"] >= 2,
    ),
    "lem2.7": _Formula(
        ("s", "t", "n"), "exact", "t >= 2, s, n >= 1",
        lambda p: max(p["s"], p["n"]) + (p["t"] - 1) * p["n"] + p["s"],
        lambda p: p["t"] >= 2 and min(p["s"], p["n"]) >= 1,
    ),
    "cor1.8": _Formula(
        ("m", "s", "n"), "exact", "3 <= m <= 6 and n >= m and s >= 1",
        lambda p: 2 * p["n"] * (p["s"] + p["m"] - 2) + p["s"],
        lambda p: 3 <= p["m"] <= 6 and p["n"] >= p["m"] and p["s"] >= 1,
    ),
    "cor1.9": _Formula(
        ("s", "t", "n"), "exact", "t in {3, 4} and n >= t and s >= 1",
        lambda p: p["t"] * p["n"] * (p["s"] + 1) + p["s"],
        lambda p: p["t"] in (3, 4) and p["n"] >= p["t"] and p["s"] >= 1,
    ),
    "cor1.10": _Formula(
        ("m", "s", "t", "n"), "exact", "m >= 3, s, t, n >= 1, tn large",
        lambda p: p["t"] * p["n"] * (p["m"] + p["s"] - 2) + p["s"],
        lambda p: p["m"] >= 3 and min(p["s"], p["t"], p["n"]) >= 1,
        assumed="the product tn must clear an unspecified threshold constant",
    ),
    "conj1.2": _Formula(
        ("m", "n"), "exact", "n >= m >= 3 (conjectured)",
        lambda p: 2 * p["n"] * (p["m"] - 1) + 1,
        lambda p: p["n"] >= p["m"] >= 3,
        assumed="conjectured value, proven only for m <= 6",
    ),
}


def formula_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def closed_formula(formula_id: str, params: Mapping[str, int]) -> BoundReport:
    """Evaluate a registered closed formula.

    Out-of-range parameters are never an error: the report's validity flag is
    simply unsatisfied, so conjecture probing on shifted parameters works.
    """
    if formula_id not in _REGISTRY:
        raise UnknownFormula(f"unknown formula id {formula_id!r}")
    entry = _REGISTRY[formula_id]
    missing = [name for name in entry.params if name not in params]
    if missing:
        raise MissingParam(f"{formula_id} needs parameters: {', '.join(missing)}")
    p = {name: int(params[name]) for name in entry.params}
    return BoundReport(
        formula_id=formula_id,
        params=p,
        value=entry.value(p),
        kind=entry.kind,
        validity=Validity(
            condition=entry.condition,
            satisfied=bool(entry.check(p)),
            assumed=entry.assumed,
        ),
    )
