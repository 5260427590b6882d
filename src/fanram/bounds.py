"""Lower-bound machinery: exact chromatic invariants, the multipartite
lower-bound formula, goodness, the star lower bound, and a registry of
closed-form values with explicit validity conditions. Registry entries are
Ramsey numbers r unless their condition names the star-critical r_*.

One enumerator backs every chromatic invariant: _partitions(g, k) yields
each partition of the vertices into exactly k independent classes once,
placing next the vertex with the fewest classes open to it. The chromatic
number is the least k from the clique number up that has such a partition.
The surplus and tau come from one pass over the partitions into chi classes
(_surplus_tau), and each bound computes chi once and enumerates at most
once, after its order caps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import BadParam, MissingParam, OrderCap, PreconditionViolated, UnknownFormula
from .graphs import Graph, bits, is_connected
from .patterns import clique_number

ENUM_ORDER_CAP = 12
CHI_ORDER_CAP = 40


def _partitions(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Every partition of the vertices into exactly k independent classes,
    each once, as vertex masks in the order the classes were opened.

    The next vertex placed is an unplaced one with the fewest classes open
    to it (no neighbor inside), the lowest on ties. It joins each open class
    in turn, then opens a new class while fewer than k exist. The choice
    depends only on the classes built so far, so distinct branches build
    distinct partitions. A branch is cut when its classes plus its unplaced
    vertices number fewer than k.
    """
    rows = g.rows
    classes: list[int] = []
    nbrs: list[int] = []  # nbrs[i]: the vertices with a neighbor in classes[i]

    def rec(left: int) -> Iterator[tuple[int, ...]]:
        if len(classes) + left.bit_count() < k:
            return
        if not left:
            yield tuple(classes)
            return
        # count the classes closed to each unplaced vertex, one bit plane
        # per binary digit, then keep the vertices with the highest count
        planes: list[int] = []
        for nb in nbrs:
            carry, j = nb & left, 0
            while carry:
                if j == len(planes):
                    planes.append(carry)
                    break
                planes[j], carry = planes[j] ^ carry, planes[j] & carry
                j += 1
        most = left
        for plane in reversed(planes):
            if most & plane:
                most &= plane
        bit = most & -most
        row = rows[bit.bit_length() - 1]
        for i, nb in enumerate(nbrs):
            if not nb & bit:
                classes[i] |= bit
                nbrs[i] = nb | row
                yield from rec(left ^ bit)
                classes[i] ^= bit
                nbrs[i] = nb
        if len(classes) < k:
            classes.append(bit)
            nbrs.append(row)
            yield from rec(left ^ bit)
            classes.pop()
            nbrs.pop()

    yield from rec((1 << g.order) - 1)


def _cap(g: Graph, cap: int, what: str) -> None:
    if g.order > cap:
        raise OrderCap(f"{what} capped at order {cap}")


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number for graphs of order at most 40: the least k
    from the clique number up with a partition into k independent classes."""
    _cap(g, CHI_ORDER_CAP, "chromatic number")
    k = clique_number(g)
    while next(_partitions(g, k), None) is None:
        k += 1
    return k


def _surplus_tau(g: Graph, chi: int, with_tau: bool) -> tuple[int, int]:
    """Surplus of g and, when with_tau, tau from one pass over the partitions
    into chi classes, chi being g's chromatic number; the caller has applied
    the enumeration cap. Without with_tau the second value is meaningless.

    Every optimal coloring has tau >= 1: a surplus-class vertex with no
    neighbor in another class could move there, which empties or shrinks a
    smallest class. So the pass stops at surplus 1 and, with tau, tau 1.
    """
    if with_tau and chi < 2:
        raise BadParam("tau needs at least two color classes")
    if g.order == 0:
        raise BadParam("surplus of the empty graph is undefined")
    s = t = g.order
    for part in _partitions(g, chi):
        m = min(cm.bit_count() for cm in part)
        if m < s:
            s, t = m, g.order
        if with_tau and m == s:
            t = min(
                t,
                min(
                    (g.rows[v] & other).bit_count()
                    for u1 in part
                    if u1.bit_count() == s
                    for v in bits(u1)
                    for other in part
                    if other != u1
                ),
            )
        if s == 1 and (t == 1 or not with_tau):
            break
    return s, t


def chromatic_surplus(g: Graph) -> int:
    """Smallest color-class size over all proper colorings with exactly
    chromatic-number many colors. Enumeration-backed; order capped at 12."""
    _cap(g, ENUM_ORDER_CAP, "surplus enumeration")
    return _surplus_tau(g, chromatic_number(g), False)[0]


def tau(g: Graph) -> int:
    """Minimum, over optimal colorings carrying a class of surplus size, of a
    surplus-class vertex's edge count into another class.

    Every choice of optimal coloring, minimum-size class, vertex, and other
    class is considered, which yields the weakest usable value.
    """
    _cap(g, ENUM_ORDER_CAP, "tau enumeration")
    return _surplus_tau(g, chromatic_number(g), True)[1]


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
    _cap(g, CHI_ORDER_CAP, "chromatic number")
    _cap(g, ENUM_ORDER_CAP, "surplus enumeration")
    chi = chromatic_number(g)
    s, t = _surplus_tau(g, chi, True)
    return GraphParams(
        chi=chi,
        surplus=s,
        tau=t,
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
    _cap(g, CHI_ORDER_CAP, "chromatic number")
    _cap(g, ENUM_ORDER_CAP, "surplus enumeration")
    chi = chromatic_number(g)
    s = _surplus_tau(g, chi, False)[0]
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
    _cap(g, CHI_ORDER_CAP, "chromatic number")
    if not any(g.rows):  # chi < 2 exactly when g has no edge
        raise PreconditionViolated("g must have chromatic number at least 2")
    _cap(g, ENUM_ORDER_CAP, "surplus enumeration")
    chi = chromatic_number(g)
    s, t = _surplus_tau(g, chi, True)
    n = h.order
    if n < s:
        raise PreconditionViolated("order(h) below the surplus of g")
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
    A parameter that is not an int (a bool, a float, a string) raises
    BadParam.
    """
    if formula_id not in _REGISTRY:
        raise UnknownFormula(f"unknown formula id {formula_id!r}")
    entry = _REGISTRY[formula_id]
    missing = [name for name in entry.params if name not in params]
    if missing:
        raise MissingParam(f"{formula_id} needs parameters: {', '.join(missing)}")
    p = {name: params[name] for name in entry.params}
    for name, value in p.items():
        if type(value) is not int:
            raise BadParam(f"{formula_id} parameter {name} must be an integer, got {value!r}")
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
