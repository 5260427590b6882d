"""Exhaustive free-coloring search, Ramsey number scans, star-critical
computation, and the randomized minimum-degree packing harness.

Both searches run on one engine, _color_slots: an explicit-stack DFS that
colors a list of edge slots in order, red branch first, so its depth is
bounded by memory, not by the interpreter's frame limit. After each slot is
colored, the class that received it is checked through that edge only
(patterns._new_containment). The Ramsey search passes the host edges in
lexicographic order and needs every slot colored; the star extension passes
the star edges (j, w) of a fresh vertex w, lets each slot also stay
uncolored, and cuts a branch that cannot attach more edges than the best
found so far. Each free coloring is handed over as its red and blue
adjacency rows. The search is sequential and deterministic.

The star-critical value is one pass over the free bases of K_{r-1}, each
extended as far as it goes. An extension by all r - 1 star edges is a free
coloring of K_r, so the same pass also checks that K_r has none: a free
coloring of K_r restricts to a free base on its first r - 1 vertices, some
isomorph of which the pass keeps and extends by r - 1 edges.

Degree windows. Take any vertex x of the blue target B. If a vertex v of a
free coloring of K_N had blue degree r(R, B - x) or more, its blue
neighborhood would hold a red R or a blue B - x, and mapping x to v would
complete a blue B. So every vertex has blue degree at most r(R, B - x) - 1,
and likewise red degree at most r(R - x, B) - 1 for a vertex x of the red
target R. On a complete host red + blue + uncolored = N - 1 at every vertex,
so the floor each cap puts on the other color's final degree is the cap
itself: the DFS cuts a branch as soon as an endpoint of the edge just
colored goes over its cap, and returns at the root when the two caps sum to
less than N - 1.

Every search sees its targets in kernel form (patterns._kernel_form, applied
once by _as_pattern): F:t,1 is the clique K_{t+1}, M:1 is K2 and s copies of
K2 are M:s, so every spelling of a pair runs one search, with one cap table,
one r(K2, H) identity and one seed.

For a cone B = K1 + H, x is the apex and B - x = H (_cone_base): K_{m-1} for
K_m (m >= 2) and nK_t for F:t,n (t >= 2). A matching M_s (s >= 2) and s copies
of a cone C split instead (_vertex_split): B - x is the disjoint union of
G = M_{s-1} (K2 for s = 2) and H = K1, or of G = (s-1)C and H the base of C
with x the apex of one copy, which covers the paper's sF_{t,n}. Then
r(R, G + H) <= max(r(R, G) + |V(H)|, r(R, H)): at N at least both, a coloring
with no red R has a blue H, and the N - |V(H)| vertices off it hold a blue G.
The window takes the smaller of this bound and the one with G and H swapped.
Stars F:1,n (n >= 2), their copies and explicit targets get no cap on their
side.

So every number a window uses is the Ramsey number of a smaller pair of
standard targets. r(R, K1) = 1 is a constant with no table entry, r(K2, H) =
|V(H)| is an identity, and any other pair is scanned by the same search,
starting one order above its verified construction if it has one. A window at
order N asks for each value below N, except r(R, G) in a sum, below
N - |V(H)|, and scans each pair only up to one order below that, the largest
order where it can bind. A pair is not scanned at all when one pattern P has
at least that many vertices and the other an edge: K_{|V(P)|-1} colored wholly
in P's color is free, so the value cannot bind. Cap scans charge the caller's
node counter and budget. Their results live in a table that one top-level call
shares across every nesting level and drops when it returns, and they are
reported as SearchResult.caps. Because the cut branches hold no free coloring
and the DFS order is unchanged, every first coloring found equals the plain
search's.

Isomorph rejection. On a complete host the slots are the edges in
lexicographic order, so the DFS fills one vertex star (u, u+1), (u, u+2), ...
after another, and it keeps every star in canonical form (_iso_allows).
Sorting, for u = 0, 1, ... in turn, the vertices above u by their colors to
u, red first, permutes only vertices with equal colors to every vertex below
u, so it keeps every earlier star: every coloring has an isomorph that meets
the rule on all stars, and values are unchanged. An isomorphism class may
keep more than one representative. The star extension colors no host edges
and is not restricted; an isomorphism of bases maps their extensions onto
each other, so one base per class suffices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .colorings import TwoColoring, check_free, lemma27_construction, thm17_construction
from .errors import (
    BadParam,
    BudgetExhausted,
    OrderCap,
    PreconditionViolated,
    RangeError,
    SamplingFailure,
)
from .graphs import MAX_ORDER, Graph, complete, relabel, star_augmented
from .patterns import (
    Clique,
    Copies,
    Explicit,
    Fan,
    Matching,
    TargetPattern,
    _contains_rows,
    _kernel_form,
    _new_containment,
    copies_pattern,
    kt_packing,
    normalize_pattern,
    parse_target,
    pattern_order,
)


@dataclass
class SearchConfig:
    """node_budget bounds the DFS nodes of one top-level search; seed drives
    the randomized packing harness."""

    node_budget: int = 10_000_000
    seed: int = 0

    def __post_init__(self):
        if self.node_budget < 0:
            raise BadParam(f"node_budget must be at least 0, got {self.node_budget}")


@dataclass
class SearchStats:
    nodes: int = 0
    red_prunes: int = 0
    blue_prunes: int = 0
    degree_prunes: int = 0
    iso_prunes: int = 0


@dataclass
class DegreeCap:
    """What one top-level call knows about r(red, blue) for a smaller pair
    whose value caps vertex degrees of a larger one.

    source is "identity" (r(K2, H)) or "search". free_order is
    the largest order known to admit a free coloring, value the Ramsey
    number once known. nodes counts the DFS nodes of this pair's own orders,
    not those of the caps they used in turn. caps_for lists the
    (color, red, blue) degree windows the value bounds.
    """

    red: TargetPattern
    blue: TargetPattern
    source: str
    free_order: int = 0
    value: int | None = None
    nodes: int = 0
    caps_for: list[tuple[str, TargetPattern, TargetPattern]] = field(default_factory=list)


@dataclass
class SearchResult:
    value: int | None
    witness: TwoColoring | None
    status: str  # "exact" or "budget_exhausted"
    stats: SearchStats = field(default_factory=SearchStats)
    caps: tuple[DegreeCap, ...] = ()


def _as_pattern(t: TargetPattern | str) -> TargetPattern:
    """The kernel form (patterns._kernel_form) of a target or its spelling."""
    return _kernel_form(normalize_pattern(parse_target(t) if isinstance(t, str) else t))


def _iso_allows(rows_red, split: int, u: int, v: int) -> bool:
    """Whether slot (u, v), v >= u + 2, of a complete host may be red.
    Vertices v - 1 and v form a block when they have the same color to every
    vertex below u; split has bit v set when they do not. Inside a block a
    red (u, v) needs (u, v - 1) red. Blocks are contiguous in the sorted
    isomorph, so comparing neighbours suffices, and the DFS has colored
    every edge the rule reads before slot (u, v)."""
    return bool(split >> v & 1 or rows_red[u] >> (v - 1) & 1)


def _blocked(rows_red, rows_blue, red_t: TargetPattern, blue_t: TargetPattern) -> bool:
    """Whether the color classes hold their target before any slot is
    colored; containment is monotone, so then no coloring of the slots is
    free. Only a pattern with an isolated vertex can embed there: the
    classes are empty, or free on all but the one vertex no edge reaches."""
    n = len(rows_red)
    return (
        _contains_rows(rows_red, n, red_t) is not None
        or _contains_rows(rows_blue, n, blue_t) is not None
    )


def _is_complete(host: Graph) -> bool:
    return host == complete(host.order)


def _cone_base(p: TargetPattern) -> TargetPattern | None:
    """H with p = K1 + H, for the cones the degree windows use: K_{m-1} for
    K_m (m >= 2) and nK_t for F:t,n (t >= 2). p is in kernel form, where
    F:t,1 is K_{t+1} and M:1 is K2. None for other targets."""
    if isinstance(p, Clique) and p.size >= 2:
        return Clique(p.size - 1)
    if isinstance(p, Fan) and p.t >= 2:
        if p.t == 2:
            return Matching(p.n)
        return Copies(p.n, Clique(p.t))
    return None


def _vertex_split(p: TargetPattern) -> tuple[TargetPattern, TargetPattern] | None:
    """(G, H) with p - x the disjoint union of G and H, for one vertex x of
    a target in kernel form that is not a cone: M_{s-1} (K2 for s = 2) and
    K1 for M_s (s >= 2), and (s-1)C and the base of C for s copies of a cone
    C, x the apex of one copy. None for other targets."""
    if isinstance(p, Matching) and p.size >= 2:
        return (Matching(p.size - 1) if p.size > 2 else Clique(2)), Clique(1)
    if isinstance(p, Copies):
        base = _cone_base(p.inner)
        if base is not None:
            return copies_pattern(p.count - 1, p.inner), base
    return None


def _has_edge(p: TargetPattern) -> bool:
    """Whether p has an edge, read from its parameters, so that a pattern
    too large to build is asked without building it."""
    if isinstance(p, Clique):
        return p.size >= 2
    if isinstance(p, Copies):
        return _has_edge(p.inner)
    if isinstance(p, Explicit):
        return any(p.graph.rows)
    return True


def _identity_value(red_t: TargetPattern, blue_t: TargetPattern) -> int | None:
    """r(K2, H) = |V(H)| in either orientation, for every H: a coloring
    with no red edge is all blue, and K_N holds H exactly when N >= |V(H)|.
    None when neither target is K2."""
    for a, b in ((red_t, blue_t), (blue_t, red_t)):
        if a == Clique(2):
            return pattern_order(b)
    return None


class _CapTable:
    """Degree caps of one top-level search call, shared by every nesting
    level of it and dropped with it, so that repeated calls count the same
    nodes. spent is the number of nodes its scans used."""

    def __init__(self, cfg: SearchConfig, stats: SearchStats):
        self.cfg = cfg
        self.stats = stats
        self.pairs: dict[tuple[TargetPattern, TargetPattern], DegreeCap] = {}
        self.spent = 0

    def used(self) -> tuple[DegreeCap, ...]:
        return tuple(self.pairs.values())

    def windows(self, red_t: TargetPattern, blue_t: TargetPattern, order: int) -> tuple[int, int]:
        """(red cap, blue cap) on every vertex degree of a free coloring of
        K_order; order - 1 where no smaller cap is proven. The blue cap is
        r(R, B - x) - 1 for a cone B (_cone_base), and for a split target,
        B - x = G + H (_vertex_split), it is
        min(max(r(R, G) + |V(H)|, r(R, H)), max(r(R, H) + |V(G)|, r(R, G))) - 1,
        each value read from the pair's row in caps, r(R, K1) = 1 from none;
        the red cap is the same with the colors swapped."""
        return (
            self._bound_minus_vertex("red", red_t, blue_t, order) - 1,
            self._bound_minus_vertex("blue", red_t, blue_t, order) - 1,
        )

    def _bound_minus_vertex(
        self, color: str, red_t: TargetPattern, blue_t: TargetPattern, order: int
    ) -> int:
        """A bound on r(R - x, B) for color "red" or r(R, B - x) for "blue",
        or order where none below order is proven. r(R, G) is asked below
        order - |V(H)| only, the largest order where the sum can bind."""
        use = (color, red_t, blue_t)

        def value(part: TargetPattern, below: int) -> int:
            if part == Clique(1):
                return 1
            pair = (part, blue_t) if color == "red" else (red_t, part)
            return self._value_below(*pair, below, use)

        target = red_t if color == "red" else blue_t
        base = _cone_base(target)
        if base is not None:
            return value(base, order)
        split = _vertex_split(target)
        if split is None:
            return order
        bounds = []
        for g, h in (split, split[::-1]):
            k = pattern_order(h)
            bounds.append(max(value(g, order - k) + k, value(h, order)))
        return min(bounds)

    def _value_below(
        self,
        red_t: TargetPattern,
        blue_t: TargetPattern,
        order: int,
        use: tuple[str, TargetPattern, TargetPattern],
    ) -> int:
        """r(red_t, blue_t) if it is below order, else order. Scans the pair
        no further than order - 1, the largest order where the cap binds,
        and not at all when one pattern has order or more vertices and the
        other an edge, which puts r(red_t, blue_t) at order or above."""
        if any(
            pattern_order(a) >= order and _has_edge(b)
            for a, b in ((red_t, blue_t), (blue_t, red_t))
        ):
            return order
        cap = self.pairs.get((red_t, blue_t))
        if cap is None:
            cap = self._new(red_t, blue_t)
        if use not in cap.caps_for:
            cap.caps_for.append(use)
        while cap.value is None and cap.free_order < order - 1:
            self._settle_next(cap)
        if cap.value is not None and cap.value < order:
            return cap.value
        return order

    def _new(self, red_t: TargetPattern, blue_t: TargetPattern) -> DegreeCap:
        value = _identity_value(red_t, blue_t)
        if value is not None:
            cap = DegreeCap(red_t, blue_t, "identity", value - 1, value)
        else:
            seed = _seed_coloring(red_t, blue_t)
            cap = DegreeCap(red_t, blue_t, "search", seed.host.order if seed else 0)
        self.pairs[(red_t, blue_t)] = cap
        return cap

    def _settle_next(self, cap: DegreeCap) -> None:
        """Decide the order above cap.free_order. A cap needs the value only:
        it asks whether a free coloring exists and builds none, and a refuted
        order never searches the order below for a witness."""
        order = cap.free_order + 1
        nodes, spent = self.stats.nodes, self.spent
        try:
            dfs = _free_coloring_dfs(complete(order), cap.red, cap.blue, self.cfg, self.stats, self)
            found = next(dfs, None)
        finally:
            own = self.stats.nodes - nodes - (self.spent - spent)
            cap.nodes += own
            self.spent += own
        if found is None:
            cap.value = order
        else:
            cap.free_order = order


def _color_slots(
    slots: list[tuple[int, int]],
    rows_red: list[int],
    rows_blue: list[int],
    red_t: TargetPattern,
    blue_t: TargetPattern,
    cfg: SearchConfig,
    stats: SearchStats,
    windows: tuple[int, int] | None = None,
    iso: bool = False,
    beat: int | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Color slots in order, red before blue, on top of the given color
    classes, and yield (rows_red, rows_blue), the two classes' adjacency
    rows as tuples, of every free coloring reached, in DFS order. Each
    colored slot is one node of the budget. windows caps the red and blue
    degree of every vertex; iso applies the canonical-form restriction of a
    complete host.

    beat None: every slot must be colored. beat an int: a slot may also stay
    uncolored after red and blue; only colorings with more colored slots
    than beat are yielded, each raises beat to its count, and a level whose
    remaining slots cannot beat it is cut when it is entered.
    """
    n = len(rows_red)
    cap_red, cap_blue = windows or (n, n)
    options = (True, False) if beat is None else (True, False, None)
    width = len(options)
    last = len(slots)
    budget = cfg.node_budget
    # stack[i] counts the options tried at slot i; below the top, the last
    # of them is the color slot i holds now
    stack = [0]
    # iso: splits[u] is the split of star u (_iso_allows), set once when the
    # DFS enters the star; the stars below u stay fixed while it is in it
    splits = [0] * n
    colored = 0
    while stack:
        i = len(stack) - 1
        k = stack[i]
        if k == 0:
            if beat is not None and colored + last - i <= beat:
                k = width
            elif i == last:
                yield tuple(rows_red), tuple(rows_blue)
                if beat is not None:
                    beat = colored
                k = width
        if k < width:
            stack[i] = k + 1
            is_red = options[k]
            if is_red is None:
                stack.append(0)
                continue
            u, v = slots[i]
            if iso and is_red:
                if v == u + 1:
                    if u:
                        row = rows_red[u - 1]
                        splits[u] = splits[u - 1] | row ^ row << 1
                elif not _iso_allows(rows_red, splits[u], u, v):
                    stats.iso_prunes += 1
                    continue
            stats.nodes += 1
            if stats.nodes > budget:
                raise BudgetExhausted(f"node budget {budget} exhausted", stats)
            if is_red:
                rows, target, cap = rows_red, red_t, cap_red
            else:
                rows, target, cap = rows_blue, blue_t, cap_blue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if rows[u].bit_count() > cap or rows[v].bit_count() > cap:
                stats.degree_prunes += 1
            elif _new_containment(rows, n, target, u, v):
                if is_red:
                    stats.red_prunes += 1
                else:
                    stats.blue_prunes += 1
            else:
                colored += 1
                stack.append(0)
                continue
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            continue
        # every option at slot i is done: back up and undo slot i - 1
        stack.pop()
        if stack:
            is_red = options[stack[-1] - 1]
            if is_red is not None:
                u, v = slots[i - 1]
                rows = rows_red if is_red else rows_blue
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
                colored -= 1


def _free_coloring_dfs(
    host: Graph,
    red_t: TargetPattern,
    blue_t: TargetPattern,
    cfg: SearchConfig,
    stats: SearchStats,
    caps: _CapTable | None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield free colorings of the host in DFS order, each as its
    (rows_red, rows_blue) (_color_slots); exhaustive when fully consumed.
    Only callers that keep a coloring build a TwoColoring. On a complete
    host, only colorings whose every vertex star is in canonical form
    (_iso_allows), at least one per isomorphism class, pruned by the degree
    windows of caps (None: no windows), which every free coloring of the
    host meets."""
    n = host.order
    rows_red, rows_blue = [0] * n, [0] * n
    if _blocked(rows_red, rows_blue, red_t, blue_t):
        return
    complete_host = _is_complete(host)
    windows = None
    if caps is not None and complete_host:
        windows = caps.windows(red_t, blue_t, n)
        if sum(windows) < n - 1:
            stats.degree_prunes += 1
            return
    yield from _color_slots(
        host.edges(), rows_red, rows_blue, red_t, blue_t, cfg, stats, windows, complete_host
    )


def exists_free_coloring(
    host: Graph,
    red_target: TargetPattern | str,
    blue_target: TargetPattern | str,
    config: SearchConfig | None = None,
    _stats: SearchStats | None = None,
    _caps: _CapTable | None = None,
) -> TwoColoring | None:
    """First free coloring of the host in DFS order, or None (exhaustive)."""
    cfg = config or SearchConfig()
    stats = _stats if _stats is not None else SearchStats()
    caps = _caps if _caps is not None else _CapTable(cfg, stats)
    red_t = _as_pattern(red_target)
    blue_t = _as_pattern(blue_target)
    found = next(_free_coloring_dfs(host, red_t, blue_t, cfg, stats, caps), None)
    return None if found is None else TwoColoring(host, Graph(host.order, found[0]))


def _color_swap(coloring: TwoColoring) -> TwoColoring:
    return TwoColoring(coloring.host, coloring.blue_graph())


def _seed_coloring(red_t: TargetPattern, blue_t: TargetPattern) -> TwoColoring | None:
    """A verified free coloring from a known extremal construction, when the
    target pair matches one in either orientation: K_m versus s disjoint
    fans F_{t,n} (thm17), or M_s versus one fan F_{t,n} (lemma27). Targets
    come in kernel form, and one rule reads them: on the fan side K_k
    (k >= 2) stands for F:k-1,1, alone or as the inner target of copies; on
    the matching side K2 stands for M:1. No other reading is made, so M:s is
    not read as s copies of F:1,1. Freeness is machine-checked before use."""
    for a, b, swap in ((red_t, blue_t, False), (blue_t, red_t, True)):
        count, fan = (b.count, b.inner) if isinstance(b, Copies) else (1, b)
        if isinstance(fan, Clique) and fan.size >= 2:
            fan = Fan(fan.size - 1, 1)
        if not isinstance(fan, Fan):
            continue
        builds = []
        if isinstance(a, Clique):
            builds.append((thm17_construction, a.size, count, fan.t, fan.n))
        matching = Matching(1) if a == Clique(2) else a
        if isinstance(matching, Matching) and count == 1:
            builds.append((lemma27_construction, matching.size, fan.t, fan.n))
        for build, *args in builds:
            try:
                coloring = build(*args)
            except (BadParam, OrderCap):
                continue
            if swap:
                coloring = _color_swap(coloring)
            if check_free(coloring, red_t, blue_t).valid:
                return coloring
    return None


def ramsey_number(
    red_target: TargetPattern | str,
    blue_target: TargetPattern | str,
    lo: int,
    hi: int,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Smallest N in [lo, hi] whose complete graph admits no free coloring.

    The witness is a free coloring one order below the value. When a known
    extremal construction applies and verifies free at order c >= lo - 1,
    every order up to c admits a free coloring by restriction, so the scan
    starts at c+1 with the construction as pending witness. Raises
    RangeError when every order in the range still admits a free coloring,
    or when K_lo is refuted and so is K_{lo-1} (the value is below lo);
    a blown node budget yields status "budget_exhausted" instead of a value.
    """
    if not 1 <= lo <= hi:
        raise BadParam("need 1 <= lo <= hi")
    cfg = config or SearchConfig()
    red_t = _as_pattern(red_target)
    blue_t = _as_pattern(blue_target)
    stats = SearchStats()
    caps = _CapTable(cfg, stats)
    witness: TwoColoring | None = None
    start = lo
    seed = _seed_coloring(red_t, blue_t)
    if seed is not None and seed.host.order >= lo - 1:
        witness = seed
        start = seed.host.order + 1
    try:
        for order in range(start, hi + 1):
            found = exists_free_coloring(
                complete(order), red_t, blue_t, cfg, _stats=stats, _caps=caps
            )
            if found is None:
                if order > 1 and witness is None:
                    witness = exists_free_coloring(
                        complete(order - 1), red_t, blue_t, cfg, _stats=stats, _caps=caps
                    )
                    if witness is None:
                        raise RangeError(
                            f"K_{order - 1} admits no free coloring, so the value is "
                            f"below {lo}"
                        )
                return SearchResult(order, witness, "exact", stats, caps.used())
            witness = found
    except BudgetExhausted:
        return SearchResult(None, None, "budget_exhausted", stats, caps.used())
    raise RangeError(
        f"every order in [{lo}, {hi}] admits a free coloring"
    )


def star_critical(
    red_target: TargetPattern | str,
    blue_target: TargetPattern | str,
    r: int,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Largest k for which some free coloring of K_{r-1} extends freely to a
    k-edge star vertex, plus one.

    r must be the exact Ramsey number of the pair: K_r admitting a free
    coloring, or K_{r-1} admitting none, violates the precondition. Base
    colorings are the free colorings of K_{r-1} whose every vertex star is
    in canonical form (_iso_allows), which covers every isomorphism class,
    some more than once: isomorphic bases extend equally far, so these
    representatives suffice. One pass over them settles both halves of the
    precondition, with no search of K_r: an extension by all r - 1 star
    edges is a free coloring of K_r, and a free coloring of K_r restricts
    to a free base on its first r - 1 vertices, which meets the degree
    windows of K_{r-1} and has a kept isomorph that extends by r - 1 edges.
    """
    if r < 3:
        raise BadParam("need r >= 3")
    if r > MAX_ORDER:
        raise OrderCap(f"order {r} exceeds {MAX_ORDER}")
    cfg = config or SearchConfig()
    red_t = _as_pattern(red_target)
    blue_t = _as_pattern(blue_target)
    stats = SearchStats()
    caps = _CapTable(cfg, stats)
    best_k = -1
    best = None
    saw_base = False
    try:
        for base in _free_coloring_dfs(complete(r - 1), red_t, blue_t, cfg, stats, caps):
            saw_base = True
            found = _max_free_extension(base, red_t, blue_t, cfg, stats, best_k)
            if found is None:
                continue
            best = found
            best_k = (found[0][-1] | found[1][-1]).bit_count()
            if best_k == r - 1:
                raise PreconditionViolated(
                    f"K_{r} admits a free coloring, so r is not the Ramsey number"
                )
    except BudgetExhausted:
        return SearchResult(None, None, "budget_exhausted", stats, caps.used())
    if not saw_base:
        raise PreconditionViolated(
            f"K_{r - 1} admits no free coloring, so r is not the Ramsey number"
        )
    if best is None:
        # only reachable for targets with isolated vertices: even a bare
        # extra vertex completes an embedding on every base
        return SearchResult(0, None, "exact", stats, caps.used())
    return SearchResult(best_k + 1, _extension_witness(*best), "exact", stats, caps.used())


def _max_free_extension(
    base: tuple[tuple[int, ...], tuple[int, ...]],
    red_t: TargetPattern,
    blue_t: TargetPattern,
    cfg: SearchConfig,
    stats: SearchStats,
    global_best: int,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The (rows_red, rows_blue) of a free extension of the base coloring
    (rows_red, rows_blue) of K_m by a fresh vertex m whose star edges, some
    left uncolored, are as many as any such extension has, or None when
    none has more than global_best."""
    rows_red, rows_blue = [*base[0], 0], [*base[1], 0]
    # a pattern with isolated vertices can embed through the fresh vertex
    # before any star edge is colored
    if _blocked(rows_red, rows_blue, red_t, blue_t):
        return None
    m = len(base[0])
    best = None
    for best in _color_slots(
        [(j, m) for j in range(m)], rows_red, rows_blue, red_t, blue_t, cfg, stats,
        beat=global_best,
    ):
        pass  # each yield beats the one before, so the last is the best
    return best


def _extension_witness(rows_red: tuple[int, ...], rows_blue: tuple[int, ...]) -> TwoColoring:
    """The coloring of K_m plus a fresh vertex m given by these rows, on the
    star-augmented host: the base is relabeled so that the vertices the
    fresh vertex is attached to come first, in order."""
    m = len(rows_red) - 1
    attached = rows_red[m] | rows_blue[m]
    perm = [0] * (m + 1)
    for new, old in enumerate([*sorted(range(m), key=lambda j: not attached >> j & 1), m]):
        perm[old] = new
    red = relabel(Graph(m + 1, rows_red), perm)
    return TwoColoring(star_augmented(m, attached.bit_count()), red)


@dataclass
class PackingReport:
    t: int
    n: int
    trials: int
    seed: int
    min_degree_floor: int
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _sample_min_degree(rng: random.Random, order: int, floor: int) -> Graph:
    if floor > order - 1:
        raise SamplingFailure(
            f"minimum degree {floor} impossible at order {order}"
        )
    rows = [0] * order
    low_p = max(0.0, floor / max(order - 1, 1) - 0.1)
    for _ in range(20):
        p = rng.uniform(low_p, 1.0)
        rows = [0] * order
        for u in range(order):
            for v in range(u + 1, order):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        if min(r.bit_count() for r in rows) >= floor:
            return Graph(order, tuple(rows))
    # augment the last rejected sample: repeatedly give the lowest-degree
    # vertex an edge to its lowest-degree non-neighbor
    while True:
        degs = [r.bit_count() for r in rows]
        u = min(range(order), key=lambda x: (degs[x], x))
        if degs[u] >= floor:
            return Graph(order, tuple(rows))
        candidates = [
            v for v in range(order) if v != u and not rows[u] >> v & 1
        ]
        v = min(candidates, key=lambda x: (degs[x], x))
        rows[u] |= 1 << v
        rows[v] |= 1 << u


def packing_property_check(
    t: int, n: int, trials: int, config: SearchConfig | None = None
) -> PackingReport:
    """Sample graphs of order t*n conditioned on minimum degree at least
    (t-1)*n and verify each packs n disjoint copies of K_t."""
    if t < 2 or n < 1:
        raise BadParam("need t >= 2 and n >= 1")
    if t * n > 24:
        raise BadParam("order t*n capped at 24")
    if trials < 1:
        raise BadParam("need at least one trial")
    cfg = config or SearchConfig()
    rng = random.Random(cfg.seed)
    order = t * n
    floor = (t - 1) * n
    failures = []
    for trial in range(trials):
        g = _sample_min_degree(rng, order, floor)
        if kt_packing(g, t, n) is None:
            failures.append(trial)
    return PackingReport(
        t=t,
        n=n,
        trials=trials,
        seed=cfg.seed,
        min_degree_floor=floor,
        failures=tuple(failures),
    )
