"""The benchmark's workloads: the CLI operations of one round and the checks
on their outputs.

Every workload is a list of `fanram` command lines. A round runs the list
twice through `--cache FILE`: a store pass on an empty cache, then a replay
pass. The seed fixes the order of the search operations and which edges
the certify-cache near-misses recolour; the set of operations, and so every
node count, is the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import networkx as nx

from checks import (
    CheckFailed,
    certificate_colors,
    check_free_witness,
    check_witnesses,
    encode,
    oracle_contains,
    ramsey_facts,
    require,
)


@dataclass
class Op:
    """One command line and the check on its (exit code, report).
    `may_raise` names the one exception that may escape `cli.main` for this
    operation, counted as a failed operation; any other escape is an error."""

    name: str
    argv: list[str]
    check: Callable[[int, dict], None]
    search: bool = False
    may_raise: str | None = None


# ---------------------------------------------------------------------------
# search reports
# ---------------------------------------------------------------------------


def _search_header(doc: dict, command: str, red: str, blue: str, name: str) -> None:
    require(doc.get("format") == "fanram-report-1", f"{name}: report format")
    require(doc.get("command") == command, f"{name}: command {doc.get('command')!r}")
    require((doc.get("red"), doc.get("blue")) == (red, blue), f"{name}: targets")


def _check_budget(rc: int, doc: dict, budget: int | None, name: str) -> None:
    require(rc == 2, f"{name}: budget_exhausted must exit 2, got {rc}")
    require(doc["value"] is None and doc["witness"] is None, f"{name}: partial value")
    if budget is not None:
        require(
            doc["stats"]["nodes"] == budget + 1,
            f"{name}: {doc['stats']['nodes']} nodes under budget {budget}",
        )


def ramsey_op(
    red: str, blue: str, lo: int, hi: int, budget: int | None = None, may_raise: str | None = None
) -> Op:
    name = f"ramsey {red} {blue} [{lo},{hi}]" + (f" budget {budget}" if budget else "")
    argv = ["ramsey", "--red", red, "--blue", blue, "--lo", str(lo), "--hi", str(hi)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    exact, lower = ramsey_facts(red, blue)

    def check(rc: int, doc: dict) -> None:
        _search_header(doc, "ramsey", red, blue, name)
        require((doc.get("lo"), doc.get("hi")) == (lo, hi), f"{name}: range")
        status = doc["status"]
        if status == "budget_exhausted":
            _check_budget(rc, doc, budget, name)
        elif status == "no_value_in_range":
            require(rc == 1, f"{name}: no_value_in_range must exit 1, got {rc}")
            # every order up to hi admits a free coloring: provable only
            # below the published value or lower bound
            require(
                hi < (exact if exact is not None else lower),
                f"{name}: claims K_{hi} has a free coloring, which no "
                "published result confirms",
            )
        elif status == "exact":
            value = doc["value"]
            require(rc == 0, f"{name}: exact must exit 0, got {rc}")
            require(lo <= value <= hi, f"{name}: value {value} outside the range")
            if exact is not None:
                require(value == exact, f"{name}: value {value}, published {exact}")
            else:
                require(value >= lower, f"{name}: value {value} below bound {lower}")
            require(doc["witness"] is not None, f"{name}: exact value without a witness")
            host = check_free_witness(doc["witness"], name)
            require(
                nx.utils.graphs_equal(host, nx.complete_graph(value - 1)),
                f"{name}: witness host is not K_{value - 1}",
            )
        else:
            raise CheckFailed(f"{name}: unknown status {status!r}")

    return Op(name, argv, check, search=True, may_raise=may_raise)


def star_op(red: str, blue: str, r: int) -> Op:
    name = f"star {red} {blue} r={r}"
    argv = ["star", "--red", red, "--blue", blue, "--r", str(r)]
    exact, _ = ramsey_facts(red, blue)
    if exact != r:
        raise CheckFailed(f"{name}: r(={exact}) is not the published value")

    def check(rc: int, doc: dict) -> None:
        _search_header(doc, "star", red, blue, name)
        require(doc.get("r") == r, f"{name}: r")
        require(doc["status"] == "exact" and rc == 0, f"{name}: status {doc['status']}")
        value = doc["value"]
        require(1 <= value <= r - 1, f"{name}: value {value} outside [1, r-1]")
        # the witness is K_{r-1} plus one vertex with value-1 star edges
        require(doc["witness"] is not None, f"{name}: value without a witness")
        host = check_free_witness(doc["witness"], name)
        base = nx.complete_graph(r - 1)
        require(host.number_of_nodes() == r, f"{name}: witness order")
        require(
            nx.utils.graphs_equal(host.subgraph(range(r - 1)), base),
            f"{name}: witness base is not K_{r - 1}",
        )
        require(host.degree(r - 1) == value - 1, f"{name}: star has {host.degree(r - 1)} edges")

    return Op(name, argv, check, search=True)


# ---------------------------------------------------------------------------
# exact-ladder and budget-frontier
# ---------------------------------------------------------------------------


def exact_ladder(seed: int, workdir: str) -> list[Op]:
    ops = [
        ramsey_op("K3", "K4", 1, 12),
        ramsey_op("K3", "F:2,2", 1, 12),
        ramsey_op("K3", "F:3,1", 1, 12),
        ramsey_op("K4", "F:2,1", 1, 12),
        ramsey_op("K3", "M:4", 1, 12),
        ramsey_op("K3", "2xF:2,1", 1, 12),
        ramsey_op("M:3", "F:2,2", 1, 12),
        star_op("M:3", "F:2,2", 8),
        star_op("K3", "M:3", 7),
        star_op("K3", "K3", 6),
    ]
    random.Random(seed).shuffle(ops)
    return ops


# (red, blue, orders settled today by construction or search, order where the
# node budget runs out today, budget). Budgets make every operation cost a
# fixed node count.
FRONTIER = (
    ("K3", "F:2,3", (11, 12), 13, 4000),
    ("K3", "F:2,4", (15, 16), 17, 170),
    ("K3", "F:3,2", (11, 12), 13, 4000),
    ("K4", "F:2,2", (11, 12), 13, 14000),
    ("K3", "K5", (8, 9), 10, 75000),
)

# r(K30, K30) at order 47: the DFS recurses once per host edge, and K47 has
# more edges than the interpreter allows frames, so today this fails with
# RecursionError, the one exception the benchmark lets escape. The budget
# keeps it small once it runs.
RECURSION_OP = ("K30", "K30", 47, 48, 2000)


def budget_frontier(seed: int, workdir: str) -> list[Op]:
    ops = []
    for red, blue, settled, open_order, budget in FRONTIER:
        for order in settled:
            ops.append(ramsey_op(red, blue, order, order, budget))
        ops.append(ramsey_op(red, blue, open_order, open_order, budget))
    red, blue, lo, hi, budget = RECURSION_OP
    ops.append(ramsey_op(red, blue, lo, hi, budget, may_raise="RecursionError"))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# certify-cache corpus
# ---------------------------------------------------------------------------


def _blocks(sizes: list[int]) -> tuple[int, set, list[list[int]]]:
    """Blue cliques on consecutive blocks, red between blocks."""
    order = sum(sizes)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    red = {
        (u, v)
        for i, a in enumerate(blocks)
        for b in blocks[i + 1:]
        for u in a
        for v in b
    }
    return order, red, blocks


def thm17(m: int, s: int, t: int, n: int):
    """Theorem 1.7: blue K_{(tn+1)s-1} plus m-2 blue K_{tn}, red between."""
    sizes = [(t * n + 1) * s - 1] + [t * n] * (m - 2)
    blue = f"F:{t},{n}" if s == 1 else f"{s}xF:{t},{n}"
    return _blocks(sizes), f"K{m}", blue


def lemma27(s: int, t: int, n: int):
    """Lemma 2.7, case n >= s: red K_{tn, s-1}, blue inside both sides."""
    return _blocks([t * n, s - 1]), f"M:{s}", f"F:{t},{n}"


def burr(chi: int, h_order: int, blue: str):
    """Burr's coloring with surplus 1: chi-1 blue K_{h-1}, red between."""
    return _blocks([h_order - 1] * (chi - 1)), f"K{chi}", blue


# Constructions that are free by the theorem that defines them, at orders
# from 6 to 128.
BASE = (
    [thm17(3, 1, 2, n) for n in (2, 3, 4, 6, 8, 12, 16, 24, 32)]
    + [thm17(4, 1, 2, n) for n in (3, 5, 7, 14, 21)]
    + [thm17(5, 1, 2, n) for n in (4, 10, 16)]
    + [thm17(6, 1, 2, n) for n in (3, 6, 12)]
    + [thm17(3, 2, 2, n) for n in (3, 5, 10, 20)]
    + [thm17(3, 3, 2, n) for n in (5, 10)]
    + [thm17(3, 1, 3, n) for n in (2, 4, 10, 21)]
    + [thm17(4, 1, 3, n) for n in (3, 7, 14)]
    + [thm17(3, 1, 4, n) for n in (2, 5, 15)]
    + [lemma27(s, t, n) for s, t, n in (
        (3, 2, 5), (5, 2, 20), (20, 2, 30), (4, 3, 10), (2, 2, 9), (5, 3, 6),
        (10, 2, 40), (8, 3, 12), (30, 2, 48),
    )]
    + [burr(3, 21, "F:2,10"), burr(4, 41, "F:2,20"), burr(3, 12, "K12"),
       burr(5, 25, "F:3,8"), burr(3, 61, "F:2,30")]
)


def _fixed_cross(n: int) -> tuple:
    """thm17(3,1,2,n) with the cross edge (0, 2n) turned blue: still free."""
    (order, red, blocks), red_t, blue_t = thm17(3, 1, 2, n)
    return (order, red - {(0, 2 * n)}, blocks), red_t, blue_t


FIXED_NEAR = [_fixed_cross(n) for n in range(2, 7)]

# Seeded near-miss kinds: (construction, edit, copies). Edits recolour one
# to a few edges at positions drawn from the seed:
#   cross-blue      one red edge between blocks 0 and 1 turned blue
#   cross-blue-2    two disjoint such edges turned blue
#   cross-blue-hub  two such edges at one block-0 vertex turned blue
#   intra-red       one blue edge inside block 0 turned red
# Free near-misses cost fanram far more than the others, and their cost
# depends on the edge, so they stay at n <= 5 with many copies each: the
# round's total then moves little from seed to seed.
NEAR = [
    (thm17(3, 1, 2, 2), "cross-blue", 3),
    (thm17(3, 1, 2, 3), "cross-blue", 6),
    (thm17(3, 1, 2, 4), "cross-blue", 8),
    (thm17(3, 1, 2, 5), "cross-blue", 8),
    (thm17(3, 1, 2, 4), "cross-blue-2", 6),
    (thm17(3, 1, 2, 5), "cross-blue-2", 6),
    (thm17(3, 1, 2, 8), "cross-blue-hub", 6),
    (thm17(4, 1, 2, 4), "cross-blue-hub", 6),
    (thm17(3, 1, 2, 8), "intra-red", 6),
    (thm17(4, 1, 2, 5), "intra-red", 6),
    (thm17(5, 1, 2, 3), "intra-red", 6),
    (lemma27(4, 2, 6), "intra-red", 6),
    (lemma27(3, 2, 4), "cross-blue", 6),
]


@dataclass
class Entry:
    """One corpus file and what the checks know about it."""

    name: str
    order: int
    red_edges: set
    red_target: str
    blue_target: str
    near_miss: bool


def _edit(red: set, blocks, kind: str, rng: random.Random) -> set:
    red = set(red)
    a, b = blocks[0], blocks[1]
    if kind == "cross-blue":
        red.discard((rng.choice(a), rng.choice(b)))
    elif kind == "cross-blue-2":
        (u1, u2), (v1, v2) = rng.sample(a, 2), rng.sample(b, 2)
        red -= {(u1, v1), (u2, v2)}
    elif kind == "cross-blue-hub":
        u = rng.choice(a)
        red -= {(u, v) for v in rng.sample(b, 2)}
    elif kind == "intra-red":
        red.add(tuple(sorted(rng.sample(a, 2))))
    return red


def corpus(seed: int) -> list[Entry]:
    """The base constructions, the fixed near-misses and the seeded ones.
    No two files hold the same coloring, since fanram's cache key is the
    coloring and the targets, not the file."""
    rng = random.Random(seed)
    entries: list[Entry] = []
    seen = set()

    def add(kind: str, order: int, red: set, red_t: str, blue_t: str) -> bool:
        key = (order, red_t, blue_t, frozenset(red))
        if key in seen:
            return False
        seen.add(key)
        entries.append(
            Entry(f"{kind}-{len(entries)}", order, red, red_t, blue_t, kind != "base")
        )
        return True

    for (order, red, _), red_t, blue_t in BASE:
        add("base", order, red, red_t, blue_t)
    for (order, red, _), red_t, blue_t in FIXED_NEAR:
        add("near-fixed", order, red, red_t, blue_t)
    for ((order, red, blocks), red_t, blue_t), kind, count in NEAR:
        made = 0
        while made < count:
            made += add(f"near-{kind}", order, _edit(red, blocks, kind, rng), red_t, blue_t)
    return entries


def check_free_op(entry: Entry, path: str) -> Op:
    host_line = encode(entry.order, itertools.combinations(range(entry.order), 2))
    red_line = encode(entry.order, entry.red_edges)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f"{host_line}\n{red_line}\nfamily={entry.name}\n"
            f"red_target={entry.red_target}\nblue_target={entry.blue_target}\n"
        )
    name = f"check-free {entry.name} order {entry.order}"

    def check(rc: int, doc: dict) -> None:
        require(doc.get("format") == "fanram-report-1", f"{name}: report format")
        require(doc.get("command") == "check-free", f"{name}: command")
        require(doc.get("file") == path, f"{name}: file {doc.get('file')!r}")
        cert = doc["certificate"]
        require(
            (cert["host"], cert["red"]) == (host_line, red_line),
            f"{name}: certificate graphs differ from the file",
        )
        require(
            (cert["red_target"], cert["blue_target"])
            == (entry.red_target, entry.blue_target),
            f"{name}: certificate targets",
        )
        _, red, blue = certificate_colors(cert, name)
        check_witnesses(cert, red, blue, name)
        for color, graph in (("red", red), ("blue", blue)):
            if cert[f"{color}_witness"] is not None:
                require(entry.near_miss, f"{name}: construction has a {color} witness")
            elif entry.near_miss:
                found = oracle_contains(graph, cert[f"{color}_target"])
                require(found is False, f"{name}: oracle finds a {color} target")
        free = cert["red_witness"] is None and cert["blue_witness"] is None
        require(rc == (0 if free else 1), f"{name}: exit {rc}")

    return Op(name, ["check-free", "--file", path], check)


def certify_cache(seed: int, workdir: str) -> list[Op]:
    corpus_dir = os.path.join(workdir, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    ops = [
        check_free_op(entry, os.path.join(corpus_dir, f"{i:03d}.fr2"))
        for i, entry in enumerate(corpus(seed))
    ]
    # the order stays fixed: a store pass parses every earlier record on each
    # lookup, so where the large records sit sets the pass's cost
    searches = [ramsey_op("K3", "K3", 1, 8), ramsey_op("K3", "M:3", 1, 10), star_op("K3", "K3", 6)]
    return searches + ops


WORKLOADS = {
    "exact-ladder": exact_ladder,
    "budget-frontier": budget_frontier,
    "certify-cache": certify_cache,
}

# Replay passes per round. exact-ladder's replays take about 4 ms each and a
# round about 8.5 s, so a run has only a few rounds; ten replay passes a
# round give each replay enough samples for a steady median. The other
# workloads' replays take as long as their stores.
REPLAY_PASSES = {"exact-ladder": 10, "budget-frontier": 1, "certify-cache": 1}


def report_of(stdout: str, name: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{name}: stdout is not one JSON report: {exc}") from exc
