"""End-to-end checks over the public surface.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n> PASS`` or ``ACCEPTANCE <n> FAIL`` line so a log scrape
can tally the run without parsing pytest output.
"""
from __future__ import annotations

import io
import itertools
import random
import time
from contextlib import redirect_stdout

import pytest

from conftest import corpus, random_graph
from fanram.bounds import closed_formula, star_lower_bound
from fanram.cli import main
from fanram.colorings import (
    burr_coloring,
    check_free,
    lemma27_construction,
    thm17_construction,
    verify_lemma24,
)
from fanram.graph6 import decode, encode
from fanram.graphs import complete, generalized_fan
from fanram.io import parse_coloring, render_coloring
from fanram.patterns import (
    Explicit,
    contains_target,
    format_target,
    parse_target,
    pattern_graph,
)
from fanram.search import SearchConfig, packing_property_check, ramsey_number, star_critical


@pytest.fixture
def announce(capsys):
    def _run(num: int, body) -> None:
        try:
            body()
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {num} FAIL")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {num} PASS")

    return _run


def test_criterion_1_construction_grid(announce):
    def body():
        start = time.monotonic()
        checked = 0
        for m, s, t, n in itertools.product((3, 4), (1, 2), (2, 3, 4), (1, 2, 3, 4)):
            order = t * n * (m + s - 2) + s - 1
            if order > 128:
                continue
            coloring = thm17_construction(m, s, t, n)
            assert coloring.host.order == order, (m, s, t, n)
            blue = f"{s}xF:{t},{n}" if s > 1 else f"F:{t},{n}"
            cert = check_free(coloring, f"K{m}", blue)
            assert cert.valid, (m, s, t, n)
            checked += 1
        assert checked == 48
        assert time.monotonic() - start < 300

    announce(1, body)


def test_criterion_2_burr_family(announce):
    def body():
        start = time.monotonic()
        for n in range(4, 16):
            coloring = burr_coloring(3, 1, 4 * n + 1)
            assert coloring.host.order == 8 * n
            cert = check_free(coloring, "K3", f"F:4,{n}")
            assert cert.valid, n
            half_a, half_b = verify_lemma24(coloring, n)
            assert len(half_a) == len(half_b) == 4 * n
        assert time.monotonic() - start < 120

    announce(2, body)


def test_criterion_3_exhaustive_exact_values(announce):
    def body():
        start = time.monotonic()
        got = ramsey_number("K3", "K3", lo=3, hi=8)
        assert got.value == 6 and got.status == "exact"
        assert time.monotonic() - start < 60

        for s, t, n, expect in ((2, 2, 1, 5), (3, 2, 1, 7), (2, 2, 2, 6)):
            start = time.monotonic()
            red, blue = f"M:{s}", f"F:{t},{n}"
            got = ramsey_number(red, blue, lo=2, hi=expect + 2)
            assert got.value == expect, (red, blue)
            formula = closed_formula("lem2.7", {"s": s, "t": t, "n": n})
            assert formula.value == expect
            assert got.witness is not None
            assert got.witness.host.order == expect - 1
            assert got.witness.host.order == lemma27_construction(s, t, n).host.order
            assert time.monotonic() - start < 60

    announce(3, body)


def test_criterion_4_star_critical_desk_check(announce):
    def body():
        got = star_critical("K3", "K3", 6)
        assert got.value == 5 and got.status == "exact"
        for n in range(4, 11):
            assert star_lower_bound(complete(3), generalized_fan(3, n)).value == 3 * n + 3
            assert star_lower_bound(complete(3), generalized_fan(4, n)).value == 4 * n + 4

    announce(4, body)


def test_criterion_5_formula_consistency(announce):
    def body():
        start = time.monotonic()
        for n in range(3, 13):
            assert (
                closed_formula("cor1.9", {"t": 3, "s": 1, "n": n}).value
                == closed_formula("thm1.4", {"n": n}).value
            )
            assert (
                closed_formula("cor1.9", {"t": 4, "s": 1, "n": n}).value
                == closed_formula("thm1.5", {"n": n}).value
            )
        for m in range(1, 6):
            for n in range(1, 6):
                got = closed_formula("lem2.1", {"m": m, "n": n})
                assert got.value == 4 * n + 2 * m + 1
        hand = {
            (3, 1, 1): 9,
            (3, 1, 2): 13,
            (3, 2, 1): 15,
            (3, 2, 2): 18,
            (3, 3, 2): 24,
            (4, 1, 1): 12,
            (4, 2, 3): 29,
            (4, 3, 1): 28,
            (5, 2, 2): 30,
            (5, 1, 4): 33,
        }
        for (t, m, n), expect in hand.items():
            got = closed_formula("thm1.11", {"t": t, "m": m, "n": n})
            assert got.value == expect, (t, m, n)
        assert time.monotonic() - start < 1

    announce(5, body)


def test_criterion_6_packing_property(announce):
    def body():
        start = time.monotonic()
        for t, n in ((2, 4), (2, 5), (3, 3), (3, 4)):
            report = packing_property_check(t, n, trials=200)
            assert report.ok, (t, n, report.failures)
            assert report.trials == 200 and report.failures == ()
        assert time.monotonic() - start < 120

    announce(6, body)


def test_criterion_7_detector_equivalence(announce):
    def body():
        start = time.monotonic()
        rng = random.Random(500)
        specs = [
            "K1", "K2", "K3", "K4", "K5",
            "M:1", "M:2", "M:3", "M:4",
            "F:2,1", "F:2,2", "F:2,3", "F:3,1", "F:3,2", "F:4,1",
            "2xK2", "2xK3", "3xK2", "2xF:2,1", "2xM:2",
        ]
        disagreements = []
        for trial in range(500):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
            target = parse_target(rng.choice(specs))
            fast = contains_target(g, target)
            slow = contains_target(g, Explicit(pattern_graph(target)))
            if (fast is None) != (slow is None):
                disagreements.append((trial, format_target(target)))
        assert disagreements == []
        assert time.monotonic() - start < 120

    announce(7, body)


def test_criterion_8_round_trips_and_determinism(announce):
    def body():
        for _, g in corpus():
            assert decode(encode(g)) == g
        for coloring in (
            thm17_construction(3, 2, 2, 2),
            lemma27_construction(2, 2, 2),
            burr_coloring(3, 1, 9),
        ):
            text = render_coloring(coloring, {"red_target": "K3", "note": "x"})
            back, metadata = parse_coloring(text)
            assert back == coloring
            assert metadata["note"] == "x"

        def report() -> str:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(
                    ["ramsey", "--red", "M:2", "--blue", "F:2,2", "--lo", "2", "--hi", "8"]
                )
            assert code == 0
            return buf.getvalue()

        first = report()
        assert report() == first
        assert report() == first

    announce(8, body)
