from __future__ import annotations

import random

import pytest

from fanram import bounds
from fanram.bounds import (
    _partitions,
    burr_bound,
    chromatic_number,
    chromatic_surplus,
    closed_formula,
    formula_ids,
    graph_params,
    is_good,
    star_lower_bound,
    tau,
)
from fanram.errors import (
    BadParam,
    MissingParam,
    OrderCap,
    PreconditionViolated,
    UnknownFormula,
)
from fanram.graphs import (
    bits,
    complete,
    complete_multipartite,
    copies,
    empty_graph,
    generalized_fan,
    from_edges,
)

from conftest import (
    corpus,
    cycle_graph,
    oracle_chromatic,
    oracle_optimal_partitions,
    oracle_surplus,
    oracle_tau,
    path_graph,
    random_graph,
)


def _oracle_corpus():
    for name, g in corpus():
        if g.order == 0 or g.order > 8:
            continue
        chi = oracle_chromatic(g)
        if chi ** g.order > 300_000:
            continue
        yield name, g, chi


def test_chromatic_number_examples():
    assert chromatic_number(empty_graph(0)) == 0
    assert chromatic_number(empty_graph(5)) == 1
    assert chromatic_number(complete(4)) == 4
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(complete_multipartite([3, 3])) == 2
    with pytest.raises(OrderCap):
        chromatic_number(empty_graph(41))


def test_chromatic_number_against_oracle():
    for name, g, chi in _oracle_corpus():
        assert chromatic_number(g) == chi, name


def test_partitions_against_oracle():
    # each partition into exactly k independent classes, once, for k = chi
    # (the optimal colorings) and k = chi + 1
    for name, g, chi in _oracle_corpus():
        for k in (chi, chi + 1):
            if k ** g.order > 300_000:
                continue
            got = [frozenset(frozenset(bits(cm)) for cm in part) for part in _partitions(g, k)]
            assert len(got) == len(set(got)), (name, k)
            assert set(got) == oracle_optimal_partitions(g, k), (name, k)


def _mycielski(g):
    """Mycielski's graph of g: a twin u_i of each vertex v_i, adjacent to
    v_i's neighbors, and one vertex adjacent to every twin."""
    n = g.order
    edges = list(g.edges())
    for a, b in g.edges():
        edges += [(a, n + b), (b, n + a)]
    return from_edges(2 * n + 1, edges + [(n + i, 2 * n) for i in range(n)])


def _wheel(rim):
    spokes = [(i, rim) for i in range(rim)]
    return from_edges(rim + 1, [(i, (i + 1) % rim) for i in range(rim)] + spokes)


_GROTZSCH = _mycielski(cycle_graph(5))


@pytest.mark.parametrize(
    "g, chi",
    [
        (_GROTZSCH, 4),
        (_mycielski(_GROTZSCH), 5),
        (_wheel(21), 4),
        (cycle_graph(39), 3),
        (complete_multipartite([8] * 5), 5),
        (generalized_fan(4, 9), 5),
        (copies(2, generalized_fan(3, 6)), 4),
        (complete(40), 40),
        (random_graph(random.Random(0), 40, 0.5), 8),
        (random_graph(random.Random(3), 40, 0.5), 9),
    ],
    ids=["grotzsch", "M5", "W21", "C39", "K8x5", "F:4,9", "2xF:3,6", "K40", "G40a", "G40b"],
)
def test_chromatic_number_hard_graphs(g, chi):
    # the clique number is chi - 1 or less for all but K_{8,8,8,8,8}, F:4,9,
    # 2xF:3,6 and K40, so those need every partition into fewer classes refuted
    assert chromatic_number(g) == chi


def test_bounds_compute_chi_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return chromatic_number(g)

    monkeypatch.setattr(bounds, "chromatic_number", counted)
    for run in (
        lambda: star_lower_bound(complete(3), generalized_fan(4, 5)),
        lambda: graph_params(cycle_graph(5)),
        lambda: burr_bound(complete_multipartite([2, 3]), generalized_fan(2, 3)),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_bounds_raise_the_surplus_cap_before_computing_chi(monkeypatch):
    # the surplus of an order-20 graph is never enumerated, whatever its chi
    calls = []
    monkeypatch.setattr(bounds, "chromatic_number", lambda g: calls.append(g) or 0)
    g = random_graph(random.Random(0), 20, 0.5)
    for run in (
        lambda: burr_bound(g, complete(3)),
        lambda: graph_params(g),
        lambda: star_lower_bound(g, complete(3)),
    ):
        with pytest.raises(OrderCap, match="surplus enumeration capped at order 12"):
            run()
    assert calls == []
    # the chi cap still comes first, and an edgeless g still fails the
    # star bound's precondition at any order up to it
    with pytest.raises(OrderCap, match="chromatic number capped at order 40"):
        burr_bound(empty_graph(41), complete(3))
    with pytest.raises(PreconditionViolated):
        star_lower_bound(empty_graph(20), complete(3))
    assert calls == []


def test_fan_parameters_cross_module():
    for t in (2, 3, 4):
        for n in (1, 2, 3, 4, 5):
            f = generalized_fan(t, n)
            assert chromatic_number(f) == t + 1, (t, n)
            from fanram.graphs import degree_profile

            assert degree_profile(f)[0] == t


def test_surplus_examples():
    assert chromatic_surplus(complete(5)) == 1
    assert chromatic_surplus(cycle_graph(5)) == 1
    assert chromatic_surplus(complete_multipartite([3, 3])) == 3
    assert chromatic_surplus(empty_graph(4)) == 4
    with pytest.raises(BadParam):
        chromatic_surplus(empty_graph(0))
    with pytest.raises(OrderCap):
        chromatic_surplus(empty_graph(13))


def test_surplus_and_tau_against_oracle():
    for name, g, chi in _oracle_corpus():
        assert chromatic_surplus(g) == oracle_surplus(g), name
        if chi >= 2:
            assert tau(g) == oracle_tau(g), name


def test_tau_examples():
    assert tau(complete(3)) == 1
    assert tau(complete(6)) == 1
    assert tau(generalized_fan(2, 2)) == 2  # hub is the singleton class, two neighbors per blade class
    assert tau(complete_multipartite([2, 2])) == 2
    with pytest.raises(BadParam):
        tau(empty_graph(3))  # chromatic number 1


def test_tau_at_least_one():
    for name, g, chi in _oracle_corpus():
        if chi >= 2:
            assert tau(g) >= 1, name


def test_graph_params():
    p = graph_params(complete(3))
    assert (p.chi, p.surplus, p.tau, p.min_degree) == (3, 1, 1, 2)
    p = graph_params(generalized_fan(4, 2))
    assert p.chi == 5 and p.min_degree == 4


# ---------------------------------------------------------------------------
# structural bounds
# ---------------------------------------------------------------------------


def test_burr_bound_values():
    rep = burr_bound(complete(3), generalized_fan(4, 5))
    assert rep.value == 2 * 20 + 1 == 41
    assert rep.kind == "lower" and rep.validity.satisfied
    rep = burr_bound(complete(4), generalized_fan(2, 3))
    assert rep.value == 3 * 6 + 1 == 19
    rep = burr_bound(complete(3), copies(2, complete(3)))
    assert not rep.validity.satisfied  # disconnected h


def test_burr_bound_precondition():
    with pytest.raises(PreconditionViolated):
        burr_bound(complete_multipartite([3, 3]), complete(2))  # order(h) < surplus


def test_is_good():
    assert is_good(complete(3), generalized_fan(4, 5), 41)
    assert not is_good(complete(3), generalized_fan(4, 5), 42)
    with pytest.raises(PreconditionViolated):
        is_good(complete(3), generalized_fan(4, 5), 41, provenance="unverified")


def test_star_lower_bound_values():
    for n in (4, 6, 10):
        rep = star_lower_bound(complete(3), generalized_fan(4, n))
        assert rep.value == 4 * n + 4
        rep = star_lower_bound(complete(3), generalized_fan(3, n))
        assert rep.value == 3 * n + 3
    rep = star_lower_bound(complete(3), complete(3))
    assert rep.value == 4
    assert rep.validity.assumed is not None


def test_star_lower_bound_preconditions():
    with pytest.raises(PreconditionViolated):
        star_lower_bound(empty_graph(3), complete(3))


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------


def test_formula_ids_known():
    ids = formula_ids()
    for fid in (
        "thm1.3i", "thm1.3ii", "thm1.3iii", "thm1.3iv",
        "thm1.4", "thm1.4star", "thm1.5", "thm1.5star", "thm1.6", "thm1.7lo", "thm1.7hi",
        "thm1.11", "lem2.1", "lem2.7", "cor1.8", "cor1.9", "cor1.10",
        "conj1.2",
    ):
        assert fid in ids


def test_formula_values():
    assert closed_formula("thm1.3i", {"n": 3}).value == 13
    assert closed_formula("thm1.4", {"n": 5}).value == 31
    assert closed_formula("thm1.5", {"n": 4}).value == 33
    assert closed_formula("lem2.1", {"m": 1, "n": 2}).value == 11
    assert closed_formula("lem2.7", {"s": 3, "t": 2, "n": 1}).value == 7
    assert closed_formula("lem2.7", {"s": 2, "t": 2, "n": 2}).value == 6
    assert closed_formula("thm1.6", {"t": 2, "m": 4, "n": 7, "s": 1}).value == 43
    assert closed_formula("thm1.7lo", {"t": 2, "m": 3, "n": 4, "s": 2}).value == 26
    assert (
        closed_formula("thm1.7hi", {"m": 3, "t": 2, "n": 4, "s": 2, "base": 17}).value
        == 9 * 1 + 17
    )
    assert closed_formula("thm1.11", {"t": 3, "m": 2, "n": 2}).value == 18
    assert closed_formula("cor1.9", {"t": 3, "n": 5, "s": 1}).value == 31


def test_star_critical_formulas():
    # Hao-Lin: r_*(K3, F_{3,n}) = 3n+3; the paper: r_*(K3, F_{4,n}) = 4n+4;
    # both for n >= 4, and both say they are star-critical
    for fid, t, value in (("thm1.4star", 3, 15), ("thm1.5star", 4, 20)):
        rep = closed_formula(fid, {"n": 4})
        assert (rep.value, rep.kind, rep.validity.satisfied) == (value, "exact", True)
        assert f"r_*(K3, F_{{{t},n}})" in rep.validity.condition
        below = closed_formula(fid, {"n": 3})
        assert below.value == value - t and not below.validity.satisfied


def test_formula_validity_flags():
    good = closed_formula("thm1.4", {"n": 3})
    assert good.validity.satisfied
    out = closed_formula("thm1.4", {"n": 2})
    assert out.value == 13 and not out.validity.satisfied
    conj = closed_formula("conj1.2", {"m": 3, "n": 3})
    assert conj.validity.assumed is not None
    assumed = closed_formula("thm1.6", {"t": 2, "m": 4, "n": 7, "s": 1})
    assert assumed.validity.assumed is not None


def test_formula_errors():
    with pytest.raises(UnknownFormula):
        closed_formula("thm9.9", {"n": 3})
    with pytest.raises(MissingParam) as exc:
        closed_formula("lem2.7", {"s": 2})
    msg = str(exc.value)
    assert "t" in msg and "n" in msg
    # a parameter is an int or an error, never coerced: 2.5 is not read as 2
    for value in ("x", 2.5, True):
        with pytest.raises(BadParam) as exc:
            closed_formula("thm1.4", {"n": value})
        assert "thm1.4" in str(exc.value) and "parameter n" in str(exc.value)


def test_sandwich_property():
    # the two-sided bounds bracket each other when the base value is the
    # single-copy value
    for t in (2, 3):
        for m in (3, 4):
            for n in (2, 3, 4):
                for s in (2, 3):
                    base = closed_formula("thm1.6", {"t": t, "m": m, "n": n, "s": 1}).value
                    lo = closed_formula(
                        "thm1.7lo", {"t": t, "m": m, "n": n, "s": s}
                    ).value
                    hi = closed_formula(
                        "thm1.7hi", {"m": m, "t": t, "n": n, "s": s, "base": base}
                    ).value
                    assert lo <= hi, (t, m, n, s)


def test_desk_scale_tightness():
    # exhaustively confirmed values from the search suite dominate the bounds
    assert burr_bound(complete(3), complete(3)).value <= 6
    assert star_lower_bound(complete(3), complete(3)).value <= 5
    assert burr_bound(copies(2, complete(2)), generalized_fan(2, 1)).value <= 5
