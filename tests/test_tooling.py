"""The benchmark's tracer patches fanram names from outside; a refactor that
drops or renames one of them must fail here, not only under bench/run.py."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os

MODULES = ("cli", "search", "patterns", "colorings", "graphs", "graph6", "io", "cache")
TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("fanram_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_fanram(capsys):
    modules = {name: importlib.import_module(f"fanram.{name}") for name in MODULES}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    graph_init = modules["graphs"].Graph.__post_init__
    tracer = _load_tracing().Tracer(modules)
    tracer.install()
    try:
        assert modules["search"]._new_containment is not before["search"]["_new_containment"]
        assert modules["patterns"].contains_target is not before["patterns"]["contains_target"]
        code = modules["cli"].main(
            ["ramsey", "--red", "K3", "--blue", "F:2,2", "--lo", "3", "--hi", "9"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == 9
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["cli.main.calls"] == 1
    assert snap["search.nodes"] > 0
    assert snap["patterns.anchored.fan.calls"] > 0
    for name, m in modules.items():
        for attr, value in before[name].items():
            assert vars(m)[attr] is value, f"{name}.{attr} not restored"
    assert modules["graphs"].Graph.__post_init__ is graph_init


def test_tracer_counts_anchored_matching_checks(capsys):
    # matching targets are checked through search._new_containment like
    # every other kind, so the tracer's matching rollup sees them
    modules = {name: importlib.import_module(f"fanram.{name}") for name in MODULES}
    tracer = _load_tracing().Tracer(modules)
    tracer.install()
    try:
        code = modules["cli"].main(
            ["ramsey", "--red", "K3", "--blue", "M:3", "--lo", "1", "--hi", "8"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == 7
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["patterns.anchored.matching.calls"] > 0


def test_tracer_counts_anchored_clique_packings(capsys):
    # the F:t,n (t >= 3) and copies checks pack their cliques behind
    # search._new_containment, so the fan and other rollups see them
    modules = {name: importlib.import_module(f"fanram.{name}") for name in MODULES}
    for blue, bounds, code, rollup in (
        ("F:3,2", ["--lo", "13", "--hi", "13", "--budget", "4000"], 2, "fan"),
        ("2xF:2,1", ["--lo", "1", "--hi", "12"], 0, "other"),
    ):
        tracer = _load_tracing().Tracer(modules)
        tracer.install()
        try:
            assert modules["cli"].main(["ramsey", "--red", "K3", "--blue", blue, *bounds]) == code
            capsys.readouterr()
        finally:
            tracer.uninstall()
        assert tracer.snapshot()[f"patterns.anchored.{rollup}.calls"] > 0, blue


def test_tracer_counts_cache_records_parsed(tmp_path, capsys):
    # cache.records_parsed counts calls of cache.record_from_obj made
    # through its module global; a local binding would leave it at zero
    modules = {name: importlib.import_module(f"fanram.{name}") for name in MODULES}
    tracer = _load_tracing().Tracer(modules)
    argv = ["ramsey", "--red", "M:2", "--blue", "F:2,1", "--lo", "3", "--hi", "8",
            "--cache", str(tmp_path / "cache.jsonl")]
    tracer.install()
    try:
        outs = []
        for _ in range(2):  # a store, then a replay
            assert modules["cli"].main(argv) == 0
            outs.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert outs[0] == outs[1]
    snap = tracer.snapshot()
    assert snap["cache.lookup.calls"] == 2 and snap["cache.lookup.hits"] == 1
    assert snap["cache.records_parsed"] >= 1


def test_tracer_sees_one_search_call_per_command(capsys):
    # cli looks search.ramsey_number and search.star_critical up when a
    # command runs, so the spans the benchmark times wrap each search
    modules = {name: importlib.import_module(f"fanram.{name}") for name in MODULES}
    tracer = _load_tracing().Tracer(modules)
    tracer.install()
    try:
        values = []
        for argv in (["ramsey", "--red", "K3", "--blue", "K3", "--lo", "1", "--hi", "8"],
                     ["star", "--red", "K3", "--blue", "K3", "--r", "6"]):
            assert modules["cli"].main(argv) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values == [6, 5]
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["search.ramsey_number.calls"] == 1
    assert snap["search.star_critical.calls"] == 1
    # the per-base extension the tracer wraps ran under the star search
    assert snap["search.extension.calls"] >= 1


def test_anchored_check_keeps_the_signature_the_tracer_wraps():
    # the tracer's wrapper of search._new_containment takes exactly these
    # parameters, positionally, and passes them on
    search = importlib.import_module("fanram.search")
    params = inspect.signature(search._new_containment).parameters
    assert list(params) == ["rows", "n", "target", "u", "v"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params.values())
