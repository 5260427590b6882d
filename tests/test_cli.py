from __future__ import annotations

import json
import os

import pytest

import fanram.cache as cache_module
import fanram.cli as cli_module
from fanram.cache import (
    TOOL_VERSION,
    ResultRecord,
    _key_head,
    cache_lookup,
    cache_store,
    load_records,
    record_to_obj,
)
from fanram.cli import main
from fanram.colorings import check_free, load_certificate, thm17_construction
from fanram.graph6 import decode
from fanram.io import load_coloring, parse_coloring, render_coloring, save_coloring
from fanram.errors import CorruptRecord, ParseError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_detect_found(capsys):
    code, doc, _ = run_json(capsys, "detect", "--graph", "G6:D~{", "--target", "K4")
    assert code == 0
    assert doc["format"] == "fanram-report-1"
    assert doc["command"] == "detect"
    assert doc["found"] is True
    assert doc["witness"]["groups"] == [[0, 1, 2, 3]]


def test_detect_absent(capsys):
    code, doc, _ = run_json(capsys, "detect", "--graph", "K3", "--target", "K4")
    assert code == 1
    assert doc["found"] is False and doc["witness"] is None


def test_detect_bad_grammar(capsys):
    code, out, err = run(capsys, "detect", "--graph", "Q9", "--target", "K3")
    assert code == 2
    assert "error" in err


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "ramsey", "--red", "K3", "--blue", "K3")[0] == 2  # no --hi


def test_construct_writes_file_and_certifies(tmp_path, capsys):
    out_file = tmp_path / "c.fr2"
    code, doc, _ = run_json(
        capsys,
        "construct", "--family", "thm17",
        "--m", "3", "--s", "2", "--t", "2", "--n", "2",
        "--out", str(out_file),
    )
    assert code == 0
    assert doc["order"] == 13
    assert doc["certificate"]["red_target"] == "K3"
    assert doc["certificate"]["blue_target"] == "2xF:2,2"
    assert doc["certificate"]["red_witness"] is None
    coloring, metadata = load_coloring(out_file)
    assert coloring == thm17_construction(3, 2, 2, 2)
    assert metadata["family"] == "thm17"
    assert metadata["red_target"] == "K3"


def test_construct_lemma27_defaults(capsys):
    code, doc, _ = run_json(
        capsys, "construct", "--family", "lemma27", "--s", "2", "--t", "2", "--n", "1"
    )
    assert code == 0
    assert doc["order"] == 4
    assert doc["certificate"]["blue_target"] == "F:2,1"


def test_construct_burr_needs_explicit_targets(capsys):
    code, doc, _ = run_json(
        capsys,
        "construct", "--family", "burr",
        "--chi", "3", "--surplus", "1", "--h-order", "17",
    )
    assert code == 0
    assert doc["order"] == 32
    assert doc["certificate"] is None
    code, doc, _ = run_json(
        capsys,
        "construct", "--family", "burr",
        "--chi", "3", "--surplus", "1", "--h-order", "17",
        "--red", "K3", "--blue", "F:4,4",
    )
    assert code == 0
    assert doc["certificate"]["blue_witness"] is None


def test_construct_invalid_certification_exits_one(capsys):
    code, doc, _ = run_json(
        capsys,
        "construct", "--family", "burr",
        "--chi", "3", "--surplus", "1", "--h-order", "17",
        "--red", "K3", "--blue", "F:2,1",
    )
    assert code == 1
    assert doc["certificate"]["blue_witness"] is not None


def test_construct_missing_params(capsys):
    assert run(capsys, "construct", "--family", "thm17", "--m", "3") == (
        2, "", "error: family 'thm17' needs --s\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["construct", "--family", "burr", "--chi", "3", "--surplus", "1", "--h-order", "17",
      "--red", "K3"], "burr certification needs both --red and --blue"),
    (["bound", "--kind", "formula"], "bound --kind formula needs --formula"),
    (["bound", "--kind", "star", "--g", "K3"], "bound --kind star needs --g and --h"),
])
def test_usage_error_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_check_free_uses_metadata(tmp_path, capsys):
    out_file = tmp_path / "c.fr2"
    run(
        capsys,
        "construct", "--family", "lemma27",
        "--s", "2", "--t", "2", "--n", "2", "--out", str(out_file),
    )
    code, doc, _ = run_json(capsys, "check-free", "--file", str(out_file))
    assert code == 0
    assert doc["certificate"]["red_target"] == "M:2"
    # explicit flags override and can flip the verdict
    code, doc, _ = run_json(
        capsys, "check-free", "--file", str(out_file), "--red", "M:1", "--blue", "F:2,2"
    )
    assert code == 1
    assert doc["certificate"]["red_witness"] is not None


def test_check_free_without_targets(tmp_path, capsys):
    f = tmp_path / "bare.fr2"
    c = thm17_construction(3, 1, 2, 2)
    save_coloring(f, c)
    code, _, err = run(capsys, "check-free", "--file", str(f))
    assert code == 2 and "target" in err


@pytest.mark.parametrize("flag", ["--red", "--blue"])
def test_construct_rejects_an_empty_target(capsys, flag):
    # an empty target is a parse error, not a request to skip the check
    argv = ["construct", "--family", "thm17", "--m", "3", "--s", "1", "--t", "2", "--n", "2"]
    assert run(capsys, *argv, flag, "") == (2, "", "error: empty target (at position 0)\n")


@pytest.mark.parametrize("flag", ["--red", "--blue"])
def test_check_free_rejects_an_empty_target(tmp_path, capsys, flag):
    # the file names both targets; an empty flag must not fall back to them
    out_file = tmp_path / "c.fr2"
    argv = ["construct", "--family", "lemma27", "--s", "2", "--t", "2", "--n", "2"]
    run(capsys, *argv, "--out", str(out_file))
    assert run(capsys, "check-free", "--file", str(out_file), flag, "") == (
        2, "", "error: empty target (at position 0)\n"
    )


def test_check_free_non_ascii_file_exits_two(tmp_path, capsys):
    f = tmp_path / "accent.fr2"
    f.write_bytes("D~{\né\n".encode())
    code, out, err = run(capsys, "check-free", "--file", str(f), "--red", "K3", "--blue", "K3")
    assert code == 2 and out == ""
    assert err == "error: non-ASCII byte 0xc3 in coloring file (at position 4)\n"


def test_bound_formula(capsys):
    code, doc, _ = run_json(
        capsys, "bound", "--formula", "lem2.7", "--s", "2", "--t", "2", "--n", "1"
    )
    assert code == 0
    assert doc["report"]["value"] == 5
    assert doc["report"]["validity"]["satisfied"] is True


def test_bound_out_of_range_exits_one(capsys):
    code, doc, _ = run_json(capsys, "bound", "--formula", "thm1.4", "--n", "2")
    assert code == 1
    assert doc["report"]["value"] == 13
    assert doc["report"]["validity"]["satisfied"] is False


def test_bound_unknown_formula(capsys):
    code, _, err = run(capsys, "bound", "--formula", "thm7.7", "--n", "3")
    assert code == 2


def test_bound_structural(capsys):
    code, doc, _ = run_json(capsys, "bound", "--kind", "burr", "--g", "K3", "--h", "F:4,5")
    assert code == 0
    assert doc["report"]["value"] == 41
    code, doc, _ = run_json(capsys, "bound", "--kind", "star", "--g", "K3", "--h", "F:4,5")
    assert code == 0
    assert doc["report"]["value"] == 24


def test_ramsey_report(capsys):
    code, doc, _ = run_json(
        capsys, "ramsey", "--red", "M:2", "--blue", "F:2,1", "--lo", "3", "--hi", "8"
    )
    assert code == 0
    assert doc["value"] == 5 and doc["status"] == "exact"
    assert doc["witness"]["host"] == "C~"
    assert doc["stats"]["nodes"] >= 0


def test_ramsey_range_failure_exits_one(capsys):
    code, doc, _ = run_json(
        capsys, "ramsey", "--red", "K3", "--blue", "K3", "--lo", "3", "--hi", "5"
    )
    assert code == 1
    assert doc["value"] is None and doc["status"] == "no_value_in_range"


def test_ramsey_lo_above_the_value_exits_one(capsys):
    code, doc, _ = run_json(
        capsys, "ramsey", "--red", "K3", "--blue", "K3", "--lo", "8", "--hi", "10"
    )
    assert code == 1
    assert doc["value"] is None and doc["status"] == "no_value_in_range"
    assert doc["error"] == "K_7 admits no free coloring, so the value is below 8"


def test_ramsey_budget_exit_two(capsys):
    code, doc, _ = run_json(
        capsys,
        "ramsey", "--red", "K4", "--blue", "K4",
        "--lo", "3", "--hi", "18", "--budget", "500",
    )
    assert code == 2
    assert doc["status"] == "budget_exhausted"


@pytest.mark.parametrize(
    "argv",
    [
        ["ramsey", "--red", "K3", "--blue", "K3", "--lo", "3", "--hi", "8"],
        ["star", "--red", "K3", "--blue", "K3", "--r", "6"],
    ],
)
def test_negative_budget_is_a_usage_error(capsys, tmp_path, argv):
    cache = tmp_path / "c.jsonl"
    code, out, err = run(capsys, *argv, "--budget", "-1", "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err == "error: --budget must be at least 0, got -1\n"
    assert not cache.exists()
    code, doc, _ = run_json(capsys, *argv, "--budget", "0")
    assert (code, doc["status"], doc["stats"]["nodes"]) == (2, "budget_exhausted", 1)


def test_ramsey_deep_search_exits_one_without_traceback(capsys):
    # K45 has 990 edges, one DFS level each; every coloring of it is free
    code, doc, err = run_json(
        capsys,
        "ramsey", "--red", "M:30", "--blue", "M:30",
        "--lo", "45", "--hi", "45", "--budget", "5000",
    )
    assert code == 1 and doc["status"] == "no_value_in_range"
    assert "Traceback" not in err


@pytest.mark.parametrize("huge", ["K200", "M:100", "2xF:3,40", "F:1,199"])
def test_huge_target_gives_the_same_answer_in_either_color(capsys, huge):
    # a pattern past the order cap is never built: whether it has an edge,
    # which rules out its degree-cap scans, is read from its parameters
    docs = []
    for red, blue in (("K3", huge), (huge, "K3")):
        code, doc, err = run_json(
            capsys, "ramsey", "--red", red, "--blue", blue, "--lo", "1", "--hi", "3"
        )
        assert (code, doc["status"], err) == (1, "no_value_in_range", "")
        docs.append(doc)
    mirrored = dict(docs[1], red=docs[1]["blue"], blue=docs[1]["red"])
    assert json.dumps(mirrored) == json.dumps(docs[0])


def test_graph_over_the_order_cap_exits_two_before_it_is_built(capsys):
    # F:99999999,2 would need a K_99999999 blade
    code, out, err = run(capsys, "detect", "--graph", "F:99999999,2", "--target", "K3")
    assert (code, out) == (2, "")
    assert err.startswith("error: order") and "Traceback" not in err


def test_clique_copies_cap_starts_at_its_seed(capsys):
    # the (K3,2xK3) cap of F:3,2 starts at thm17(3,2,2,1)'s order 7; with
    # the blue window of 2xK3 (from r(K3, K2) and r(K3, K3)) it settles K8
    # in 3,494 nodes, and the budget then runs out in K13 itself
    argv = ["ramsey", "--red", "K3", "--blue", "F:3,2", "--lo", "13", "--hi", "13"]
    for budget, nodes, settled in ((10, 11, (None, 7, 0)), (4000, 4001, (8, 7, 3494))):
        code, doc, _ = run_json(capsys, *argv, "--budget", str(budget))
        assert (code, doc["status"], doc["stats"]["nodes"]) == (2, "budget_exhausted", nodes)
        cap = next(c for c in doc["caps"] if (c["red"], c["blue"]) == ("K3", "2xK3"))
        assert (cap["value"], cap["free_order"], cap["nodes"]) == settled


def test_flags_that_did_nothing_are_gone(capsys):
    base = ["ramsey", "--red", "K3", "--blue", "K3", "--hi", "8"]
    assert run(capsys, *base, "--seed", "3")[0] == 2
    packing = ["packing-check", "--t", "2", "--n", "2", "--trials", "3"]
    assert run(capsys, *packing, "--budget", "10")[0] == 2
    assert run(capsys, *packing, "--threads", "2")[0] == 2
    assert run(capsys, *base, "--threads", "2")[0] == 2
    star = ["star", "--red", "K3", "--blue", "K3", "--r", "6"]
    assert run(capsys, *star, "--threads", "2")[0] == 2


def test_search_reports_record_degree_caps(capsys):
    code, doc, _ = run_json(
        capsys, "ramsey", "--red", "K3", "--blue", "K4", "--lo", "1", "--hi", "10"
    )
    assert code == 0 and doc["value"] == 9
    assert doc["stats"]["degree_prunes"] > 0
    caps = {(c["red"], c["blue"]): c for c in doc["caps"]}
    assert caps[("K2", "K4")]["source"] == "identity"
    k3 = caps[("K3", "K3")]
    assert (k3["value"], k3["source"]) == (6, "search") and k3["nodes"] > 0
    assert k3["caps_for"] == [{"color": "blue", "red": "K3", "blue": "K4"}]
    assert sum(c["nodes"] for c in doc["caps"]) < doc["stats"]["nodes"]
    code, doc, _ = run_json(capsys, "star", "--red", "K3", "--blue", "K3", "--r", "6")
    assert code == 0
    assert [(c["red"], c["blue"], c["value"]) for c in doc["caps"]] == [
        ("K2", "K3", 3),
        ("K3", "K2", 3),
    ]


def test_ramsey_byte_identical_across_runs(capsys):
    args = ["ramsey", "--red", "K3", "--blue", "K3", "--lo", "3", "--hi", "8"]
    first, second, third = (run(capsys, *args)[1] for _ in range(3))
    assert first == second == third


def test_star_cli(capsys):
    code, doc, _ = run_json(capsys, "star", "--red", "K3", "--blue", "K3", "--r", "6")
    assert code == 0
    assert doc["value"] == 5
    host = decode(doc["witness"]["host"])
    assert host.order == 6 and host.degree(5) == 4


def test_star_value_zero_has_no_witness_and_is_not_cached(tmp_path, capsys):
    # G6:Cw is K3 plus an isolated vertex: r(G6:Cw, K2) = 4, and on every
    # free coloring of K3 the fresh vertex alone completes a red G6:Cw
    code, doc, _ = run_json(capsys, "ramsey", "--red", "G6:Cw", "--blue", "K2",
                            "--lo", "1", "--hi", "6")
    assert (code, doc["value"]) == (0, 4)
    cache = tmp_path / "cache.jsonl"
    for extra in ([], ["--cache", str(cache)]):
        code, doc, err = run_json(capsys, "star", "--red", "G6:Cw", "--blue", "K2",
                                  "--r", "4", *extra)
        assert (code, err) == (0, "")
        assert (doc["value"], doc["status"], doc["witness"]) == (0, "exact", None)
    assert not cache.exists()


def test_star_precondition_exit_two(capsys):
    code, _, err = run(capsys, "star", "--red", "K3", "--blue", "K3", "--r", "5")
    assert code == 2


def test_star_order_cap_exit_two(capsys):
    # r is checked against the order cap before any search
    code, out, err = run(capsys, "star", "--red", "K3", "--blue", "K3", "--r", "129")
    assert (code, out, err) == (2, "", "error: order 129 exceeds 128\n")


def test_packing_check_cli(capsys):
    code, doc, _ = run_json(
        capsys, "packing-check", "--t", "2", "--n", "3", "--trials", "20", "--seed", "3"
    )
    assert code == 0
    assert doc["ok"] is True and doc["failures"] == []
    assert doc["min_degree_floor"] == 3


# ---------------------------------------------------------------------------
# cache behavior
# ---------------------------------------------------------------------------


def test_cache_store_and_replay(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "ramsey", "--red", "M:2", "--blue", "F:2,1",
        "--lo", "3", "--hi", "8", "--cache", str(cache),
    ]
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    assert cache.exists() and len(cache.read_text().splitlines()) == 1
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0
    assert out1 == out2
    # still exactly one record: hits do not append
    assert len(cache.read_text().splitlines()) == 1
    # different key computes fresh and appends
    code3, doc, _ = run(
        capsys,
        "ramsey", "--red", "M:2", "--blue", "F:2,1",
        "--lo", "3", "--hi", "9", "--cache", str(cache),
    )
    assert len(cache.read_text().splitlines()) == 2


def test_cache_check_free_replay_names_the_file_asked_about(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    a, b = tmp_path / "a.fr2", tmp_path / "b.fr2"
    run(
        capsys,
        "construct", "--family", "lemma27",
        "--s", "2", "--t", "2", "--n", "2", "--out", str(a),
    )
    b.write_bytes(a.read_bytes())
    _, out_a, _ = run(capsys, "check-free", "--file", str(a), "--cache", str(cache))
    code, out_b, err = run(capsys, "check-free", "--file", str(b), "--cache", str(cache))
    assert code == 0 and err == ""
    assert json.loads(out_a)["file"] == str(a)
    # the replay hit (one record) prints what a fresh check of b.fr2 prints
    assert len(cache.read_text().splitlines()) == 1
    assert out_b == run(capsys, "check-free", "--file", str(b))[1]
    assert json.loads(out_b)["file"] == str(b)


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache.jsonl"
    monkeypatch.setenv("FANRAM_CACHE", str(cache))
    run(capsys, "ramsey", "--red", "M:1", "--blue", "K3", "--lo", "1", "--hi", "5")
    assert cache.exists()
    monkeypatch.delenv("FANRAM_CACHE")


def test_cache_corrupt_line_skipped(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "ramsey", "--red", "M:2", "--blue", "F:2,1",
        "--lo", "3", "--hi", "8", "--cache", str(cache),
    ]
    _, out1, _ = run(capsys, *args)
    cache.write_text("this is not json\n" + cache.read_text())
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert "skipped" in err


def test_cache_corrupt_certificate_recomputes(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "ramsey", "--red", "M:2", "--blue", "F:2,1",
        "--lo", "3", "--hi", "8", "--cache", str(cache),
    ]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    rec["artifact"]["witness"]["red"] = "C~"  # flip the stored coloring
    cache.write_text(json.dumps(rec) + "\n")
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert out1 == out2  # recomputed result matches the original bytes
    assert "re-validation" in err


def test_cache_damaged_coloring_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "ramsey", "--red", "M:2", "--blue", "F:2,1",
        "--lo", "3", "--hi", "8", "--cache", str(cache),
    ]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    rec["artifact"]["witness"]["host"] = "C?"  # edgeless K4 host: red edges fall outside
    cache.write_text(json.dumps(rec) + "\n")
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert "re-validation" in err


@pytest.mark.parametrize("args, value", [
    (["ramsey", "--red", "M:2", "--blue", "F:2,1", "--lo", "3", "--hi", "8"], 4),
    (["ramsey", "--red", "M:2", "--blue", "F:2,1", "--lo", "3", "--hi", "8"], 6),
    (["star", "--red", "K3", "--blue", "K3", "--r", "6"], 4),
])
def test_cache_value_must_match_witness(tmp_path, capsys, args, value):
    cache = tmp_path / "cache.jsonl"
    args = args + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    assert rec["value"] != value
    rec["value"] = rec["artifact"]["value"] = value
    cache.write_text(json.dumps(rec) + "\n")
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert out1 == out2  # recomputed, not the edited value
    assert "not backed by its certificate" in err
    assert len(cache.read_text().splitlines()) == 2


def test_cache_skips_values_without_witness(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ["ramsey", "--red", "K1", "--blue", "K3", "--lo", "1", "--hi", "3"]
    for _ in range(2):
        code, doc, err = run_json(capsys, *args, "--cache", str(cache))
        assert code == 0 and doc["value"] == 1 and doc["witness"] is None
        assert err == ""
    assert not cache.exists()


def test_cache_certificate_record_without_certificate(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    out_file = tmp_path / "c.fr2"
    run(
        capsys,
        "construct", "--family", "lemma27",
        "--s", "2", "--t", "2", "--n", "1", "--out", str(out_file),
    )
    args = ["check-free", "--file", str(out_file), "--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    del rec["artifact"]["certificate"]
    cache.write_text(json.dumps(rec) + "\n")
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert "re-validation" in err


def test_cache_certificate_records(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    out_file = tmp_path / "c.fr2"
    run(
        capsys,
        "construct", "--family", "lemma27",
        "--s", "2", "--t", "2", "--n", "1", "--out", str(out_file),
    )
    args = ["check-free", "--file", str(out_file), "--cache", str(cache)]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(cache.read_text().splitlines()) == 1


def _lemma27_file(tmp_path, capsys):
    out_file = tmp_path / "c.fr2"
    run(
        capsys,
        "construct", "--family", "lemma27",
        "--s", "2", "--t", "2", "--n", "1", "--out", str(out_file),
    )
    return out_file


def test_cache_check_free_prints_its_own_check_not_the_record(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ["check-free", "--file", str(_lemma27_file(tmp_path, capsys))]
    run(capsys, *args, "--cache", str(cache))
    rec = json.loads(cache.read_text())
    rec["artifact"]["command"] = "ramsey"
    rec["artifact"]["extra"] = 1
    cache.write_text(json.dumps(rec) + "\n")
    code, out, err = run(capsys, *args, "--cache", str(cache))
    assert (code, out) == run(capsys, *args)[:2]
    assert "re-validation" in err and err.count("\n") == 1
    lines = cache.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["artifact"] == json.loads(out)


def test_cache_check_free_checks_once_on_a_miss_and_on_a_hit(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    args = ["check-free", "--file", str(_lemma27_file(tmp_path, capsys)), "--cache", str(cache)]
    calls = []
    monkeypatch.setattr(cli_module, "check_free",
                        lambda *a: calls.append(a) or check_free(*a))
    outputs = []
    for expected in (1, 2):
        outputs.append(run(capsys, *args))
        assert len(calls) == expected
    assert outputs[0] == outputs[1] and outputs[0][2] == ""
    assert len(cache.read_text().splitlines()) == 1


def test_unusable_cache_leaves_no_report(tmp_path, capsys, monkeypatch):
    # the cache is written before the report is printed, so a cache error
    # exits 2 with nothing on stdout: check-free with a directory as its
    # cache, and a search whose store fails
    f = _lemma27_file(tmp_path, capsys)
    code, out, err = run(capsys, "check-free", "--file", str(f), "--cache", str(tmp_path))
    assert (code, out) == (2, "") and err.startswith("error:")

    def refuse(*args):
        raise OSError("cache is read-only")

    monkeypatch.setattr(cli_module, "cache_store", refuse)
    code, out, err = run(capsys, *M2_F21, "--cache", str(tmp_path / "cache.jsonl"))
    assert (code, out, err) == (2, "", "error: cache is read-only\n")


@pytest.mark.parametrize("field, value", [
    ("status", "budget_exhausted"),
    ("command", "star"),
    ("lo", 99),
    ("hi", 8.0),  # equal to 8 in Python, printed as 8.0
    ("format", "fanram-report-0"),
    ("extra", 1),
])
def test_cache_search_replay_checks_the_report_header(tmp_path, capsys, field, value):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    rec["artifact"][field] = value
    cache.write_text(json.dumps(rec) + "\n")
    code, out2, err = run(capsys, *args)
    assert (code, out2) == (0, out1)
    assert "not backed by its certificate" in err
    assert len(cache.read_text().splitlines()) == 2


@pytest.mark.parametrize("field, value", [
    ("note", "an extra key"),
    ("red_witness", {"pattern_order": 4, "groups": [[0, 1], [2, 3]]}),  # a red M:2
    ("format", "fanram-certificate-0"),
])
def test_cache_search_replay_checks_every_witness_field(tmp_path, capsys, field, value):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    rec["artifact"]["witness"][field] = value
    cache.write_text(json.dumps(rec) + "\n")
    code, out2, err = run(capsys, *args)
    assert (code, out2) == (0, out1)
    assert "failed re-validation" in err
    assert len(cache.read_text().splitlines()) == 2


STATS_38 = {"nodes": 38, "red_prunes": 5, "blue_prunes": 3, "degree_prunes": 6, "iso_prunes": 12}


@pytest.mark.parametrize("stats, caps", [
    ("x", {"a": 1}),
    ({**STATS_38, "nodes": True}, None),
    ({**STATS_38, "nodes": -1}, None),
    ({**STATS_38, "nodes": 38.0}, None),
    ({k: STATS_38[k] for k in reversed(STATS_38)}, None),
    ({**STATS_38, "extra": 0}, None),
    (None, [{"red": "K2"}]),
    (None, [1]),
    (None, {"a": 1}),
])
def test_cache_search_replay_checks_stats_and_caps_shape(tmp_path, capsys, stats, caps):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    assert rec["artifact"]["stats"] == STATS_38
    if stats is not None:
        rec["artifact"]["stats"] = stats
    if caps is not None:
        rec["artifact"]["caps"] = caps
    cache.write_text(json.dumps(rec) + "\n")
    code, out2, err = run(capsys, *args)
    assert (code, out2) == (0, out1)
    assert "malformed stats or caps" in err
    assert len(cache.read_text().splitlines()) == 2


def test_cache_search_replay_prints_witness_keys_in_report_order(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    witness = rec["artifact"]["witness"]
    rec["artifact"]["witness"] = dict(reversed(witness.items()))
    cache.write_text(json.dumps(rec) + "\n")
    assert run(capsys, *args) == (0, out1, "")
    assert len(cache.read_text().splitlines()) == 1


def test_cache_subcommand_summary(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run(
        capsys,
        "ramsey", "--red", "M:2", "--blue", "F:2,1",
        "--lo", "3", "--hi", "8", "--cache", str(cache),
    )
    code, doc, _ = run_json(capsys, "cache", "--cache", str(cache))
    assert code == 0
    assert doc["records"] == 1
    assert doc["by_kind"] == {"ramsey": 1}
    assert doc["entries"][0]["value"] == 5
    assert doc["entries"][0]["tool_version"] == TOOL_VERSION
    code, _, err = run(capsys, "cache")
    assert code == 2


# These tests look the cache file up several times in one process, changing
# it in between: every lookup must see the file as it is now.

M2_F21 = ["ramsey", "--red", "M:2", "--blue", "F:2,1", "--lo", "3", "--hi", "8"]


def test_cache_sees_an_edit_that_keeps_the_size(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    assert run(capsys, *args)[1:] == (out1, "")  # a replay
    text = cache.read_text()
    edited = text.replace('"value":5', '"value":4', 1)
    assert edited != text and len(edited) == len(text)
    cache.write_text(edited)
    code, out2, err = run(capsys, *args)
    assert code == 0 and out2 == out1
    assert "not backed by its certificate" in err
    assert len(cache.read_text().splitlines()) == 2


def test_cache_corrupt_line_warns_on_every_lookup(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    cache.write_text("this is not json\n" + cache.read_text())
    results = [run(capsys, *args) for _ in range(3)]
    assert all(r == results[0] for r in results)
    code, out, err = results[0]
    assert code == 0 and out == out1
    assert err.startswith("warning: cache line 1 skipped:") and err.count("\n") == 1


def test_cache_finds_lines_appended_by_another_writer(tmp_path, capsys):
    cache, other = tmp_path / "cache.jsonl", tmp_path / "other.jsonl"
    run(capsys, *M2_F21, "--cache", str(cache))
    run(capsys, *M2_F21, "--cache", str(cache))
    wider = M2_F21[:-1] + ["9"]
    _, out_wider, _ = run(capsys, *wider, "--cache", str(other))
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write(other.read_text())
    code, out, err = run(capsys, *wider, "--cache", str(cache))
    assert (code, out, err) == (0, out_wider, "")
    assert len(cache.read_text().splitlines()) == 2  # replayed, not stored again


def test_cache_replays_name_their_own_files(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    files = [tmp_path / f"{name}.fr2" for name in "abc"]
    run(
        capsys,
        "construct", "--family", "lemma27",
        "--s", "2", "--t", "2", "--n", "2", "--out", str(files[0]),
    )
    for f in files[1:]:
        f.write_bytes(files[0].read_bytes())
    for f in files + files[::-1]:
        code, out, err = run(capsys, "check-free", "--file", str(f), "--cache", str(cache))
        assert (code, err) == (0, "")
        assert out == run(capsys, "check-free", "--file", str(f))[1]
    assert len(cache.read_text().splitlines()) == 1
    # editing a looked-up record does not change the next lookup
    key = ("certificate", "M:2", "F:2,2", json.loads(cache.read_text())["params"])
    cache_lookup(cache, *key).artifact["file"] = "elsewhere"
    assert cache_lookup(cache, *key).artifact["file"] == str(files[0])


def test_cache_truncated_or_replaced_file_drops_stale_records(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    run(capsys, *args)
    run(capsys, *args)
    cache.write_text("")
    assert cache_lookup(cache, "ramsey", "M:2", "F:2,1", {"lo": 3, "hi": 8}) is None
    run(capsys, *args)
    assert len(cache.read_text().splitlines()) == 1
    # a new file under the same name, holding another record
    replacement = tmp_path / "replacement.jsonl"
    run(capsys, *M2_F21[:-1], "9", "--cache", str(replacement))
    os.replace(replacement, cache)
    assert cache_lookup(cache, "ramsey", "M:2", "F:2,1", {"lo": 3, "hi": 8}) is None
    assert cache_lookup(cache, "ramsey", "M:2", "F:2,1", {"lo": 3, "hi": 9}) is not None


def test_cache_unterminated_last_line_and_undecodable_line(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    cache.write_bytes(b"\xff\xfe\n" + cache.read_bytes().rstrip(b"\n"))
    for _ in range(2):
        code, out, err = run(capsys, *args)
        # the record on the last line, which has no newline, is replayed
        assert (code, out) == (0, out1)
        assert err == (
            "warning: cache line 1 skipped: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n"
        )
    assert len(cache.read_bytes().splitlines()) == 2


def test_cache_other_tool_version_recomputes(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "ramsey", "--red", "M:2", "--blue", "F:2,1",
        "--lo", "3", "--hi", "8", "--cache", str(cache),
    ]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    rec["tool_version"] = "0.0.0"
    rec["artifact"]["value"] = 99  # a replay would print this
    cache.write_text(json.dumps(rec) + "\n")
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    # the recomputed result is stored under the current version
    lines = cache.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["tool_version"] == TOOL_VERSION
    _, doc, _ = run_json(capsys, "cache", "--cache", str(cache))
    assert [e["tool_version"] for e in doc["entries"]] == ["0.0.0", TOOL_VERSION]


def test_version_is_one_number():
    # cache records are stamped with the package version, so the three
    # places that state it must agree
    import re

    import fanram

    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        version = re.search(r'^version = "([^"]+)"$', fh.read(), re.M).group(1)
    assert version == fanram.__version__ == TOOL_VERSION


def test_cache_record_of_an_older_release_is_recomputed(tmp_path, capsys):
    # 0.1.0 searched K3 against K4 in 406 nodes; this release prints other
    # stats, so a 0.1.0 record must not be replayed
    cache = tmp_path / "cache.jsonl"
    args = ["ramsey", "--red", "K3", "--blue", "K4", "--lo", "1", "--hi", "12",
            "--cache", str(cache)]
    _, fresh, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    assert rec["artifact"]["stats"]["nodes"] == 348
    rec["tool_version"] = "0.1.0"
    rec["artifact"]["stats"]["nodes"] = 406
    cache.write_text(json.dumps(rec) + "\n")
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (0, fresh, "")
    assert json.loads(out)["stats"]["nodes"] == 348
    assert [json.loads(line)["tool_version"] for line in cache.read_text().splitlines()] == [
        "0.1.0", TOOL_VERSION
    ]


def test_star_record_of_an_older_release_is_recomputed(tmp_path, capsys):
    # 0.2.0 searched K8 whole before it extended the bases of K7 and took
    # 5,257 nodes for this star; a 0.2.0 record must not be replayed
    cache = tmp_path / "cache.jsonl"
    args = ["star", "--red", "M:3", "--blue", "F:2,2", "--r", "8", "--cache", str(cache)]
    _, fresh, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    assert rec["artifact"]["stats"]["nodes"] == 2493
    rec["tool_version"] = "0.2.0"
    rec["artifact"]["stats"]["nodes"] = 5257
    cache.write_text(json.dumps(rec) + "\n")
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (0, fresh, "")
    assert json.loads(out)["stats"]["nodes"] == 2493
    assert [json.loads(line)["tool_version"] for line in cache.read_text().splitlines()] == [
        "0.2.0", TOOL_VERSION
    ]


def test_record_from_obj_rejects_malformed_records():
    good = cache_module.record_to_obj(
        ResultRecord("ramsey", "K3", "K3", {"lo": 1, "hi": 8}, 6, {})
    )
    cases = [
        ([good], "cache record is not an object"),
        ({k: v for k, v in good.items() if k != "value"}, "cache record missing fields"),
        (dict(good, kind="census"), "unknown cache record kind 'census'"),
        (dict(good, params=[1, 8]), "cache record params/artifact must be objects"),
        (dict(good, artifact="x"), "cache record params/artifact must be objects"),
    ]
    for obj, message in cases:
        with pytest.raises(CorruptRecord) as exc:
            cache_module.record_from_obj(obj)
        assert str(exc.value).startswith(message), obj
    assert cache_module.record_from_obj(good).value == 6


# A lookup parses only the lines that can hold its key: those that begin
# with the key's compact head, and those that do not begin like a compact
# record at all.


def _other_keys(cache, count):
    for hi in range(100, 100 + count):
        cache_store(cache, ResultRecord("ramsey", "M:2", "F:2,1", {"lo": 3, "hi": hi},
                                        None, {"hi": hi}))


def _count_parses(monkeypatch):
    parsed = []
    original = cache_module.record_from_obj

    def counted(obj):
        parsed.append(obj)
        return original(obj)

    monkeypatch.setattr(cache_module, "record_from_obj", counted)
    return parsed


def test_cache_lookup_parses_only_lines_of_its_key(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _other_keys(cache, 20)
    _, out1, _ = run(capsys, *args)
    _other_keys(cache, 20)
    parsed = _count_parses(monkeypatch)
    assert run(capsys, *args)[1:] == (out1, "")
    assert [obj["params"] for obj in parsed] == [{"lo": 3, "hi": 8}]
    assert len(cache.read_text().splitlines()) == 41


def test_cache_spaced_record_is_parsed_and_revalidated(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    spaced = json.dumps(json.loads(cache.read_text()))
    assert spaced.startswith('{"kind": "ramsey", ')
    cache.write_text("")
    _other_keys(cache, 5)
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write(spaced + "\n")
    parsed = _count_parses(monkeypatch)
    checked = []
    monkeypatch.setattr(cli_module, "load_certificate",
                        lambda text: checked.append(text) or load_certificate(text))
    assert run(capsys, *args)[1:] == (out1, "")
    assert len(parsed) == len(checked) == 1


def test_cache_params_in_another_order_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    rec = json.loads(cache.read_text())
    rec["params"] = {"hi": 8, "lo": 3}
    rec["value"] = rec["artifact"]["value"] = 99
    cache.write_text(json.dumps(rec, separators=(",", ":")) + "\n")
    assert cache_lookup(cache, "ramsey", "M:2", "F:2,1", {"lo": 3, "hi": 8}) is None
    assert run(capsys, *args)[1:] == (out1, "")  # recomputed
    assert len(cache.read_text().splitlines()) == 2


def test_cache_damaged_line_of_another_key_is_skipped_silently(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = M2_F21 + ["--cache", str(cache)]
    _, out1, _ = run(capsys, *args)
    line = cache.read_text()
    other = line.replace('"hi":8', '"hi":9', 1)
    cache.write_text(other[:90] + "\n" + line)
    assert run(capsys, *args)[1:] == (out1, "")
    # a damaged line that begins with this key's head still warns
    cache.write_text(line[:90] + "\n" + line)
    code, out, err = run(capsys, *args)
    assert (code, out) == (0, out1)
    assert err.startswith("warning: cache line 1 skipped:") and err.count("\n") == 1


def test_cache_newest_match_wins_with_keys_interleaved(tmp_path):
    cache = tmp_path / "cache.jsonl"
    keys = [("ramsey", "K3", "K3", {"lo": 1, "hi": 9}), ("star", "K3", "K3", {"r": 6}),
            ("ramsey", "K3", "K3", {"lo": 1, "hi": 10})]
    for round_ in range(3):
        for key in keys:
            cache_store(cache, ResultRecord(*key, None, {"round": round_}))
    for key in keys:
        assert cache_lookup(cache, *key).artifact == {"round": 2}
    assert cache_lookup(cache, "ramsey", "K3", "K4", {"lo": 1, "hi": 9}) is None


def test_cache_lookup_parses_the_lines_a_split_would(tmp_path, capsys):
    # a lookup finds the lines it parses in place; the records and the
    # warnings, with their line numbers, are those of splitting the file,
    # whichever line ends it uses
    key = ("ramsey", "K3", "K3", {"lo": 1, "hi": 9})
    other = ("ramsey", "K3", "K3", {"lo": 1, "hi": 10})

    def line(k, n, **dumps):
        return json.dumps(record_to_obj(ResultRecord(*k, None, {"n": n})), **dumps)

    compact = {"separators": (",", ":")}
    lines = [
        line(other, 0, **compact), line(key, 1, **compact), "", line(other, 0, **compact),
        line(key, 2), "{damaged", line(other, 0, **compact)[:60], "  ",
        line(key, 0, **compact)[:100], line(other, 0, **compact), line(key, 3, **compact),
    ]
    text = "\n".join(lines)
    for body in (text, text + "\n", text.replace("\n", "\r\n"), text.replace("\n", "\r")):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(body.encode())
        records = load_records(cache, _key_head(*key))
        assert [rec.artifact for rec in records] == [{"n": 1}, {"n": 2}, {"n": 3}]
        assert capsys.readouterr().err == (
            "warning: cache line 6 skipped: Expecting property name enclosed in double"
            " quotes: line 1 column 2 (char 1)\n"
            "warning: cache line 9 skipped: Unterminated string starting at: line 1"
            " column 93 (char 92)\n"
        )
        assert cache_lookup(cache, *key).artifact == {"n": 3}
        capsys.readouterr()


# ---------------------------------------------------------------------------
# coloring files
# ---------------------------------------------------------------------------


def test_fr2_round_trip(tmp_path):
    c = thm17_construction(3, 2, 2, 2)
    path = tmp_path / "x.fr2"
    save_coloring(path, c, {"red_target": "K3", "blue_target": "2xF:2,2"})
    loaded, metadata = load_coloring(path)
    assert loaded == c
    assert metadata == {"red_target": "K3", "blue_target": "2xF:2,2"}
    assert (
        check_free(loaded, "K3", "2xF:2,2").content_hash
        == check_free(c, "K3", "2xF:2,2").content_hash
    )


def test_fr2_text_shape():
    c = thm17_construction(3, 1, 2, 1)
    text = render_coloring(c, {"k": "v"})
    lines = text.splitlines()
    assert len(lines) == 3
    assert decode(lines[0]) == c.host
    assert lines[2] == "k=v"


def test_fr2_metadata_must_fit_one_line(tmp_path):
    c = thm17_construction(3, 1, 2, 1)
    path = tmp_path / "c.fr2"
    save_coloring(path, c, {"k": "v"})
    before = path.read_bytes()
    for metadata, message in (
        ({"": "v"}, "bad metadata key ''"),
        ({"a=b": "v"}, "bad metadata key 'a=b'"),
        ({"a\nb": "v"}, "bad metadata key 'a\\nb'"),
        ({"k": "v\nw"}, "bad metadata value for 'k'"),
        # load_coloring reads with universal newlines, where \r ends a line too
        ({"k\rx": "v"}, "bad metadata key 'k\\rx'"),
        ({"note": "a\rb"}, "bad metadata value for 'note'"),
    ):
        with pytest.raises(ParseError) as exc:
            render_coloring(c, metadata)
        assert str(exc.value).startswith(message), metadata
        with pytest.raises(ParseError):
            save_coloring(path, c, metadata)
        assert path.read_bytes() == before, metadata


def test_fr2_parse_errors():
    with pytest.raises(ParseError):
        parse_coloring("D~{\n")  # missing red line
    with pytest.raises(ParseError):
        parse_coloring("D~{\nD??\nbad-line\n")
    with pytest.raises(ParseError):
        parse_coloring("D~{\nD??\n=novalue\n")


def test_fr2_red_must_fit_host():
    from fanram.errors import BadParam

    with pytest.raises(BadParam):
        parse_coloring("D??\nD~{\n")  # red edges not in empty host
