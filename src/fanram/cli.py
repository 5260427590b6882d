"""Command-line front end.

Every run prints one JSON report with fixed field order on standard output.
Exit codes: 0 found/true/valid, 1 absent/false/invalid, 2 usage or runtime
error. Reports contain nothing run-dependent (no timestamps), so identical
inputs produce identical bytes. Each command lays out its report in one
place; a cached ramsey or star report is replayed only as _search_report
rebuilds it from the record's value and re-validated witness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from functools import cache

from . import bounds, io, patterns, search
from .cache import ResultRecord, cache_lookup, cache_store, load_records, record_to_obj, warn
from .colorings import (
    Certificate,
    burr_coloring,
    certificate_obj,
    check_free,
    lemma27_construction,
    load_certificate,
    thm17_construction,
    witness_obj,
)
from .errors import CorruptRecord, FanramError, RangeError
from .graph6 import encode
from .graphs import complete
from .patterns import format_target, parse_target, pattern_graph

REPORT_FORMAT = "fanram-report-1"


def _report(command: str, **fields) -> dict:
    doc = {"format": REPORT_FORMAT, "command": command}
    doc.update(fields)
    return doc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _cap_obj(cap: search.DegreeCap) -> dict:
    return {
        "red": format_target(cap.red),
        "blue": format_target(cap.blue),
        "value": cap.value,
        "free_order": cap.free_order,
        "source": cap.source,
        "nodes": cap.nodes,
        "caps_for": [
            {"color": color, "red": format_target(red), "blue": format_target(blue)}
            for color, red, blue in cap.caps_for
        ],
    }


_STATS_KEYS = [f.name for f in fields(search.SearchStats)]
_CAP_KEYS = list(_cap_obj(search.DegreeCap(patterns.Clique(2), patterns.Clique(2), "identity")))


def _well_formed(stats, caps) -> bool:
    """Whether stored stats have SearchStats' fields, in order, as
    non-negative ints, and stored caps are a list of objects with
    _cap_obj's keys, in order."""
    return (
        isinstance(stats, dict)
        and list(stats) == _STATS_KEYS
        and all(type(v) is int and v >= 0 for v in stats.values())
        and isinstance(caps, list)
        and all(isinstance(cap, dict) and list(cap) == _CAP_KEYS for cap in caps)
    )


def _search_config(args) -> search.SearchConfig:
    cfg = search.SearchConfig()
    if getattr(args, "budget", None) is not None:
        if args.budget < 0:
            raise UsageError(f"--budget must be at least 0, got {args.budget}")
        cfg.node_budget = args.budget
    return cfg


def _cache_path(args) -> str | None:
    if getattr(args, "cache", None):
        return args.cache
    return os.environ.get("FANRAM_CACHE") or None


def _backs(kind: str, cert: Certificate, value, params: dict) -> bool:
    """Whether a re-validated witness certificate backs the search record
    holding it: a free coloring of K_{value-1} for ramsey; for star, a free
    coloring of order r whose last vertex has degree value-1 and whose other
    vertices span a complete graph."""
    if not cert.valid or type(value) is not int:
        return False
    host = cert.coloring.host
    if kind == "ramsey":
        return host.order == value - 1 and host == complete(host.order)
    r = params["r"]
    return (
        host.order == r
        and host.degree(r - 1) == value - 1
        and host.size() == (r - 1) * (r - 2) // 2 + value - 1
    )


def _fields(doc: dict) -> list:
    # types too: 8.0 == 8 in Python, but the two print differently
    return [(key, type(value), value) for key, value in doc.items()]


def _replay(path: str, kind: str, red: str, blue: str, params: dict) -> dict | None:
    """The report to print for the newest matching search record, or None.
    _search_report rebuilds it from the record's value, the certificate of
    its witness as load_certificate re-validates it, its stored stats and
    caps, and status "exact". The stored report must have the rebuilt one's
    fields, in order, with the same JSON types and values; its witness must
    name this command's targets and back the value (see _backs), and its
    stats and caps must have the shape a search prints (see _well_formed).
    Anything else warns and counts as a miss. Well-formed stats and caps are
    replayed as stored."""
    rec = cache_lookup(path, kind, red, blue, params)
    if rec is None:
        return None
    stored = rec.artifact
    if not _well_formed(stored.get("stats"), stored.get("caps")):
        warn(f"cached {kind} record has malformed stats or caps, recomputing")
        return None
    try:
        cert = load_certificate(json.dumps(stored.get("witness")))
    except CorruptRecord as exc:
        warn(f"cached record failed re-validation, recomputing: {exc}")
        return None
    doc = _search_report(kind, red, blue, params, rec.value, "exact", certificate_obj(cert),
                         stored.get("stats"), stored.get("caps"))
    if (
        _fields(stored) != _fields(doc)
        or (format_target(cert.red_target), format_target(cert.blue_target)) != (red, blue)
        or not _backs(kind, cert, rec.value, params)
    ):
        warn(f"cached {kind} record is not backed by its certificate, recomputing")
        return None
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# each family: its parameters in constructor order, its constructor, and
# its default (red, blue) targets from those parameters; a family without
# defaults certifies only when given both targets
_FAMILIES = {
    "thm17": (("m", "s", "t", "n"), thm17_construction, lambda m, s, t, n: (
        f"K{m}", format_target(patterns.copies_pattern(s, patterns.Fan(t, n))))),
    "lemma27": (("s", "t", "n"), lemma27_construction,
                lambda s, t, n: (f"M:{s}", f"F:{t},{n}")),
    "burr": (("chi", "surplus", "h_order"), burr_coloring, None),
}


def _cmd_construct(args) -> int:
    family = args.family
    names, construct, targets = _FAMILIES[family]
    params = {}
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"family {family!r} needs --{name.replace('_', '-')}")
        params[name] = getattr(args, name)
    coloring = construct(*params.values())
    red, blue = targets(*params.values()) if targets else (None, None)
    if targets is None and (args.red is None) != (args.blue is None):
        raise UsageError(f"{family} certification needs both --red and --blue")
    if args.red is not None:
        red = args.red
    if args.blue is not None:
        blue = args.blue
    metadata = {"family": family}
    metadata.update({k: str(v) for k, v in params.items()})
    cert = None
    if red is not None and blue is not None:
        cert = check_free(coloring, red, blue)
        metadata["red_target"] = format_target(cert.red_target)
        metadata["blue_target"] = format_target(cert.blue_target)
    if args.out:
        io.save_coloring(args.out, coloring, metadata)
    doc = _report(
        "construct",
        family=family,
        params=params,
        order=coloring.host.order,
        host=encode(coloring.host),
        red=encode(coloring.red_graph()),
        out=args.out,
        certificate=certificate_obj(cert) if cert else None,
    )
    _emit(doc)
    if cert is not None and not cert.valid:
        return 1
    return 0


def _cmd_check_free(args) -> int:
    coloring, metadata = io.load_coloring(args.file)
    red = metadata.get("red_target") if args.red is None else args.red
    blue = metadata.get("blue_target") if args.blue is None else args.blue
    if red is None or blue is None:
        raise UsageError(
            "no targets: pass --red/--blue or use a file with target metadata"
        )
    cert = check_free(coloring, red, blue)
    doc = _report("check-free", file=args.file, certificate=certificate_obj(cert))
    cache_file = _cache_path(args)
    if cache_file:
        _store_certificate(cache_file, doc)
    _emit(doc)
    return 0 if cert.valid else 1


def _store_certificate(path: str, doc: dict) -> None:
    """Append a check-free report unless the newest record of its key (the
    coloring and targets) already equals it apart from the file checked.
    Records are never replayed: a check costs what re-validating one would."""
    payload = doc["certificate"]
    red, blue = payload["red_target"], payload["blue_target"]
    params = {"host": payload["host"], "red": payload["red"]}
    rec = cache_lookup(path, "certificate", red, blue, params)
    if rec is not None:
        if {**rec.artifact, "file": doc["file"]} == doc:
            return
        warn("cached record failed re-validation, storing this check")
    cache_store(path, ResultRecord("certificate", red, blue, params, None, doc))


def _cmd_detect(args) -> int:
    g = pattern_graph(parse_target(args.graph))
    target = patterns.normalize_pattern(args.target)
    w = patterns.contains_target(g, target)
    doc = _report(
        "detect",
        graph=encode(g),
        target=format_target(target),
        found=w is not None,
        witness=witness_obj(w),
    )
    _emit(doc)
    return 0 if w is not None else 1


def _cmd_bound(args) -> int:
    if args.kind == "formula":
        if not args.formula:
            raise UsageError("bound --kind formula needs --formula")
        params = {}
        for name in ("m", "s", "t", "n", "base"):
            value = getattr(args, name)
            if value is not None:
                params[name] = value
        rep = bounds.closed_formula(args.formula, params)
    else:
        if not args.g or not args.h:
            raise UsageError(f"bound --kind {args.kind} needs --g and --h")
        g = pattern_graph(parse_target(args.g))
        h = pattern_graph(parse_target(args.h))
        if args.kind == "burr":
            rep = bounds.burr_bound(g, h)
        else:
            rep = bounds.star_lower_bound(g, h)
    doc = _report("bound", kind=args.kind, report=asdict(rep))
    _emit(doc)
    return 0 if rep.validity.satisfied else 1


def _search_report(
    command: str, red: str, blue: str, params: dict,
    value, status: str, witness, stats, caps,
) -> dict:
    """A ramsey or star report, as a search prints it and a replay rebuilds
    it: the witness is a certificate object or None, stats and caps JSON
    objects."""
    return _report(
        command, red=red, blue=blue, **params,
        value=value, status=status, witness=witness, stats=stats, caps=caps,
    )


def _cmd_search(args) -> int:
    """ramsey and star: replay a cached exact value backed by its witness,
    or search, print the result and cache it when it can be replayed."""
    cfg = _search_config(args)
    command = args.subcommand
    # looked up on the module at run time, so a patched search is called
    if command == "ramsey":
        params, runner = {"lo": args.lo, "hi": args.hi}, search.ramsey_number
    else:
        params, runner = {"r": args.r}, search.star_critical
    red_t = patterns.normalize_pattern(args.red)
    blue_t = patterns.normalize_pattern(args.blue)
    red, blue = format_target(red_t), format_target(blue_t)
    cache_file = _cache_path(args)
    if cache_file:
        doc = _replay(cache_file, command, red, blue, params)
        if doc is not None:
            _emit(doc)
            return 0
    try:
        result = runner(red_t, blue_t, *params.values(), cfg)
    except RangeError as exc:
        _emit(_report(command, red=red, blue=blue, **params, value=None,
                      status="no_value_in_range", error=str(exc)))
        return 1
    witness = None
    if result.witness is not None:
        witness = certificate_obj(check_free(result.witness, red, blue))
    doc = _search_report(command, red, blue, params, result.value, result.status, witness,
                         asdict(result.stats), [_cap_obj(cap) for cap in result.caps])
    # a value without a witness (r = 1, or a star value of 0) could never
    # pass _backs on replay, so it is not stored
    if cache_file and result.status == "exact" and witness is not None:
        cache_store(cache_file, ResultRecord(command, red, blue, params, result.value, doc))
    _emit(doc)
    # a search ends exact, with a value, or with its budget exhausted
    return 0 if result.status == "exact" else 2


def _cmd_packing_check(args) -> int:
    rep = search.packing_property_check(args.t, args.n, args.trials, args.seed)
    _emit(_report("packing-check", **asdict(rep), ok=rep.ok))
    return 0 if rep.ok else 1


def _cmd_cache(args) -> int:
    path = _cache_path(args)
    if not path:
        raise UsageError("no cache file: pass --cache or set FANRAM_CACHE")
    records = load_records(path)
    by_kind: dict[str, int] = {}
    entries = []
    for rec in records:
        by_kind[rec.kind] = by_kind.get(rec.kind, 0) + 1
        entries.append(
            {k: v for k, v in record_to_obj(rec).items() if k not in ("artifact", "timestamp")}
        )
    doc = _report(
        "cache", path=path, records=len(records), by_kind=by_kind, entries=entries
    )
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


def _add_cache_flag(p) -> None:
    p.add_argument("--cache", help="result cache file (or FANRAM_CACHE env)")


def _add_search_flags(p) -> None:
    p.add_argument("--red", required=True, help="red target (grammar: K3, F:2,1, M:2, 2xF:2,2, G6:...)")
    p.add_argument("--blue", required=True, help="blue target")
    p.add_argument("--budget", type=int, help="DFS node budget")
    _add_cache_flag(p)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was."""
    parser = argparse.ArgumentParser(
        prog="fanram",
        description="Certify and search Ramsey and star-critical Ramsey numbers "
        "of cliques, matchings, and fans.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build a named extremal coloring")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--chi", type=int)
    p.add_argument("--surplus", type=int)
    p.add_argument("--h-order", dest="h_order", type=int)
    p.add_argument("--red", help="red target to certify against (defaults per family)")
    p.add_argument("--blue", help="blue target to certify against")
    p.add_argument("--out", help="write the coloring to this .fr2 file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check-free", help="certify a coloring file against a target pair")
    p.add_argument("--file", required=True, help=".fr2 coloring file")
    p.add_argument("--red", help="red target (default: file metadata)")
    p.add_argument("--blue", help="blue target (default: file metadata)")
    _add_cache_flag(p)
    p.set_defaults(func=_cmd_check_free)

    p = sub.add_parser("detect", help="look for a target pattern in a graph")
    p.add_argument("--graph", required=True, help="graph in target grammar (e.g. G6:D~{ or K5)")
    p.add_argument("--target", required=True, help="pattern in target grammar")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("bound", help="evaluate a closed formula or structural bound")
    p.add_argument("--kind", choices=("formula", "burr", "star"), default="formula")
    p.add_argument("--formula", help="formula id (see docs) for --kind formula")
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--base", type=int, help="base Ramsey value for formulas that take one")
    p.add_argument("--g", help="first graph (target grammar) for structural bounds")
    p.add_argument("--h", help="second graph (target grammar) for structural bounds")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("ramsey", help="exact Ramsey number by exhaustive search")
    _add_search_flags(p)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("star", help="exact star-critical Ramsey number")
    _add_search_flags(p)
    p.add_argument("--r", type=int, required=True, help="the exact Ramsey number of the pair")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("packing-check", help="randomized clique-packing property harness")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_packing_check)

    p = sub.add_parser("cache", help="summarize a result cache file")
    _add_cache_flag(p)
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, FanramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
