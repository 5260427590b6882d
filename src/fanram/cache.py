"""Append-only result cache: one JSON object per line, newest match wins.

A cache hit is advisory only. Lookups skip records written by another tool
version, and embedded certificates are re-validated before a record is
trusted; anything unreadable is skipped with a warning so a damaged file
degrades to a miss, never to a wrong answer.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field

from .errors import CorruptRecord

TOOL_VERSION = "0.1.0"


@dataclass
class ResultRecord:
    kind: str  # "ramsey" | "star" | "certificate"
    red_target: str
    blue_target: str
    params: dict
    value: int | None
    artifact: dict
    tool_version: str = TOOL_VERSION
    timestamp: float = field(default_factory=time.time)


_FIELDS = (
    "kind",
    "red_target",
    "blue_target",
    "params",
    "value",
    "artifact",
    "tool_version",
    "timestamp",
)


def record_to_obj(rec: ResultRecord) -> dict:
    return {name: getattr(rec, name) for name in _FIELDS}


def record_from_obj(obj) -> ResultRecord:
    if not isinstance(obj, dict):
        raise CorruptRecord("cache record is not an object")
    try:
        rec = ResultRecord(**{name: obj[name] for name in _FIELDS})
    except (KeyError, TypeError) as exc:
        raise CorruptRecord(f"cache record missing fields: {exc}") from exc
    if rec.kind not in ("ramsey", "star", "certificate"):
        raise CorruptRecord(f"unknown cache record kind {rec.kind!r}")
    if not isinstance(rec.params, dict) or not isinstance(rec.artifact, dict):
        raise CorruptRecord("cache record params/artifact must be objects")
    return rec


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def load_records(path: str | os.PathLike) -> list[ResultRecord]:
    """All readable records in file order; corrupt lines, undecodable ones
    included, warn and are skipped."""
    records: list[ResultRecord] = []
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return records
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                records.append(record_from_obj(json.loads(line)))
        except (UnicodeDecodeError, json.JSONDecodeError, CorruptRecord) as exc:
            _warn(f"cache line {lineno} skipped: {exc}")
    return records


def cache_store(path: str | os.PathLike, rec: ResultRecord) -> None:
    line = json.dumps(record_to_obj(rec), separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def cache_lookup(
    path: str | os.PathLike,
    kind: str,
    red_target: str,
    blue_target: str,
    params: dict,
) -> ResultRecord | None:
    """Newest record of this tool version matching the full key, or None.
    Records written by another version are never replayed."""
    probe = json.dumps(params, sort_keys=True)
    best: ResultRecord | None = None
    for rec in load_records(path):
        if (rec.kind, rec.red_target, rec.blue_target, rec.tool_version) == (
            kind, red_target, blue_target, TOOL_VERSION
        ):
            if json.dumps(rec.params, sort_keys=True) == probe:
                best = rec
    return best
