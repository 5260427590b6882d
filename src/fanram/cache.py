"""Append-only result cache: one JSON object per line, newest match wins.

A cache hit is advisory only. Lookups skip records written by another tool
version; anything unreadable is skipped with a warning so a damaged file
degrades to a miss, never to a wrong answer. The command line replays only
search records: it re-validates the witness certificate, rebuilds the
report from the record's value and that certificate, and requires the
stored report to equal it field by field. A check-free report is stored
only when the newest record of its key differs, and is never replayed:
re-validating one would cost the check itself.

Records are stored compactly with their key fields first, so a lookup
skips, unparsed and uncopied, every line that starts like a compact record
of another key (see load_records); a damaged line of another key is skipped
silently.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Iterator

from . import __version__ as TOOL_VERSION
from .errors import CorruptRecord


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


_FIELDS = tuple(f.name for f in fields(ResultRecord))


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


def warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# how cache_store begins every line
_COMPACT_START = b'{"kind":"'


def _key_head(kind: str, red_target: str, blue_target: str, params: dict) -> bytes:
    """The bytes cache_store writes before the value of a record with this
    key: the compact JSON of the key fields, still open for the next one."""
    key = {"kind": kind, "red_target": red_target, "blue_target": blue_target,
           "params": params}
    return json.dumps(key, separators=(",", ":")).encode()[:-1] + b","


def load_records(
    path: str | os.PathLike, head: bytes | None = None
) -> list[ResultRecord]:
    """All readable records in file order; corrupt lines, undecodable ones
    included, warn and are skipped.

    With a head (see _key_head), a line that starts like a compact record
    but not with head holds another key, and is skipped unparsed and
    without a warning. Every other line, spaced or damaged ones included,
    is parsed as without a head."""
    records: list[ResultRecord] = []
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return records
    for lineno, raw in _lines(data, head):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                records.append(record_from_obj(json.loads(line)))
        except (UnicodeDecodeError, json.JSONDecodeError, CorruptRecord) as exc:
            warn(f"cache line {lineno} skipped: {exc}")
    return records


def _lines(data: bytes, head: bytes | None) -> Iterator[tuple[int, bytes]]:
    """The number and bytes of every line of data that load_records parses,
    split where bytes.splitlines splits: at \n, \r\n and \r. Each line is
    found by bytes.find and tested in place, so a line of another key is
    never copied out of data."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start, lineno, size = 0, 1, len(data)
    while start < size:
        end = data.find(b"\n", start)
        if end < 0:
            end = size
        if not head or data.startswith(head, start) or not data.startswith(_COMPACT_START, start):
            yield lineno, data[start:end]
        start = end + 1
        lineno += 1


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
    Records written by another version are never replayed. Only lines that
    can hold the key are parsed: those that begin with its compact head, as
    cache_store writes it with params in the caller's order, and those that
    do not begin like a compact record at all."""
    probe = json.dumps(params, sort_keys=True)
    best: ResultRecord | None = None
    for rec in load_records(path, _key_head(kind, red_target, blue_target, params)):
        if (rec.kind, rec.red_target, rec.blue_target, rec.tool_version) == (
            kind, red_target, blue_target, TOOL_VERSION
        ):
            if json.dumps(rec.params, sort_keys=True) == probe:
                best = rec
    return best
