"""Coloring files (".fr2"): line 1 host graph6, line 2 red subgraph graph6 on
the same vertex ordering, remaining lines optional key=value metadata."""

from __future__ import annotations

import os

from .colorings import TwoColoring
from .errors import ParseError
from .graph6 import decode, encode


def render_coloring(coloring: TwoColoring, metadata: dict[str, str] | None = None) -> str:
    lines = [encode(coloring.host), encode(coloring.red_graph())]
    for key, value in (metadata or {}).items():
        if not key or "=" in key or "\n" in key:
            raise ParseError(f"bad metadata key {key!r}", 0)
        if "\n" in value:
            raise ParseError(f"bad metadata value for {key!r}", 0)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> tuple[TwoColoring, dict[str, str]]:
    lines = text.split("\n")
    # allow exactly one trailing newline
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise ParseError("coloring file needs a host line and a red line", 1)
    host = decode(lines[0])
    red = decode(lines[1])
    metadata: dict[str, str] = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if "=" not in line:
            raise ParseError(f"metadata line without '=': {line!r}", lineno)
        key, _, value = line.partition("=")
        if not key:
            raise ParseError("metadata line with empty key", lineno)
        metadata[key] = value
    return TwoColoring(host, red), metadata


def save_coloring(
    path: str | os.PathLike,
    coloring: TwoColoring,
    metadata: dict[str, str] | None = None,
) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_coloring(coloring, metadata))


def load_coloring(path: str | os.PathLike) -> tuple[TwoColoring, dict[str, str]]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # one read() decodes the whole file at once, so start is a file offset
        raise ParseError(
            f"non-ASCII byte {exc.object[exc.start]:#04x} in coloring file", exc.start
        ) from None
    return parse_coloring(text)
