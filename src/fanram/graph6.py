"""graph6 codec.

Standard single-byte order prefix for order <= 62, the '~'-prefixed long form
for 63..128. Adjacency bits run over the upper triangle in column-major order:
for each column j = 1..n-1, rows i = 0..j-1.
"""

from __future__ import annotations

import base64
import re

from .errors import OrderCap, ParseError
from .graphs import MAX_ORDER, Graph, transpose

_HEADER = ">>graph6<<"
_BAD_CHAR = re.compile(r"[^?-~]")
# base64 packs 6 bits per character, as graph6 does, from another alphabet
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_B64 = bytes.maketrans(_B64, bytes(range(63, 127)))
_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64)


def encode(g: Graph) -> str:
    n = g.order
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12 & 63) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    # column j of the upper triangle is row j below the diagonal, bit 0 first
    width = f"0{n}b"
    body = "".join(format(row, width)[:~j:-1] for j, row in enumerate(g.rows) if j)
    chars = -(-len(body) // 6)
    body += "0" * (-len(body) % 24)
    packed = int(body or "0", 2).to_bytes(len(body) // 8, "big")
    out.append(base64.b64encode(packed).translate(_FROM_B64)[:chars].decode())
    return "".join(out)


def decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise ParseError("empty graph6 string", 0)
    bad = _BAD_CHAR.search(s)
    if bad:
        raise ParseError(f"invalid graph6 character {bad.group()!r}", bad.start())
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise OrderCap("eight-byte graph6 orders exceed the 128-vertex cap")
        if len(s) < 4:
            raise ParseError("truncated long-form order", len(s))
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    if n > MAX_ORDER:
        raise OrderCap(f"graph6 order {n} exceeds {MAX_ORDER}")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {(need + 5) // 6}",
            len(s),
        )
    digits = body.encode().translate(_TO_B64)
    packed = base64.b64decode(digits + b"A" * (-len(digits) % 4))
    flat = format(int.from_bytes(packed, "big"), f"0{len(packed) * 8}b")
    pad = flat.find("1", need)
    if pad >= 0:
        raise ParseError("nonzero padding bits", pad // 6)
    # column j is row j below the diagonal; the transpose fills the rest
    lower = [int(flat[j * (j - 1) // 2:j * (j + 1) // 2][::-1] or "0", 2) for j in range(n)]
    return Graph(n, tuple(a | b for a, b in zip(lower, transpose(lower))))
