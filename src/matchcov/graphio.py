"""Text formats: graph6 for simple graphs, .mg for multigraphs.

.mg is a plain edge list: a header line "n m" followed by m lines "u v"
with 0-based vertex ids; parallel edges are repeated lines. graph6 follows
the standard 6-bit packing of the upper triangle in column-major order,
with strict length and padding validation.
"""
from __future__ import annotations

from itertools import groupby

from .errors import MalformedGraph6Error, NotSimpleError, ParseError
from .multigraph import Multigraph


def _g6_size(text: str) -> tuple[int, int]:
    """(n, index of first payload char)."""
    if not text:
        raise MalformedGraph6Error("empty graph6 string")
    if text.startswith("~~"):
        return _g6_size_field(text[2:8], 6, 258048), 8
    if text.startswith("~"):
        return _g6_size_field(text[1:4], 3, 63), 4
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise MalformedGraph6Error(f"size character {text[0]!r} out of range")
    return n, 1


def _g6_size_field(field: str, width: int, least: int) -> int:
    """The size spelled by the `width` characters after a `~` or `~~`,
    6 bits each, high bits first. A size below `least` fits a shorter
    header, so spelling it this way is malformed."""
    if len(field) < width:
        raise MalformedGraph6Error("truncated size header")
    n = 0
    for ch in field:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise MalformedGraph6Error("size characters out of range")
        n = n << 6 | v
    if n < least:
        raise MalformedGraph6Error(f"size {n} below {least} in a {width}-character size field")
    return n


def decode_graph6(text: str) -> Multigraph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    n, start = _g6_size(text)
    nbits = n * (n - 1) // 2
    payload = text[start:]
    expected = (nbits + 5) // 6
    if len(payload) != expected:
        raise MalformedGraph6Error(
            f"payload length {len(payload)}, expected {expected} for n={n}"
        )
    bits = []
    for ch in payload:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise MalformedGraph6Error(f"payload character {ch!r} out of range")
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    if any(bits[nbits:]):
        raise MalformedGraph6Error("nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Multigraph(n, edges)


def encode_graph6(g: Multigraph) -> str:
    if not g.is_simple():
        raise NotSimpleError("graph6 encodes simple graphs only")
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise MalformedGraph6Error("graph too large for graph6")
    present = set(g.edges)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = (v << 1) | b
        chars.append(chr(v + 63))
    return head + "".join(chars)


def parse_mg(text: str) -> Multigraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty .mg input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"non-integer edge line {ln!r}") from exc
    return Multigraph(n, edges)


def format_mg(g: Multigraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _is_mg_header(line: str) -> bool:
    """A two-integer line opens a .mg graph; any other line is graph6."""
    first = line.split()
    return len(first) == 2 and all(p.lstrip("-").isdigit() for p in first)


def parse_graph_text(text: str) -> Multigraph:
    """Sniff .mg versus graph6 by the first line."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty graph input")
    if _is_mg_header(stripped.splitlines()[0]):
        return parse_mg(text)
    try:
        return decode_graph6(stripped.splitlines()[0])
    except MalformedGraph6Error as exc:
        raise ParseError(f"input is neither .mg nor graph6: {exc}") from exc


def parse_corpus_text(text: str) -> list[Multigraph]:
    """Graph records: .mg blocks separated by lines that are blank or hold
    only whitespace, or one graph6 string per line. Blocks are sniffed
    independently."""
    graphs: list[Multigraph] = []
    for filled, lines in groupby(text.splitlines(), key=lambda line: bool(line.strip())):
        if not filled:
            continue
        block = list(lines)
        if _is_mg_header(block[0]):
            graphs.append(parse_mg("\n".join(block)))
        else:
            graphs.extend(parse_graph_text(line) for line in block)
    if not graphs:
        raise ParseError("corpus contains no graphs")
    return graphs
