"""Text instance format.

Header ``hg 1 <k> <n> <m>`` followed by one line of space-separated
0-based vertex ids per edge.  Lines starting with ``#`` are comments.
Round-trips are bit-exact, including a declared arity above the largest
realized edge.
"""

from __future__ import annotations

from .core import Hypergraph, build
from .errors import InvalidParams


def serialize(h: Hypergraph) -> str:
    lines = [f"hg 1 {h.max_arity} {h.n_vertices} {h.m}"]
    for e in h.edges:
        lines.append(" ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def parse(text: str) -> Hypergraph:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise InvalidParams("empty instance file")
    head = rows[0].split()
    if len(head) != 5 or head[0] != "hg" or head[1] != "1":
        raise InvalidParams(f"bad header {rows[0]!r}; expected 'hg 1 <k> <n> <m>'")
    try:
        k, n, m = (int(x) for x in head[2:])
    except ValueError as exc:
        raise InvalidParams(f"non-integer header field in {rows[0]!r}") from exc
    body = rows[1:]
    if len(body) != m:
        raise InvalidParams(f"header promises {m} edges, file has {len(body)}")
    edges = []
    for ln in body:
        try:
            edges.append([int(x) for x in ln.split()])
        except ValueError as exc:
            raise InvalidParams(f"non-integer vertex id in line {ln!r}") from exc
    return build(n, edges, max_arity=k)


def load(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
