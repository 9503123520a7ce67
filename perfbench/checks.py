"""Output checks that do not reuse the code they audit, and result digests.

Cut sizes are recounted with a plain loop and expectations rebuilt from
Stirling numbers, S(k,r)·r!/r^k per edge of size k (0 when k < r);
``cut_metrics`` and the ledger must agree with both.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

FINAL_CLAIM = "best-of selection with local moves"


def _stirling2(k: int, r: int) -> int:
    """Surjections of a k-set onto r labels, divided by r!, by inclusion-exclusion."""
    onto = sum((-1) ** j * math.comb(r, j) * (r - j) ** k for j in range(r + 1))
    return onto // math.factorial(r)


def expected_size(edges, r: int) -> Fraction:
    total = Fraction(0)
    for e in edges:
        k = len(e)
        if k >= r:
            total += Fraction(_stirling2(k, r) * math.factorial(r), r**k)
    return total


def recount_size(edges, assignment, r: int) -> int:
    size = 0
    for e in edges:
        seen = set()
        for v in e:
            seen.add(assignment[v])
        if len(seen) == r:
            size += 1
    return size


def cut_problems(cut_metrics, h, r: int, cut, ledger) -> tuple[list[str], Fraction]:
    """Why a returned (cut, ledger) is wrong, empty when it checks out, and
    the recounted excess."""
    if cut.r != r or len(cut.assignment) != h.n_vertices:
        return [f"cut shape r={cut.r} n={len(cut.assignment)} does not fit the instance"], Fraction(0)
    problems = []
    size = recount_size(h.edges, cut.assignment, r)
    expected = expected_size(h.edges, r)
    excess = size - expected
    metrics = cut_metrics(h, cut)
    if (metrics.size, metrics.expected, metrics.excess) != (size, expected, excess):
        problems.append(
            f"cut_metrics {metrics.size}/{metrics.expected} != recount {size}/{expected}"
        )
    last = ledger.entries[-1] if ledger.entries else None
    if last is None or last.claim != FINAL_CLAIM or last.realized != excess:
        problems.append(f"final ledger entry does not realize the excess {excess}")
    bad = [e.claim for e in ledger.entries if e.status == "VIOLATED"]
    if bad:
        problems.append(f"violated ledger entries: {bad}")
    return problems, excess


def row_problems(row: dict, h, cut, ledger) -> list[str]:
    """Check one sweep CSV row against its instance and the returned cut."""
    r = int(row["r"])
    size = recount_size(h.edges, cut.assignment, r)
    expected = expected_size(h.edges, r)
    promises = [
        e.promised
        for e in ledger.entries
        if e.deterministic and e.promised is not None and e.scope == "instance"
    ]
    want = {
        "m": str(h.m),
        "size": str(size),
        "expected": str(expected),
        "excess": str(size - expected),
        "guarantee": str(max(promises)) if promises else "",
    }
    problems = [f"{k}={row[k]} != {v}" for k, v in want.items() if row[k] != v]
    bad = [e.claim for e in ledger.entries if e.status == "VIOLATED"]
    if bad:
        problems.append(f"violated ledger entries: {bad}")
    return problems


def round_trip_problems(hgio, h) -> list[str]:
    text = hgio.serialize(h)
    back = hgio.parse(text)
    if back != h or hgio.serialize(back) != text:
        return ["hgio round trip is not exact"]
    return []


def solve_digest(results) -> str:
    """sha256 over instance ids, cut assignments and ledger entries."""
    d = hashlib.sha256()
    for inst_id, cut, ledger in results:
        d.update(f"{inst_id}|{cut.r}|{','.join(map(str, cut.assignment))}\n".encode())
        for e in ledger.entries:
            d.update(f"{e.claim}|{e.promised}|{e.realized}|{e.status}\n".encode())
    return d.hexdigest()


def csv_digest(columns, rows) -> str:
    """sha256 of the sweep CSV with the ``runtime_ms`` column left out."""
    kept = [c for c in columns if c != "runtime_ms"]
    lines = [",".join(kept)] + [",".join(row[c] for c in kept) for row in rows]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
