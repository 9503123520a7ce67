"""Pins ``hypercut cut`` output for every ``--algo`` on a small corpus.

Each run cuts one corpus instance at one r in 2..min(k, 5) with
``--trials 8 --seed 3``; every printed line but ``runtime_ms`` is kept,
and a failed run keeps its error line.  Together the runs reach every
ledger claim the package writes.  After a change that is meant to move
the output, regenerate the expected file with

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypercut.cli import main
from hypercut.core import build
from hypercut.hgio import serialize
from hypercut.instances import GenSpec, generate

EXPECTED = Path(__file__).with_name("cli_snapshot.txt")

#: (name, instance), each cut at every r from 2 to min(k, 5)
CORPUS = [
    ("sts-9", generate(GenSpec(family="sts", n=9))),
    ("sts-13", generate(GenSpec(family="sts", n=13))),
    ("linear-60-k4", generate(GenSpec(family="linear-random", n=60, k=4, m_target=120, seed=1))),
    ("linear-60-k5", generate(GenSpec(family="linear-random", n=60, k=5, m_target=120, seed=1))),
    ("random-30-k5", generate(GenSpec(family="random", n=30, k=5, p=0.045, seed=0))),
    ("matching-12-k3", generate(GenSpec(family="matching", n=12, k=3))),
    ("random-14-k3", generate(GenSpec(family="random", n=14, k=3, p=0.3, seed=1))),
    ("random-10-k2", generate(GenSpec(family="random", n=10, k=2, p=0.3, seed=0))),
    ("two-9-edges", build(9, [list(range(9))] * 2)),
]

ALGOS = ("auto", "es", "greedy", "chromatic", "pipeline")


def corpus_runs():
    """(name, instance, r) for every corpus instance and every r it is cut at."""
    for name, h in CORPUS:
        for r in range(2, min(h.max_arity, 5) + 1):
            yield name, h, r


def snapshot() -> str:
    """Every run's command, its output but ``runtime_ms``, its errors and its exit code."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, h, r in corpus_runs():
            path = Path(tmp) / f"{name}.hg"
            path.write_text(serialize(h))
            for algo in ALGOS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["cut", str(path), "--r", str(r), "--algo", algo,
                                 "--trials", "8", "--seed", "3"])
                lines.append(f"$ hypercut cut {name} --r {r} --algo {algo} --trials 8 --seed 3")
                lines += [ln for ln in out.getvalue().splitlines() if not ln.startswith("runtime_ms=")]
                lines += err.getvalue().splitlines()
                lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


def test_cut_output_matches_the_snapshot():
    assert snapshot() == EXPECTED.read_text()


if __name__ == "__main__":
    EXPECTED.write_text(snapshot())
    print(f"wrote {EXPECTED}")
