"""Every function the benchmark's tracer wraps is a callable of ``hypercut``.

``perfbench/spans.py`` names its targets ``<module>.<function>``, and
``Tracer.installed`` reads each one with ``getattr`` and no default, so a
renamed or deleted function would otherwise fail only a traced benchmark
run.  The names are read from the file's source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
LISTS = ("TARGETS", "BACK_MAP_OWNERS")


def span_lists() -> dict[str, list[str]]:
    found = {}
    for node in ast.parse(SPANS.read_text()).body:
        for target in node.targets if isinstance(node, ast.Assign) else ():
            if isinstance(target, ast.Name) and target.id in LISTS:
                found[target.id] = sorted(ast.literal_eval(node.value))
    return found


def test_spans_define_both_lists():
    found = span_lists()
    assert sorted(found) == sorted(LISTS)
    assert all(found.values())


@pytest.mark.parametrize("target", sorted({t for names in span_lists().values() for t in names}))
def test_span_target_is_a_hypercut_callable(target):
    module, _, name = target.partition(".")
    assert callable(getattr(importlib.import_module(f"hypercut.{module}"), name, None))
