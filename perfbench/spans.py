"""In-memory spans around hypercut's public functions, installed from outside.

The package binds names with ``from .x import f``, so a function can be
reached through several module namespaces.  ``Tracer.installed`` replaces
every binding of each target in every loaded ``hypercut`` module with one
timing wrapper and restores the originals on exit.  Calls made through a
wrapper record a span (name, start, end, parent, thread); nested calls,
recursive ``solve`` included, become child spans.  A few wrappers also
record counts computed from the call's arguments or result.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

#: Wrapped functions, ``<module>.<function>``.
TARGETS = (
    "core.clique_expand",
    "core.degree_profile",
    "core.induce",
    "cutspace.cut_metrics",
    "cutspace.partial_average_excess",
    "cutspace.partial_average_size",
    "derand.conditional_rcut",
    "derand.combine_partial_cuts",
    "derand.erdos_selfridge_2cut",
    "derand.order_for_W",
    "derand.greedy_on_adjacency",
    "derand.greedy_order_cut",
    "derand.flip_local_search",
    "derand.point_local_search",
    "reductions.hpart_double",
    "reductions.weighted_reduce",
    "reductions.hpart_expose",
    "reductions.exposure_average_excess",
    "reductions.lift_2cut_to_3cut",
    "reductions.dense_subset_cut",
    "reductions.expand_3graph",
    "reductions.rgraph_expand",
    "reductions.weighted_identity_check",
    "pipeline.solve",
    "pipeline.codegree_structure",
    "pipeline.goodness_audit",
    "pipeline.good_partition_search",
    "pipeline.chromatic_cut",
    "pipeline.conditioned_matching_cut",
    "pipeline.driver_3cut",
    "pipeline.driver_2cut",
    "instances.generate",
    "hgio.parse",
    "hgio.serialize",
    "cli.experiment_sweep",
    "cli.run_report",
)

#: Constructors whose returned ``Reduction.back_map`` is timed as its own span.
BACK_MAP_OWNERS = {
    "reductions.expand_3graph",
    "reductions.rgraph_expand",
    "reductions.hpart_expose",
    "reductions.hpart_double",
}
BACK_MAP = "reductions.back_map"


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "error", "attrs")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.error = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _before(span: Span, args) -> None:
    """Counts taken from the arguments, before the call runs."""
    name = span.name
    if name == "derand.conditional_rcut":
        h, r = args[0], args[1]
        span.attrs["prob_evals"] = r * sum(len(e) for e in h.edges)
    elif name == "derand.combine_partial_cuts":
        h, parts = args[0], args[1]
        span.attrs["part_scans"] = len(parts) * h.m
    elif name == "pipeline.good_partition_search":
        span.attrs["_instance"] = id(args[0])
    elif name == "pipeline.goodness_audit":
        # A sample is the first audit of a freshly drawn partition, made on
        # the search's own instance; the re-audit after edge deletion is not.
        p = span.parent
        if p is not None and p.name == "pipeline.good_partition_search":
            span.attrs["sample"] = int(id(args[0]) == p.attrs["_instance"])


class Tracer:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            _before(span, args)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)
            if name == "reductions.hpart_double":
                span.attrs["accepted"] = int(result.conditional_size >= result.base_size)
            if name in BACK_MAP_OWNERS:
                result.back_map = self.wrap(BACK_MAP, result.back_map)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Bind a wrapper in place of every target in every hypercut module."""
        modules = [m for k, m in sys.modules.items() if k == "hypercut" or k.startswith("hypercut.")]
        replaced = []
        try:
            for target in TARGETS:
                modname, fname = target.split(".")
                original = getattr(sys.modules[f"hypercut.{modname}"], fname)
                wrapper = self.wrap(target, original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        replaced.append((mod, fname, original))
            yield self
        finally:
            for mod, fname, original in reversed(replaced):
                setattr(mod, fname, original)

    def take(self) -> list[Span]:
        """Spans recorded so far, in completion order; the buffer is emptied."""
        out = self.spans[:]
        self.spans.clear()
        return out


def _has_ancestor(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def layer_stats(spans: list[Span]) -> dict:
    """Per-name calls, inclusive ``total_s`` and ``self_s``, plus span counts.

    ``total_s`` sums only the outermost span of each name, so recursive
    ``solve`` calls are not counted twice; ``self_s`` is a span's duration
    minus that of its direct children.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
    stats: dict[str, dict] = {}
    for s in spans:
        st = stats.setdefault(
            s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
        )
        st["calls"] += 1
        st["self_s"] += s.duration - child_time.get(id(s), 0.0)
        if not _has_ancestor(s, (s.name,)):
            st["total_s"] += s.duration
        if s.error is not None:
            st["errors"] += 1
        for key, value in s.attrs.items():
            if not key.startswith("_"):
                st[key] = st.get(key, 0) + value
    # certificate checks that ran inside a solve, for the certificate share
    stats["certificates_in_solve"] = {
        "total_s": sum(
            s.duration
            for s in spans
            if s.name in ("reductions.weighted_identity_check", BACK_MAP)
            and _has_ancestor(s, ("pipeline.solve",))
        )
    }
    return stats


def write_spans(path: str, passes: list[list[Span]]) -> None:
    """One JSON line per span; ``parent`` indexes the same pass's lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            index = {id(s): i for i, s in enumerate(spans)}
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "pass": number,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": index.get(id(s.parent)),
                            "thread": s.thread,
                            "error": s.error,
                        }
                    )
                    + "\n"
                )
