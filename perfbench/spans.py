"""Span tracer that wraps arcroots' public functions from outside the package.

`Tracer.install` replaces every traced function in each arcroots module
namespace that holds it (a `from .roots import mutate_seed` is its own
binding, so patching only the defining module would miss callers), the
`ExchangeMatrix.mutate` method on its class, and the values of
`explore.CHECKS`.  The package source is never edited.

A span is one call of a wrapped function, or one resume of a wrapped
generator.  Its self time is its duration minus the part its child spans
cover.  Aggregates per span name cover every span; raw span records are
kept in memory up to a cap and written out with the aggregates at the end
of the run.

Leaf helpers called once per vector entry or per pair of reflections are
not wrapped: a wrapper would cost more than their body and multiply the
run time.  Their time is part of their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("quiver", "words", "roots", "arcs", "embedding", "explore", "cli")

LEAVES = {
    "roots": {"inner", "reflect", "root_sign", "positive_form", "unit_vector"},
    "words": {
        "reduce_word", "inv", "generator", "precedes", "comparable",
        "vertex_path", "node_path", "separates",
    },
    "arcs": {"arc_to_reflection", "reflection_to_arc"},
}

# The subcommand handlers are cli's own work (argument parsing, quiver
# load, JSON out), so only the entry point is a span and their time is its
# self time.
ONLY = {"cli": {"main"}}

SPAN_CAP = 50_000


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class _Frame:
    __slots__ = ("span_id", "parent", "name", "start", "child")

    def __init__(self, span_id: int, parent: int, name: str) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.child = 0.0
        self.start = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counters: Counter[str] = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.span_count = 0
        self.root_time = 0.0
        self._stack: list[_Frame] = []
        self._seen_roots: set = set()

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        stack = self._stack
        frame = _Frame(self.span_count, stack[-1].span_id if stack else -1, name)
        self.span_count += 1
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame: _Frame, stat: Stat) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        dt = end - frame.start
        stat.calls += 1
        stat.total += dt
        stat.self += dt - frame.child
        if stack:
            stack[-1].child += dt
        else:
            self.root_time += dt
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame.span_id, frame.parent, frame.name, frame.start, end))

    def caller(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def new_pass(self) -> None:
        """Forget inputs seen so far, so repeat ratios are per pass."""
        self._seen_roots.clear()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None, on_args=None, on_item=None):
        stat = self.stats.setdefault(name, Stat())
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame, stat)
                    if on_item is not None:
                        on_item(item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, stat)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- hooks for the ratio metrics ---------------------------------------

    def _count_seed(self, seed) -> None:
        self.counters["explore.iter_seeds.seeds"] += 1
        if self.caller() == "explore.schur_by_search":
            self.counters["explore.schur_by_search.seeds_visited"] += 1

    def _count_found(self, args, kwargs, outcome) -> None:
        self.counters["explore.schur_by_search.found"] += outcome.found

    def _count_branches(self, args, kwargs, report) -> None:
        self.counters["embedding.probe_embedding.branches"] += report.branches
        self.counters["embedding.probe_embedding.search_space"] += report.search_space

    def _count_repeat(self, args, kwargs, reflection) -> None:
        gram = kwargs["gram"] if "gram" in kwargs else args[1]
        key = (tuple(args[0]), gram)
        if key in self._seen_roots:
            self.counters["roots.root_to_reflection.repeats"] += 1
        else:
            self._seen_roots.add(key)

    def _wrap_sink(self, args, kwargs):
        # explore's JSONL sink is a closure made inside cli.cmd_explore;
        # giving it a span of its own keeps serialisation out of explore's
        # self time
        sink = kwargs.get("sink")
        if sink is not None:
            kwargs = {**kwargs, "sink": self.wrap("cli.sink", sink)}
        return args, kwargs

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"arcroots.{m}") for m in MODULES}
        hooks = {
            "explore.iter_seeds": {"on_item": self._count_seed},
            "explore.schur_by_search": {"on_result": self._count_found},
            "explore.explore": {"on_args": self._wrap_sink},
            "embedding.probe_embedding": {"on_result": self._count_branches},
            "roots.root_to_reflection": {"on_result": self._count_repeat},
        }
        replace = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or attr in LEAVES.get(short, ())
                    or (short in ONLY and attr not in ONLY[short])
                ):
                    continue
                name = f"{short}.{attr}"
                replace[value] = self.wrap(name, value, **hooks.get(name, {}))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "arcroots" or mod_name.startswith("arcroots."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in replace:
                        setattr(module, attr, replace[value])
        matrix = modules["quiver"].ExchangeMatrix
        matrix.mutate = self.wrap("quiver.mutate", matrix.mutate)
        checks = modules["explore"].CHECKS
        for check, fn in checks.items():
            checks[check] = self.wrap(f"explore.check.{check}", fn)

    # -- results -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        data = {
            "aggregate": {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self}
                for name, s in sorted(self.stats.items())
                if s.calls
            },
            "counters": dict(self.counters),
            "spans_total": self.span_count,
            "spans_kept": len(self.spans),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))
