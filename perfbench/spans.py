"""Span tracing by wrapping corecuts' public functions at their call sites.

Modules bind each other's functions at import (``from .solve import
solve_subproblem``), so a wrapper must replace every module-level name
that refers to the function, not just the defining module's attribute.
Each wrapped call records a span (name, start, end, parent, instance
id) in memory; a layer's self time is its span time minus the time of
its wrapped children.  Spans are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

#: modules timed as layers; perms, exprs and cli stay out (too small to
#: time, or only an entry point)
LAYER_MODULES = (
    "engine",
    "solve",
    "simplex",
    "evalcore",
    "synth",
    "spectral",
    "corepoints",
    "gen",
    "minlp",
    "instancefile",
)

#: methods worth a span of their own
METHODS = (("evalcore", "Program", "run"),)


class Tracer:
    """Installs wrappers on a loaded corecuts package and records spans."""

    def __init__(self, package: str = "corecuts") -> None:
        self.package = package
        self.spans: list[tuple[str, float, float, int, int]] = []
        #: id of the benchmark operation the next spans belong to
        self.instance = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)  # reserved so children know their parent
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.instance)

        return wrapper

    def install(self) -> None:
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if key == self.package or key.startswith(self.package + ".")
        }
        wrappers: dict[int, object] = {}
        for layer in LAYER_MODULES:
            mod = modules[f"{self.package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        # rebind every module-level reference, in every package module
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[f"{self.package}.{layer}"], cls_name)
            fn = vars(cls)[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        child = defaultdict(float)
        for span in self.spans:
            name, t0, t1, parent, _ = span
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += (t1 - t0) - child[idx]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def rewind(self, mark: int) -> None:
        """Drop the spans recorded since len(spans) was `mark`; used to
        keep the benchmark's own checks out of the trace."""
        del self.spans[mark:]

    def descendants(self, name: str, ancestor: str) -> int:
        """Number of `name` spans with an `ancestor` span above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, t0, t1, parent, inst in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": t0, "end": t1, "parent": parent, "instance": inst}
                    )
                )
                fh.write("\n")
