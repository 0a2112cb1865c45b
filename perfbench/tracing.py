"""Spans around the public functions of each eprbus layer, from outside.

:meth:`Tracer.install` wraps every public module-level function of the seven
layer modules and rebinds the wrapper in every ``eprbus.*`` namespace that
binds the original (``from .gaussian import condition_on_homodyne`` in
``eprbus.protocols`` included), so nested calls such as protocols -> iomaps
-> gaussian record parent and child spans without any edit to the package.
Classes and methods are not wrapped; their time counts towards the calling
function's layer.  :meth:`Tracer.uninstall` restores the originals.

A span is ``(function id, start, end, parent span index, operation id)``
with ``perf_counter`` times, held in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "protocols", "iomaps", "gaussian", "decoherence", "planner", "oracle")


class Tracer:
    def __init__(self, package: str = "eprbus", layers: tuple[str, ...] = LAYERS) -> None:
        self.package = package
        self.layers = layers
        self.spans: list = []
        self.functions: list[tuple[str, str]] = []  # function id -> (layer, name)
        self.op_id = -1
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        fid = len(self.functions)
        self.functions.append((layer, fn.__name__))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, self.op_id)

        return traced

    def install(self) -> int:
        """Rebind every public layer function to its traced wrapper.

        Returns the number of bindings replaced.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for layer in self.layers:
                module = importlib.import_module(f"{self.package}.{layer}")
                for name, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not name.startswith("_")
                    ):
                        self._wrappers[obj] = self._wrap(obj, layer)
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(prefix):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, name, self._wrappers[obj])
                    self._patches.append((module, name, obj))
        return len(self._patches)

    def uninstall(self) -> None:
        for module, name, original in self._patches:
            setattr(module, name, original)
        self._patches.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def summarize(spans: list, functions: list[tuple[str, str]], group_of=lambda op_id: 0) -> dict:
    """Calls, self time and root time per layer and per function, by group.

    ``group_of`` maps a span's operation id to a group key (a pass, say).
    Root time is the duration of spans without a parent: the part of an
    operation's wall time spent inside the program.
    """
    groups: dict = {}
    for span, own in zip(spans, self_times(spans)):
        fid, start, end, parent, op_id = span
        layer, name = functions[fid]
        group = groups.setdefault(group_of(op_id), {"layers": {}, "functions": {}, "root_s": 0.0})
        for table, key in ((group["layers"], layer), (group["functions"], f"{layer}.{name}")):
            entry = table.setdefault(key, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        if parent < 0:
            group["root_s"] += end - start
    return groups
