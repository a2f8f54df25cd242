"""Spans around equivol's public functions, summed into per-layer metrics.

`Tracer.install` replaces every public function of the layer modules with
a wrapper, in every equivol module that binds it (`volumes` calls
`section_dimension` through its own import, the package re-exports
everything), so calls between layers and within a layer are both seen.
A span records its function, its parent span, start and end; a layer's
self time is the duration of its spans minus the time their child spans
cover.  Spans stay in memory until the round ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

from equivol.model import Scenario

LAYERS = ("model", "counting", "volumes", "geometry", "suites", "tables")
MAX_SPANS = 100_000


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "sid", "parent")

    def __init__(self, layer, name, start, sid, parent):
        self.layer, self.name, self.start, self.sid, self.parent = layer, name, start, sid, parent
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.level_calls = 0
        self.inputs: set = set()
        self.samples = 0
        self.oracle_s = 0.0

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"equivol.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "equivol" and not modname.startswith("equivol."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = _Frame(layer, name, perf_counter(), tracer.next_id, parent.sid if parent else -1)
            tracer.next_id += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, end, parent, args)

        return wrapper

    def _close(self, frame: _Frame, end: float, parent, args) -> None:
        dur = end - frame.start
        layer = frame.layer
        self.self_s[layer] += dur - frame.child
        if parent is not None:
            parent.child += dur
        if parent is None or parent.layer != layer:
            self.calls[layer] += 1
            if layer == "counting" and len(args) >= 2 and isinstance(args[0], Scenario) and isinstance(args[1], int):
                self.level_calls += 1
                self.inputs.add((args[0], args[1]))
        if frame.name == "section_dimension" and parent is not None and parent.layer == "volumes":
            self.samples += 1
        if frame.name == "brute_force_oracle":
            self.oracle_s += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame.sid, frame.parent, f"{layer}.{frame.name}", frame.start, end))
        else:
            self.dropped += 1

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        distinct = len(self.inputs)
        out["counting.distinct_inputs"] = distinct
        out["counting.repeat_ratio"] = self.level_calls / distinct if distinct else 0.0
        out["counting.oracle_s"] = self.oracle_s
        out["volumes.samples"] = self.samples
        return out
