"""Spans around the calls into each qdrepeater layer, recorded from outside.

``install`` rebinds every public function of the seven layer modules to a
wrapper that records one span per call: name, start, end and the span that
was open when it was called.  The rebinding also reaches names bound by
``from ... import`` in sibling modules and functions held in module-level
registries (``cli._COMMANDS``, ``acceptance.CHECKS``), so calls made inside
the package are traced too.  Nothing under ``src/`` changes; the wrappers live
only in the traced interpreter.

The layers run in one thread, so spans nest strictly and a layer never waits
on another: a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("params", "rates", "fidelity", "mcsim", "qsim", "acceptance", "cli")


class Tracer:
    """In-memory span list; ``spans[i] = [name, start, end, parent_index]``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, open_[-1] if open_ else None]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()

        return traced

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per layer."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.partition(".")[0]
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        """Append this run's spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _rebind(value, swaps: dict[int, object]):
    """``value`` with traced functions in place of the originals it holds."""
    if id(value) in swaps:
        return swaps[id(value)]
    if isinstance(value, tuple) and any(id(v) in swaps for v in value):
        return tuple(swaps.get(id(v), v) for v in value)
    return value


def install(tracer: Tracer) -> None:
    """Route every public layer function of qdrepeater through ``tracer``."""
    modules = {layer: importlib.import_module(f"qdrepeater.{layer}")
               for layer in LAYERS}
    swaps: dict[int, object] = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                swaps[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
    for mod in [importlib.import_module("qdrepeater"), *modules.values()]:
        for name, value in list(vars(mod).items()):
            if isinstance(value, list):
                value[:] = [_rebind(v, swaps) for v in value]
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in value.items():
                    value[key] = _rebind(item, swaps)
            else:
                rebound = _rebind(value, swaps)
                if rebound is not value:
                    setattr(mod, name, rebound)
