"""Span tracing of mafkit from outside the library.

`Tracer.install` replaces every public function of the layer modules with a
wrapper, both in the module that defines it and in every mafkit module that
imported it by name, so calls between modules go through the wrapper too.
`TimeSeriesPanel.__post_init__` is wrapped as `panel.validate`. The library
itself carries no timing code; `uninstall` restores the original objects.

A span is (name, start, end, parent span index, command id). Spans are kept
in memory and summarised or written out after the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "inference", "maf", "linalg", "panel", "smoothing", "simulate")

# Functions the per-layer metrics name. A later change may remove or rename
# one (say, for a batched kernel); it is then reported as absent, not fatal.
EXPECTED = (
    "cli.main",
    "cli.ingest_csv",
    "maf.compute_maf",
    "panel.validate",
    "smoothing.empirical_snr",
    "smoothing.smooth_columns",
    "simulate.gen_sn_panel",
)


def _busy_wait(seconds: float) -> None:
    # A spin rather than sleep: sleep overshoots by tens of microseconds.
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Tracer:
    """Wraps mafkit's layer functions to record spans and/or inject delays.

    With `record` false only the functions named in `delays` are wrapped,
    so an untraced run pays for nothing but the injected delay.
    """

    def __init__(self, record: bool = True, delays: dict[str, float] | None = None,
                 hooks: dict | None = None):
        self.record = record
        self.delays = dict(delays or {})
        # name -> callable(args, kwargs) -> number, summed over recorded calls
        self.hooks = dict(hooks or {})
        self.hook_totals = {name: 0 for name in self.hooks}
        self.names: list[str] = []
        self.spans: list = []
        self.command_id: int | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        delay = self.delays.get(name, 0.0)
        if not self.record:
            @functools.wraps(fn)
            def delayed(*args, **kwargs):
                _busy_wait(delay)
                return fn(*args, **kwargs)
            return delayed

        name_id = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            command_id = self.command_id
            if command_id is None:
                return fn(*args, **kwargs)
            if hook is not None:
                self.hook_totals[name] += hook(args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                if delay:
                    _busy_wait(delay)
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, command_id)

        return traced

    def install(self) -> None:
        """Wrap the layer functions wherever mafkit modules refer to them."""
        wrappers: dict[object, object] = {}
        found = set()
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = module = importlib.import_module(f"mafkit.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    found.add(name)
                    if self.record or name in self.delays:
                        wrappers[obj] = self._wrap(name, obj)
        panel_cls = getattr(modules.get("panel"), "TimeSeriesPanel", None)
        post_init = getattr(panel_cls, "__post_init__", None)
        if post_init is not None:
            found.add("panel.validate")
            if self.record or "panel.validate" in self.delays:
                self._patch(panel_cls, "__post_init__",
                            self._wrap("panel.validate", post_init))
        self.absent = sorted((set(EXPECTED) | set(self.delays)) - found)

        loaded = [module for name, module in list(sys.modules.items())
                  if name == "mafkit" or name.startswith("mafkit.")]
        for module in loaded:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path, extra: dict) -> None:
        """Write the spans (gzip JSON) with `extra` run facts alongside."""
        payload = dict(extra)
        payload["names"] = self.names
        payload["span_fields"] = ["name", "start", "end", "parent", "command"]
        payload["spans"] = self.spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))

    def summary(self, commands: int) -> dict[str, float]:
        """Per-command means of calls, busy and self time, by function and layer.

        Calls and busy time of a function or layer count only its outermost
        spans, so nested calls are not counted twice; self time is a span's
        duration minus the time its direct children cover.
        """
        names = self.names
        layer_of = [name.split(".", 1)[0] for name in names]
        child_time = [0.0] * len(self.spans)
        calls, busy, self_time = Counter(), Counter(), Counter()
        active: Counter = Counter()  # names and layers with an open span
        stack: list[int] = []
        for index, (name_id, start, end, parent, _) in enumerate(self.spans):
            while stack and stack[-1] != parent:
                done = self.spans[stack.pop()][0]
                active[names[done]] -= 1
                active[layer_of[done]] -= 1
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            for key in (names[name_id], layer_of[name_id]):
                if not active[key]:
                    calls[key] += 1
                    busy[key] += duration
                active[key] += 1
            stack.append(index)
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            self_time[layer_of[name_id]] += (end - start) - child_time[index]

        out: dict[str, float] = {}
        per = 1.0 / max(commands, 1)
        for key in sorted(set(names) | set(EXPECTED) | set(LAYERS)):
            out[f"{key}.calls"] = calls[key] * per
            out[f"{key}.busy_s"] = busy[key] * per
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] * per
        return out
