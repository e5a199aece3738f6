"""In-memory spans recorded around calls into the gprm layers.

A span has a name of the form ``layer.call`` (``lang.parse``, ``vm.run``), a
start and an end (``time.perf_counter`` seconds), the id of the span that was
open when it started, the id of the traced pass it belongs to, and optional
attributes such as the thread count.  The benchmark is single-threaded on the
host side, so a stack gives the parent.  A disabled recorder hands out one
shared no-op context, so the end-to-end runs pay nothing for it.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("rec", "record")

    def __init__(self, rec, record):
        self.rec = rec
        self.record = record

    def __enter__(self):
        self.rec._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.rec._stack.pop()
        return False


class Spans:
    def __init__(self, enabled):
        self.enabled = enabled
        self.run_id = 0
        self.records = []
        self._stack = []

    def span(self, name, **attrs):
        if not self.enabled:
            return _NULL
        record = {"id": len(self.records), "run": self.run_id, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": 0.0, "end": 0.0, **attrs}
        self.records.append(record)
        return _Span(self, record)

    def select(self, run, name, **attrs):
        """Durations of the spans of one pass with this name and attributes."""
        return [r["end"] - r["start"] for r in self.records
                if r["run"] == run and r["name"] == name
                and all(r.get(k) == v for k, v in attrs.items())]

    def total(self, run, name, **attrs):
        return sum(self.select(run, name, **attrs))

    def self_time_by_layer(self, run):
        """Seconds per layer (the name before the first dot) of one pass:
        each span's duration minus what its child spans cover."""
        spans = [r for r in self.records if r["run"] == run]
        child = {}
        for r in spans:
            if r["parent"] is not None:
                child[r["parent"]] = child.get(r["parent"], 0.0) + r["end"] - r["start"]
        out = {}
        for r in spans:
            layer = r["name"].split(".", 1)[0]
            own = r["end"] - r["start"] - child.get(r["id"], 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.records, f)
