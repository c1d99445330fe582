"""In-memory spans and counters recorded around the benchmark's calls into
frobenii modules.

A span is (id, name, start, end, parent, task, pass).  Its layer is the part
of the name before the first dot: ``stokes.orbit`` belongs to ``stokes``,
``bench.task`` to the benchmark itself.  Spans are kept in memory and
written out once, when the run ends.  A disabled tracer records nothing, so
the untraced passes pay only for a shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

LAYERS = ("exact", "frobenius", "gwcp2", "semisimple", "stokes", "painleve",
          "singularity", "cli")

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        task = tr._task
        self.idx = len(tr.spans)
        tr.spans.append([self.idx, self.name, time.perf_counter(), None,
                         parent, task, tr.pass_index])
        tr._stack.append(self.idx)
        if self.name == "bench.task":
            tr._task = self.idx
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.idx][3] = time.perf_counter()
        tr._stack.pop()
        if self.name == "bench.task":
            tr._task = None
        return False


class Tracer:
    """Collects spans and counters; ``enabled`` is switched per pass."""

    def __init__(self):
        self.enabled = False
        self.pass_index = -1
        self.spans: List[list] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: List[int] = []
        self._task: Optional[int] = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[self.pass_index][name] += value

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "task", "pass")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}},
                      fh)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def pass_summary(tracer: Tracer, pass_index: int) -> Dict[str, float]:
    """Span totals of one pass: ``<name>`` is the summed duration of the
    spans with that name, ``<layer>.busy_s`` the time covered by the
    layer's outermost spans and ``<layer>.self_s`` that time minus what
    their child spans of other layers cover."""
    spans = [s for s in tracer.spans if s[6] == pass_index]
    by_id = {s[0]: s for s in spans}
    out: Dict[str, float] = defaultdict(float)
    for idx, name, start, end, parent, _, _ in spans:
        dur = end - start
        out[name] += dur
        layer = _layer(name)
        if parent is None or _layer(by_id[parent][1]) != layer:
            out[layer + ".busy_s"] += dur
            out[layer + ".self_s"] += dur
        if parent is not None and _layer(by_id[parent][1]) != layer:
            out[_layer(by_id[parent][1]) + ".self_s"] -= dur
    out["trace.spans"] = len(spans)
    return out
