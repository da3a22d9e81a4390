"""In-memory spans recorded around calls into stripeloc's public functions.

A span is one call: its name, wall-clock start and end, process CPU time at
start and end, the index of the span that caused it (the innermost open span
on the same thread), a trial id inherited from that parent, and optional
attributes taken from the call's result.  Spans stay in memory and are
written out once, when the benchmark ends.

Module attributes are replaced by wrappers only inside ``Tracer.patched``;
the originals are put back on exit, whether the traced code returned or
raised, so untraced runs never see a wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: Optional[int]
    trial: Optional[str]
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap.

    ``trial_of(args, kwargs)`` names the trial a root call belongs to;
    ``attrs_of(result)`` extracts attributes to keep on the span.
    """

    module: object
    attr: str
    span: str
    trial_of: Optional[Callable] = None
    attrs_of: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, trial: Optional[str] = None):
        """Record one span; yields its attribute dict for the caller to fill."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trial is None and parent is not None:
            trial = self.spans[parent].trial
        rec = Span(name, time.perf_counter(), 0.0, time.process_time(), 0.0,
                   parent, trial, threading.get_ident())
        with self._lock:
            self.spans.append(rec)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield rec.attrs
        finally:
            stack.pop()
            rec.cpu_end = time.process_time()
            rec.end = time.perf_counter()

    def _wrapper(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            trial = target.trial_of(args, kwargs) if target.trial_of else None
            with self.span(target.span, trial) as attrs:
                result = fn(*args, **kwargs)
                if target.attrs_of is not None:
                    attrs.update(target.attrs_of(result))
                return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap every target's module attribute; restore all of them on exit."""
        saved = []
        try:
            for t in targets:
                original = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self._wrapper(original, t))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path, extra: dict) -> None:
        """Write ``extra`` plus the spans, one list per span in ``fields`` order."""
        names = [f.name for f in fields(Span)]
        rows = [[getattr(s, n) for n in names] for s in self.spans]
        payload = dict(extra, fields=names, spans=rows)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never goes below zero.
    """
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.wall - covered)
    return out


def self_cpu(spans) -> list:
    """Each span's process CPU time minus that of its direct children."""
    out = [s.cpu for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.cpu
    return out
