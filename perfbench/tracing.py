"""Timing spans around the program's layer entry points, from outside it.

A traced item replaces the module attributes that callers look up at
call time with wrappers that record one span per call, and puts the
originals back afterwards. ``from .edt import edt_from_sites`` binds the
name in the importing module, so each module that calls a function is
wrapped separately (``WRAP_POINTS``). Spans are kept in memory; self
time is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

ITEM_SPAN = "bench.item"

# (span name, module the caller looks the name up in, attribute)
WRAP_POINTS = (
    ("edt.edt_from_sites", "contourflow.edt", "edt_from_sites"),
    ("edt.edt_from_sites", "contourflow.autoinit", "edt_from_sites"),
    ("edt.edt_from_sites", "contourflow.metrics", "edt_from_sites"),
    ("fields.rasterize", "contourflow.snake", "rasterize"),
    ("fields.rasterize", "contourflow.cli", "rasterize"),
    ("fields.rasterize", "contourflow.learning", "rasterize"),
    ("snake.evolve", "contourflow.cli", "evolve"),
    ("snake.evolve", "contourflow.learning", "evolve"),
    ("snake.evolve_step", "contourflow.snake", "evolve_step"),
    ("snake.energy_eval", "contourflow.snake", "energy_eval"),
    ("snake.assemble_internal_system", "contourflow.snake", "assemble_internal_system"),
    ("metrics.boundf", "contourflow.metrics", "boundf"),
    ("metrics.evaluate", "contourflow.cli", "evaluate"),
    ("autoinit.inscribed_circle", "contourflow.cli", "inscribed_circle"),
    ("autoinit.inscribed_circle", "contourflow.learning", "inscribed_circle"),
    ("autoinit.circumscribed_circle", "contourflow.cli", "circumscribed_circle"),
    ("autoinit.circumscribed_circle", "contourflow.learning", "circumscribed_circle"),
    ("flow.field", "contourflow.cli", "lcdvf"),
    ("flow.field", "contourflow.cli", "dvf"),
    ("learning.align_cyclic", "contourflow.learning", "align_cyclic"),
    ("learning.fit_parameters", "contourflow.cli", "fit_parameters"),
    ("fileio.read_mask_pgm", "contourflow.cli", "read_mask_pgm"),
    ("fileio.write", "contourflow.cli", "write_mask_pgm"),
    ("fileio.write", "contourflow.cli", "write_pgm"),
    ("fileio.write", "contourflow.cli", "write_pfm"),
    ("fileio.write", "contourflow.cli", "atomic_write_text"),
    ("cli.run_pipeline", "contourflow.cli", "run_pipeline"),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None


class Tracer:
    """Collects spans from any thread. A span's parent is the innermost
    open span of its own thread; a thread with no open span (a batch
    worker) parents its spans to the current item's span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._item: int | None = None
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self._item))

    @contextmanager
    def item(self, item_id: int):
        """Span one benchmark item; every span recorded inside carries its id."""
        self._item = item_id
        try:
            with self.span(ITEM_SPAN) as span_id:
                self._root = span_id
                yield span_id
        finally:
            self._root = None
            self._item = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


@contextmanager
def installed(tracer: Tracer, points=WRAP_POINTS):
    """Wrap every point that exists and yield the ones that do not (a later
    version of the program may have removed them); restore on exit."""
    saved, absent = [], []
    try:
        for name, module_name, attr in points:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                absent.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    parts = sorted((max(start, s), min(end, e)) for s, e in intervals if min(end, e) > max(start, s))
    total = 0.0
    run_start = run_end = None
    for s, e in parts:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: call count, summed duration and summed self time (s)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s.end - s.start
        t["calls"] += 1
        t["total_s"] += duration
        t["self_s"] += duration - covered(s.start, s.end, children[s.id])
    return totals
