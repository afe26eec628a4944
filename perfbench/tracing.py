"""In-memory span tracing installed from outside the program.

The traced run replaces chosen public functions of ``repro`` with thin
wrappers that record one span per call: id, parent id, name, phase,
start, end, self time and rows processed.  Nothing inside ``src/repro``
changes; the untraced run installs no wrapper, so its numbers carry no
tracing cost.

Self time is a span's duration minus the durations of the spans it
directly contains.  Spans nest through a plain stack, which is exact
because every wrapped function is synchronous: an asyncio task can only
switch at an ``await``, never inside a wrapped call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: Phases a span can belong to.
PHASES = ("setup", "timed")

_COLUMNS = [("id", "i8"), ("parent", "i8"), ("name", "i4"), ("phase", "i1"),
            ("start", "f8"), ("end", "f8"), ("self", "f8"), ("rows", "i8")]


class Tracer:
    """Span recorder.

    ``phase`` is set by the workload; while it is ``None`` (output
    checks, teardown) wrapped calls run without recording.  ``hooks``
    maps a span name to a callable that receives each recorded call's
    result and arguments.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.names: List[str] = []
        self.hooks: Dict[str, Callable] = {}
        self._rows: List[tuple] = []
        self._stack: List[list] = []        # [span id, child seconds]
        self._next_id = 0

    def wrap_function(self, fn: Callable, name: str,
                      rows: Optional[Callable] = None) -> Callable:
        """A recording wrapper around *fn*.

        *rows*, when given, maps the call's arguments to the number of
        rows the call processed, so per-row costs can be derived.
        """
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                n_rows = rows(*args, **kwargs) if rows is not None else 1
                tracer._rows.append((frame[0], parent, name_id,
                                     PHASES.index(phase), start, end,
                                     end - start - frame[1], n_rows))
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        return wrapper

    def patch_method(self, cls: type, attr: str, name: str,
                     rows: Optional[Callable] = None) -> None:
        """Replace ``cls.attr`` (plain method or classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap_function(raw.__func__, name,
                                                     rows))
        else:
            wrapped = self.wrap_function(raw, name, rows)
        setattr(cls, attr, wrapped)

    def patch_function(self, fn: Callable, name: str,
                       rows: Optional[Callable] = None,
                       only_module: Optional[str] = None) -> None:
        """Replace *fn* in every ``repro`` module that bound it by name.

        Modules import functions with ``from x import f``, so patching the
        defining module alone would miss those callers.  With
        *only_module* just that module's binding is replaced.
        """
        wrapped = self.wrap_function(fn, name, rows)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            if only_module is not None and mod_name != only_module:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    def table(self) -> np.ndarray:
        """Every span as a structured array, in the order spans ended."""
        return np.array(self._rows, dtype=_COLUMNS)

    def summary(self, phase: str = "timed") -> Dict[str, Dict[str, float]]:
        """Per span name: calls, rows, total self and inclusive seconds."""
        table = self.table()
        table = table[table["phase"] == PHASES.index(phase)]
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            spans = table[table["name"] == name_id]
            out[name] = {
                "calls": int(spans.size),
                "rows": int(spans["rows"].sum()),
                "self_s": float(spans["self"].sum()),
                "incl_s": float((spans["end"] - spans["start"]).sum()),
            }
        return out

    def write(self, path: Path) -> None:
        """Write every span (``.npy``) and the name table (``.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path.with_suffix(".npy"), self.table())
        path.with_suffix(".json").write_text(json.dumps(
            {"names": self.names, "phases": list(PHASES),
             "columns": [c for c, _ in _COLUMNS]}) + "\n")
