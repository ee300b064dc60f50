"""Spans and captures around the program's public functions.

The benchmark does not edit the program. It replaces, for the length of
one round, the names through which ``ontoclass.evaluate`` and the
loaders reach each layer, so that every call passes through a wrapper.
A wrapper can record a span (name, start, end, parent) and can hand the
call's inputs and result to a hook. Hooks collect what the output checks
need; those checks that need data the program frees at the end of each
fold run inside the hook. The time hooks take is kept apart and taken
off the end-to-end timings, so the timings cover the program only.

Spans are recorded only in a traced round. They are kept in memory and
written out when the round ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Span name of the benchmark's own hook work inside a traced round.
HOOK = "bench.hook"


class Probe:
    """Installs wrappers; owns the spans, the hook time and the problems
    that hooks report."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []       # [name, start, end, parent index]
        self._open: list[int] = []
        self.hook_s = 0.0
        self.problems: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def _run_hook(self, hook, args, kwargs, result) -> None:
        start = perf_counter()
        with self.span(HOOK):
            try:
                hook(args, kwargs, result)
            except Exception as exc:  # a broken hook must not fail the fold
                self.problems.append(f"hook {hook.__name__}: "
                                     f"{type(exc).__name__}: {exc}")
        self.hook_s += perf_counter() - start

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str | None, hook=None) -> None:
        """Route calls of ``module.attr`` through a span and a hook.

        A name the module no longer has is left alone: its layer then
        reads 0 and the checks fed by its hook find nothing to check.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        probe = self

        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                with probe.span(name):
                    result = original(*args, **kwargs)
            if hook is not None:
                probe._run_hook(hook, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- derived numbers ------------------------------------------------------

    def busy_times(self) -> dict[str, float]:
        """Per span name: total duration less the hook spans inside it."""
        hooks: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            if name == HOOK and parent >= 0:
                hooks[parent] = hooks.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - hooks.get(i, 0.0)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for s, e in sorted(children.get(i, ())):
                s = max(s, reach)
                if e > s:
                    covered += e - s
                    reach = e
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write_spans(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        path.write_text(json.dumps([
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]), encoding="utf-8")
