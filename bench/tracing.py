"""Span tracing installed from outside the program.

``Tracer.install()`` replaces the names that specguard's modules actually
call (``specguard.pseudospec.variance_apply``, ``specguard.cli.sweep``, ...)
with wrappers that record one span per call: layer name, start, end and the
index of the enclosing span.  Spans stay in memory; ``Tracer.summary()``
turns them into per-layer call counts and self times, where a span's self
time is its duration minus the time its child spans cover.  The program is
not modified; ``install()`` restores every original name on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

#: (layer name, attribute, modules holding a reference to the function).
#: A module that does not define the attribute is skipped, so a refactor
#: that moves a function shows up as a layer with zero calls.
PATCHES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("cli.main", "main", ("specguard.cli",)),
    ("ingest.load_snapshots", "load_snapshots", ("specguard.ingest", "specguard.cli")),
    ("charmatrix.gram_matrices", "gram_matrices",
     ("specguard.charmatrix", "specguard.pseudospec", "specguard.cli")),
    ("charmatrix.edmd_matrix", "edmd_matrix", ("specguard.charmatrix", "specguard.cli")),
    ("charmatrix.eigensystem", "eigensystem", ("specguard.charmatrix", "specguard.cli")),
    ("charmatrix.char_context", "char_context", ("specguard.charmatrix", "specguard.pseudospec")),
    ("variance.default_mu_list", "default_mu_list", ("specguard.variance", "specguard.cli")),
    ("variance.prepare_factors", "prepare_factors", ("specguard.variance", "specguard.pseudospec")),
    ("variance.variance_apply", "variance_apply", ("specguard.variance", "specguard.pseudospec")),
    ("pseudospec.power_iterate", "power_iterate", ("specguard.pseudospec",)),
    ("pseudospec.p_hat", "p_hat", ("specguard.pseudospec", "specguard.cli")),
    ("pseudospec.sweep", "sweep", ("specguard.pseudospec", "specguard.cli")),
    ("stats.cluster_eigenvalues", "cluster_eigenvalues", ("specguard.stats", "specguard.cli")),
)

#: (layer name, module, class, method) for bound methods.
METHOD_PATCHES: tuple[tuple[str, str, str, str], ...] = (
    ("charmatrix.inv_congruence", "specguard.charmatrix", "CharContext", "inv_congruence"),
)

LAYERS: tuple[str, ...] = tuple(p[0] for p in PATCHES) + tuple(p[0] for p in METHOD_PATCHES)


class Tracer:
    """In-memory span recorder for one traced execution."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent_index]; parent -1 is a root.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iterations = 0
        self.warm_starts = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if name == "pseudospec.power_iterate":
                self._count_iterations(args, kwargs, result)
            return result

        return traced

    def _count_iterations(self, args, kwargs, result) -> None:
        self.iterations += int(result.iterations)
        settings = kwargs.get("settings", args[2] if len(args) > 2 else None)
        if settings is not None and settings.warm_start is not None:
            self.warm_starts += 1

    @contextlib.contextmanager
    def install(self):
        """Patch every traced name for the duration of the block."""
        saved: list[tuple[object, str, object]] = []
        try:
            for name, attr, modules in PATCHES:
                for mod_name in modules:
                    mod = importlib.import_module(mod_name)
                    if not hasattr(mod, attr):
                        continue
                    current = getattr(mod, attr)
                    saved.append((mod, attr, current))
                    setattr(mod, attr, self.wrap(name, current))
            for name, mod_name, cls_name, meth in METHOD_PATCHES:
                cls = getattr(importlib.import_module(mod_name), cls_name, None)
                if cls is None or not hasattr(cls, meth):
                    continue
                current = cls.__dict__[meth]
                saved.append((cls, meth, current))
                setattr(cls, meth, self.wrap(name, current))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def summary(self, wall_s: float) -> dict:
        """Per-layer calls and self seconds, plus the covered share of ``wall_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if parent < 0:
                covered += end - start
        return {
            "calls": {layer: calls.get(layer, 0) for layer in LAYERS},
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
            "coverage_frac": covered / wall_s if wall_s > 0 else 0.0,
            "iterations": self.iterations,
            "warm_starts": self.warm_starts,
        }

    def span_records(self) -> list[dict]:
        """Spans as plain records, for the results file."""
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
