"""Span tracer that wraps lattice_embed's public functions from outside.

Each wrapped call records one span (id, parent id, name, start, end) in
per-thread memory.  Parents follow the call stack of the calling thread; a
span opened on a solver worker thread with an empty stack takes the innermost
span open on the main thread as its parent, so the tree stays connected
across the thread pool.  Nothing inside the library changes: the tracer
rebinds each function's name in every lattice_embed module that holds it and
restores the originals on uninstall.
"""
from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

import numpy as np

PACKAGE = "lattice_embed"
# (module, function) pairs wrapped by the tracer; span names are "module.function"
TRACED = (
    ("config", "parse_config"),
    ("geometry", "make_manifold"),
    ("geometry", "closest_point"),
    ("geometry", "curvature_tensor"),
    ("field", "activation"),
    ("field", "activation_gradient"),
    ("field", "regularization_gradient"),
    ("quadrature", "build_quadrature"),
    ("quadrature", "curvature_double_integral"),
    ("quadrature", "curvature_integral_gradient"),
    ("energy", "total_energy"),
    ("energy", "total_gradient"),
    ("solver", "descend_point"),
    ("solver", "embed_lattice"),
    ("lattice", "generate_lattice"),
    ("lattice", "check_injective_invert"),
    ("lattice", "extend_map"),
    ("lattice", "jacobian_of_extension"),
    ("cli", "run_embed"),
    ("cli", "run_curvature"),
)
# span name of each call of a chart that expressions.compile_chart returned
CHART_SPAN = "expressions.chart"
# per-call summaries kept from return values, for counts spans cannot give
KEEP = {
    "solver.descend_point": lambda r: (r[1].iterations, r[1].stalled, r[1].converged),
    "solver.embed_lattice": lambda r: len(r[1].errors),
}


class _ThreadLog:
    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._codes: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._main = self._log()
        self._patches: list[tuple[object, str, object]] = []
        self.kept: dict[str, list] = defaultdict(list)

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self._names)
            self._names.append(name)
        return self._codes[name]

    def _open(self) -> tuple[_ThreadLog, int, int]:
        log = self._log()
        main = self._main.stack
        parent = log.stack[-1] if log.stack else (main[-1] if main else 0)
        sid = next(self._ids)
        log.stack.append(sid)
        return log, sid, parent

    @staticmethod
    def _close(log: _ThreadLog, sid: int, parent: int, code: int, t0: float) -> None:
        t1 = time.perf_counter()
        log.stack.pop()
        log.sid.append(sid)
        log.parent.append(parent)
        log.name.append(code)
        log.t0.append(t0)
        log.t1.append(t1)

    @contextmanager
    def span(self, name: str):
        code = self._code(name)
        log, sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(log, sid, parent, code, t0)

    def wrap(self, name: str, fn):
        code = self._code(name)
        keep = KEEP.get(name)
        kept = self.kept[name]

        def traced(*args, **kwargs):
            log, sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(log, sid, parent, code, t0)
            if keep is not None:
                kept.append(keep(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, function in TRACED:
            original = getattr(import_module(f"{PACKAGE}.{module}"), function)
            self._rebind(original, self.wrap(f"{module}.{function}", original))
        expressions = import_module(f"{PACKAGE}.expressions")
        compile_chart = expressions.compile_chart

        def counted_compile_chart(*args, **kwargs):
            chart, jacobian = compile_chart(*args, **kwargs)
            return self.wrap(CHART_SPAN, chart), jacobian

        self._rebind(compile_chart, counted_compile_chart)

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        logs = list(self._logs)

        def cat(field, dtype):
            parts = [np.frombuffer(getattr(log, field), dtype=dtype) for log in logs]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return {
            "sid": cat("sid", np.int64),
            "parent": cat("parent", np.int64),
            "name": cat("name", np.int64),
            "start": cat("t0", np.float64),
            "end": cat("t1", np.float64),
            "thread": np.concatenate(
                [np.full(len(log.sid), log.thread, np.int64) for log in logs]
            ),
            "names": np.array(self._names),
        }


class SpanTable:
    """Spans as arrays, with self time and ancestor lookups."""

    def __init__(self, spans: dict[str, np.ndarray]):
        self.names = [str(n) for n in spans["names"]]
        self.name = spans["name"]
        self.start = spans["start"]
        self.dur = spans["end"] - spans["start"]
        thread = spans["thread"]
        index = np.full(int(spans["sid"].max(initial=0)) + 1, -1, np.int64)
        index[spans["sid"]] = np.arange(spans["sid"].size)
        parent = spans["parent"]
        self.parent = np.where(parent > 0, index[parent], -1)
        self.self_time = self._self_times(thread, spans["end"])

    def _self_times(self, thread, end) -> np.ndarray:
        """Duration minus the part of it that child spans cover.

        Children on the parent's own thread run one after another, so their
        durations add up.  Children on worker threads overlap each other, so
        their intervals are merged first.
        """
        child = np.flatnonzero(self.parent >= 0)
        foreign = child[thread[child] != thread[self.parent[child]]]
        local = np.setdiff1d(child, foreign, assume_unique=True)
        covered = np.zeros(self.dur.size)
        np.add.at(covered, self.parent[local], self.dur[local])
        groups: dict[int, list[int]] = defaultdict(list)
        for row in foreign:
            groups[int(self.parent[row])].append(int(row))
        for parent_row, rows in groups.items():
            reach = -np.inf
            for row in sorted(rows, key=lambda r: self.start[r]):
                lo = max(self.start[row], reach)
                if end[row] > lo:
                    covered[parent_row] += end[row] - lo
                    reach = end[row]
        return self.dur - covered

    def code(self, name: str) -> int:
        """Name code of name; one that no span has if no span is called that."""
        return self.names.index(name) if name in self.names else len(self.names)

    def nearest(self, names) -> np.ndarray:
        """Row of each span's nearest proper ancestor named in names, or -1."""
        codes = [self.code(n) for n in names]
        found = np.full(self.dur.size, -1, np.int64)
        anc = self.parent.copy()
        live = anc >= 0
        while np.any(live):
            hit = live & np.isin(self.name[np.where(live, anc, 0)], codes)
            found[hit] = anc[hit]
            live &= ~hit
            anc[live] = self.parent[anc[live]]
            live &= anc >= 0
        return found

    def count_under(self, name: str, owners, owner: str) -> int:
        """How many name spans have owner as their nearest ancestor in owners."""
        anc = self.nearest(owners)[self.name == self.code(name)]
        return int(np.sum((anc >= 0) & (self.name[np.maximum(anc, 0)] == self.code(owner))))
