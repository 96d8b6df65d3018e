"""In-memory call spans around bifr's public functions.

``Tracer.install()`` replaces every binding of each traced function in the
loaded ``bifr`` modules with a wrapper that records one span per call: name,
start, end, parent span and the workload operation it belongs to.
``from .x import y`` copies a function into the importing module's namespace
(``ltt_inverse`` lives in both ``bifr.toeplitz`` and ``bifr.catalog``;
``rmse`` in ``bifr.metrics``, ``bifr.tuner``, ``bifr.cli`` and ``bifr``), so
all modules are scanned, not only the defining one.  ``uninstall()`` puts the
originals back.

``GaussianStream.fill`` spans also carry the draw count and how many of those
draws re-read counters already drawn on the same key (regenerated noise), so
the regeneration ratio is measured from the counters, independently of how
the engine groups its fill calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) pairs; a dotted attribute names a method on a class.
TRACED = (
    ("bifr.prng", "GaussianStream.fill"),
    ("bifr.prng", "GaussianStream.set_state"),
    ("bifr.engine", "engine_init"),
    ("bifr.engine", "engine_step"),
    ("bifr.engine", "run_prefix_release"),
    ("bifr.catalog", "strategy_coeffs"),
    ("bifr.catalog", "inverse_coeffs"),
    ("bifr.toeplitz", "ltt_inverse"),
    ("bifr.sensitivity", "sens_exact"),
    ("bifr.metrics", "rmse"),
    ("bifr.metrics", "b_operator"),
    ("bifr.calibration", "gaussian_sigma"),
    ("bifr.tuner", "tune_method"),
    ("bifr.cli", "main"),
)

# Span record layout: [name, start_ns, end_ns, parent, op, draws, regen].
NAME, START, END, PARENT, OP, DRAWS, REGEN = range(7)


def span_name(module: str, attr: str) -> str:
    return module.rpartition(".")[2] + "." + attr.rpartition(".")[2]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # workload operation id; -1 is set-up
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._high_water: dict[int, int] = {}  # key -> highest counter drawn

    def seen(self, token) -> None:
        """Mark counters below ``token.counter`` on its key as already drawn."""
        hw = self._high_water.get(token.key, 0)
        self._high_water[token.key] = max(hw, token.counter)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "bifr" or n.startswith("bifr.")]
        for module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            if module is None:  # e.g. bifr.cli on the streaming workloads
                continue
            name = span_name(module_name, attr)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                orig = owner.__dict__[fn_name]
                wrapper = self._wrap_fill(name, orig) if fn_name == "fill" else self._wrap(name, orig)
                self._undo.append((owner, fn_name, orig))
                setattr(owner, fn_name, wrapper)
                continue
            orig = getattr(module, fn_name)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _open(self, name: str) -> int:
        stack = self._stack
        idx = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, 0, 0])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter_ns()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_fill(self, name, fn):
        @functools.wraps(fn)
        def wrapper(gen, out):
            # The counter read happens inside the span, so the caller's self
            # time (the engine's, on the narrow workload) stays clean.
            idx = self._open(name)
            token = gen.get_state()
            draws = out.size
            start = token.counter
            hw = self._high_water.get(token.key, start)
            self.spans[idx][DRAWS] = draws
            self.spans[idx][REGEN] = max(0, min(start + draws, hw) - start)
            self._high_water[token.key] = max(hw, start + draws)
            try:
                return fn(gen, out)
            finally:
                self._close(idx)

        return wrapper

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time (ns), draws, regenerated draws.

        Self time is a span's duration minus the time its direct children
        cover; one thread makes the children disjoint, so that is their sum.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        totals: dict[str, dict[str, float]] = {}
        for i, s in enumerate(spans):
            t = totals.setdefault(s[NAME], dict(calls=0, total_ns=0, self_ns=0, draws=0, regen=0))
            dur = s[END] - s[START]
            t["calls"] += 1
            t["total_ns"] += dur
            t["self_ns"] += dur - child_ns[i]
            t["draws"] += s[DRAWS]
            t["regen"] += s[REGEN]
        return totals

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        spans = self.spans
        count = 0
        for s in spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != ancestor:
                p = spans[p][PARENT]
            count += p >= 0
        return count

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
