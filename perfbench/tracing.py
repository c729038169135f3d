"""Spans around the calls into each prodmlp layer, recorded from outside.

Each traced public function is replaced, under every module attribute that
refers to it, by a wrapper that records one span: name, start, end, parent
span and the run id of the root it belongs to.  Replacing every lookup site
matters because modules import each other's functions by name
(``training.discrete_laplacian`` and ``metrics.discrete_laplacian`` are the
same function as ``fdgrid.discrete_laplacian``); wrapping only the defining
module would let those calls bypass the span.

Spans are kept in memory and written out when the benchmark ends.  A span's
self time is its duration minus the durations of its direct children; the
layer of a span is the first component of its name.
"""

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# span name, defining module, attribute path, index of the argument whose
# leading dimension counts points, index of the path argument whose size
# counts bytes written
SITES = [
    ("targets.call", "prodmlp.targets", "MollifiedCircle.__call__", 1, None),
    ("targets.call", "prodmlp.targets", "RadialCone.__call__", 1, None),
    ("network.forward", "prodmlp.network", "forward", 2, None),
    ("fdgrid.discrete_laplacian", "prodmlp.fdgrid", "discrete_laplacian", 1, None),
    ("fdgrid.write_field_csv", "prodmlp.fdgrid", "write_field_csv", None, 1),
    ("training.train", "prodmlp.training", "train", None, None),
    ("training.adam_step", "prodmlp.training", "adam_step", None, None),
    ("training.write_trace_csv", "prodmlp.training", "write_trace_csv", None, 1),
    ("metrics.report", "prodmlp.metrics", "approximation_report", None, None),
    ("metrics.error_field", "prodmlp.metrics", "error_field", None, None),
    ("metrics.localization_ratio", "prodmlp.metrics", "localization_ratio", None, None),
    ("harness.run_experiment", "prodmlp.harness", "run_experiment", None, None),
    ("harness.load_checkpoint", "prodmlp.harness", "load_checkpoint", None, None),
    ("harness.eval_checkpoint", "prodmlp.harness", "eval_checkpoint", None, None),
    ("harness.export_field", "prodmlp.harness", "export_field", None, None),
    ("cli.main", "prodmlp.cli", "main", None, None),
]

LAYERS = ("targets", "network", "fdgrid", "training", "metrics", "harness", "cli")
ROOT_LAYER = "bench"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 for a root
    run_id: str
    points: int = 0
    bytes: int = 0


def _points(x) -> int:
    return len(x) if getattr(x, "ndim", 1) == 2 else 1


class Tracer:
    """Holds the spans of one benchmark invocation and the installed wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run_id = ""
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, points: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._run_id, points))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def run(self, kind: str, run_id: str, keep: bool = True):
        """Trace one root: a set-up repetition or a measured pass.  The
        wrappers are installed only for its duration, and the spans of a root
        that is not kept are dropped when it ends."""
        start = len(self.spans)
        self._install()
        self._run_id = run_id
        idx = self._open(f"{ROOT_LAYER}.{kind}")
        try:
            yield
        finally:
            self._close(idx)
            self._uninstall()
            if not keep:
                del self.spans[start:]

    def _wrapper(self, name, fn, points_arg, path_arg):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pts = _points(args[points_arg]) if points_arg is not None else 0
            idx = self._open(name, pts)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if path_arg is not None and len(args) > path_arg:
                    try:
                        self.spans[idx].bytes = os.path.getsize(args[path_arg])
                    except (OSError, TypeError):
                        pass
        return traced

    def _install(self) -> None:
        """Replace every traced function under each prodmlp attribute naming it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "prodmlp" or n.startswith("prodmlp.")) and m is not None]
        for name, modname, attr, points_arg, path_arg in SITES:
            owner = sys.modules[modname]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:
                sys.stderr.write(f"perfbench: {modname}.{attr} not found, not traced\n")
                continue
            traced = self._wrapper(name, fn, points_arg, path_arg)
            if outer:       # a method: the class attribute is the only lookup site
                self._patch(owner, leaf, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, traced)

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def span_table(spans: list[Span]) -> dict:
    """Per span name: calls, points, bytes, busy time and self time.

    Busy time counts only spans not nested in a span of the same name, so a
    re-entrant call is not counted twice.  Self time subtracts direct children.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, {"calls": 0, "points": 0, "bytes": 0,
                                        "busy_s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        row["calls"] += 1
        row["points"] += s.points
        row["bytes"] += s.bytes
        row["self_s"] += dur - child[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["busy_s"] += dur
    return table


def layer_self(table: dict) -> dict:
    """Self time summed per layer; the benchmark's own roots form ROOT_LAYER."""
    out = {layer: 0.0 for layer in LAYERS + (ROOT_LAYER,)}
    for name, row in table.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return out


def network_points_per_report(spans: list[Span], caller: str) -> float:
    """Mean network points evaluated by one metrics report made inside a span
    named caller."""
    def nearest(i: int, name: str) -> int:
        p = spans[i].parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        return p

    reports = {i: 0 for i, s in enumerate(spans)
               if s.name == "metrics.report" and nearest(i, caller) >= 0}
    for i, s in enumerate(spans):
        if s.name == "network.forward":
            r = nearest(i, "metrics.report")
            if r in reports:
                reports[r] += s.points
    return sum(reports.values()) / len(reports) if reports else 0.0
