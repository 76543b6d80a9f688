"""In-memory spans for the traced run, recorded from the benchmark's own
code around calls into each layer of the package.

- ``Tracer.span(name)`` times a block; spans carry (id, name, start,
  end, parent, thread) and stay in memory until ``Tracer.dump``.
- ``Tracer.hook(obj, attr, name)`` replaces a layer function for the
  duration of the traced execution with a wrapper that opens a span.
  ``materialize=True`` executes a returned Ray Dataset inside the span,
  so the span covers the work and not only the plan. Functions inside
  the package resolve module globals at call time, so hooking a module
  attribute also covers calls made from within the package.
- ``RayDataProbe`` records every Ray Data execution (a span per
  execution, per-operator wall/UDF time, rows and tasks from
  ``DatasetStats``) and counts schema-drift warnings from the Ray Data
  log.

A layer's self time is its span minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import re
import threading
import time

_TASKS = re.compile(r"(\d+) tasks executed")
_EXCHANGE = ("AllToAllOperator", "HashShufflingOperatorBase")
_EXCHANGE_NAMES = ("Sort", "Aggregate", "Repartition", "Shuffle", "Groupby",
                   "Zip")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing_hooks: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self.root: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def parent(self) -> int | None:
        """The innermost open span of this thread; on a helper thread
        with none open, the root span."""
        stack = self._stack()
        return stack[-1] if stack else self.root

    def record(self, name: str, start: float, end: float,
               parent: int | None, **attrs) -> None:
        """Add a finished span timed elsewhere."""
        rec = {"id": next(self._ids), "name": name, "parent": parent,
               "thread": threading.current_thread().name,
               "start": start, "end": end, **attrs}
        with self._lock:
            self.spans.append(rec)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = self.parent()
        sid = next(self._ids)
        rec = {"id": sid, "name": name, "parent": parent,
               "thread": threading.current_thread().name,
               "start": time.perf_counter(), "end": None, **attrs}
        stack.append(sid)
        try:
            yield rec
        finally:
            stack.pop()
            rec["end"] = time.perf_counter()
            with self._lock:
                self.spans.append(rec)

    @contextlib.contextmanager
    def root_span(self, name: str):
        with self.span(name) as rec:
            self.root = rec["id"]
            try:
                yield rec
            finally:
                self.root = None

    def patch(self, obj, attr: str, make_wrapper) -> None:
        """Replace ``obj.attr`` with ``make_wrapper(original)`` until
        ``unhook_all``; a missing attribute is recorded, not raised."""
        orig = getattr(obj, attr, None)
        if orig is None:
            self.missing_hooks.append(f"{getattr(obj, '__name__', obj)}.{attr}")
            return
        setattr(obj, attr, make_wrapper(orig))
        self._restore.append((obj, attr, orig))

    def hook(self, obj, attr: str, name: str, materialize: bool = False):
        def make_wrapper(orig):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    out = orig(*args, **kwargs)
                    if materialize and hasattr(out, "materialize"):
                        out = out.materialize()
                    return out
            return wrapper

        self.patch(obj, attr, make_wrapper)

    def unhook_all(self) -> None:
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    # ---------------------------------------------------------- derived

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the union of the
        intervals its children cover."""
        kids: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cur_end = s["start"]
            for c in sorted(kids.get(s["id"], []), key=lambda c: c["start"]):
                lo = max(c["start"], cur_end)
                hi = min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cur_end = hi
            out[s["name"]] = out.get(s["name"], 0.0) + (
                s["end"] - s["start"] - covered)
        return out

    def dump(self, path: str, extra: dict) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                 for s in sorted(self.spans, key=lambda s: s["start"])]
        with open(path, "w") as f:
            json.dump({"spans": spans, "self_s": self.self_times(),
                       "missing_hooks": self.missing_hooks, **extra},
                      f, indent=1, default=str)


def op_kind(name: str) -> str:
    """Operator family used for the per-operator metrics: ``read``,
    ``exchange`` (all-to-all) or ``map`` (everything else)."""
    if name.startswith("Read"):
        return "read"
    if any(k in name for k in _EXCHANGE_NAMES):
        return "exchange"
    return "map"


class _SchemaWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "different schema" in record.getMessage():
            self.count += 1


class RayDataProbe:
    """Counts Ray Data executions, all-to-all operators, tasks and
    schema warnings, and records per-execution spans and operator
    stats. Install after ``ray.init``; uninstall before shutdown."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.executions = 0
        self.all_to_all_ops = 0
        self.ops: list[dict] = []
        self._seen: list = []
        self._schema = _SchemaWarnings()
        self._callback = None
        self._starts: dict[str, tuple[float, int | None]] = {}
        self._lock = threading.Lock()

    @property
    def schema_warnings(self) -> int:
        return self._schema.count

    def install(self) -> None:
        from ray.data import DataContext
        from ray.data._internal.execution import execution_callback as ec

        probe = self

        class _Callback(ec.ExecutionCallback):
            # the DataContext travels to Ray workers with its callbacks;
            # there the callback is Ray's no-op base class
            def __reduce__(self):
                return ec.ExecutionCallback, ()

            # each Dataset deep-copies the context; the copy must report
            # to this probe
            def __deepcopy__(self, memo):
                return self

            def before_execution_starts(self, executor):
                probe._started(executor)

            def after_execution_succeeds(self, executor):
                probe._finished(executor, ok=True)

            def after_execution_fails(self, executor, error):
                probe._finished(executor, ok=False)

        self._callback = _Callback()
        self._ctx = DataContext.get_current()
        # read the default list first so Ray's own callbacks stay on
        ec.get_execution_callbacks(self._ctx)
        ec.add_execution_callback(self._callback, self._ctx)
        logging.getLogger("ray.data").addHandler(self._schema)

    def uninstall(self) -> None:
        from ray.data._internal.execution import execution_callback as ec
        if self._callback is not None:
            ec.remove_execution_callback(self._callback, self._ctx)
            self._callback = None
        logging.getLogger("ray.data").removeHandler(self._schema)

    def _started(self, executor) -> None:
        parent = self.tracer.parent()
        with self._lock:
            self.executions += 1
            self.all_to_all_ops += sum(
                1 for op in getattr(executor, "_topology", {})
                if any(c.__name__ in _EXCHANGE for c in type(op).__mro__))
            self._starts[executor._dataset_id] = (time.perf_counter(), parent)

    def _finished(self, executor, ok: bool) -> None:
        end = time.perf_counter()
        start, parent = self._starts.pop(executor._dataset_id, (end, None))
        ops = []
        todo = [getattr(executor, "_final_stats", None)]
        while todo:
            stats = todo.pop()
            # a plan that starts from a materialized Dataset lists that
            # Dataset's earlier execution as a parent: count it once
            if stats is None or any(stats is s for s in self._seen):
                continue
            self._seen.append(stats)
            todo.extend(stats.parents)
            for s in stats.to_summary().operators_stats:
                m = _TASKS.search(s.block_execution_summary_str or "")
                ops.append({
                    "name": re.sub(r"[^A-Za-z0-9_.-]+", "_", s.operator_name),
                    "sub": bool(s.is_sub_operator),
                    "wall_s": (s.wall_time or {}).get("sum", 0.0),
                    "udf_s": (s.udf_time or {}).get("sum", 0.0),
                    "rows": (s.output_num_rows or {}).get("sum", 0),
                    "tasks": int(m.group(1)) if m else 0})
        with self._lock:
            self.ops.extend(ops)
        self.tracer.record("ray.execution", start, end, parent, ok=ok,
                           dataset=executor._dataset_id,
                           ops=[o["name"] for o in ops])

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {
            "ray.executions": self.executions,
            "ray.all_to_all_ops": self.all_to_all_ops,
            "ray.tasks": sum(o["tasks"] for o in self.ops),
            "ray.schema_warnings": self.schema_warnings,
        }
        # per family, sub-stages of an exchange included
        for kind in ("read", "map", "exchange"):
            sel = [o for o in self.ops if op_kind(o["name"]) == kind]
            for key in ("wall_s", "udf_s", "rows", "tasks"):
                out[f"op.{kind}.{key}"] = sum(o[key] for o in sel)
        return out
