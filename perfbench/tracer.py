"""In-memory span tracer installed around spectrace's layer boundaries.

Wrappers replace module attributes at the sites where spectrace looks them
up at call time (``spectrace.cli.parse_edge_list``, ``spectrace.slq.
lanczos_tridiagonalize``, ...), so nothing inside ``src/`` changes. Each
wrapped call records a span (name, start, end, parent, thread); spans stay
in memory until the run ends. A span opened on a thread with no open span of
its own (a probe worker of the slq thread pool) takes the innermost open slq
span as its parent. A name missing from its module is recorded as absent and
left unwrapped, so a refactor that removes a call site never crashes a run.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

LAYERS = ("graphs", "operators", "lanczos", "slq", "descriptors", "bench", "cli")

# Vector passes per matvec beyond the CSR arrays (each 8 bytes per vertex):
# reads and writes of the elementwise products and the difference that
# operators.make_operator composes around the sparse product.
_VECTOR_PASSES = {"normalized_laplacian": 13, "density": 9, "laplacian": 7}
_VECTOR_FLOPS = {"normalized_laplacian": 4, "density": 3, "laplacian": 2}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def self_intervals(span: Span, children: list[Span]) -> list[tuple[float, float]]:
    """The parts of span's interval that no child span covers.

    Children from several threads may overlap one another; only the union of
    their intervals is removed, so overlap is never subtracted twice.
    """
    covered = _merge(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    )
    out = []
    cursor = span.start
    for lo, hi in covered:
        if lo > cursor:
            out.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < span.end:
        out.append((cursor, span.end))
    return out


class Tracer:
    """Records spans and counters; owns the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.minima: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopters: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, adopt: bool = False) -> int:
        """Start a span on the calling thread; returns its index."""
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._adopters[-1] if self._adopters else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                                   threading.get_ident()))
            if adopt:
                self._adopters.append(index)
        stack.append(index)
        return index

    def close(self, index: int, adopt: bool = False) -> None:
        self._stack().pop()
        end = time.perf_counter()
        with self._lock:
            self.spans[index].end = end
            if adopt:
                self._adopters.remove(index)

    @contextmanager
    def span(self, name: str, *, adopt: bool = False):
        index = self.open(name, adopt)
        try:
            yield
        finally:
            self.close(index, adopt)

    def add(self, key: str, value: float = 1.0, *more: tuple[str, float]) -> None:
        """Add value to counter key, and each (key, value) pair in more."""
        with self._lock:
            self.counts[key] += value
            for k, v in more:
                self.counts[k] += v

    def observe_min(self, key: str, value: float) -> None:
        with self._lock:
            self.minima[key] = min(self.minima.get(key, value), value)

    def observe_max(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, adopt: bool = False,
             before: Callable | None = None, after: Callable | None = None,
             on_error: Callable | None = None) -> bool:
        """Replace owner.attr by a spanned wrapper; False if attr is absent.

        ``before(args, kwargs)`` runs on the calling thread before the span
        opens; ``after(result, args, kwargs)`` may return a replacement
        result; ``on_error(exc)`` sees an exception before it propagates.
        """
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.absent.append(name)
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(name, before, args, kwargs)
            index = tracer.open(name, adopt)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    tracer._hook(name, on_error, exc)
                raise
            finally:
                tracer.close(index, adopt)
            if after is not None:
                replaced = tracer._hook(name, after, result, args, kwargs)
                if replaced is not None:
                    result = replaced
            return result

        wrapper.__wrapped__ = original
        wrapper.perfbench_wrapper = True
        # A function stored on a class must not bind twice: the wrapper is a
        # plain function too, so it binds exactly like the original.
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def _hook(self, name: str, hook: Callable, *args):
        # A counter whose call signature changed is reported absent; the
        # traced call itself still runs.
        try:
            return hook(*args)
        except (AttributeError, TypeError, IndexError, KeyError, ValueError):
            with self._lock:
                if name + ".counters" not in self.absent:
                    self.absent.append(name + ".counters")
            return None

    def restore(self) -> None:
        """Put back every attribute this tracer replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                kids[span.parent].append(span)
        return kids

    def self_map(self) -> list[list[tuple[float, float]]]:
        kids = self.children()
        return [self_intervals(s, kids.get(i, [])) for i, s in enumerate(self.spans)]


def _arg(args, kwargs, pos: int, key: str):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else None


def install(tracer: Tracer, st) -> None:
    """Wrap spectrace's layer boundaries at their call sites.

    ``st`` is the imported ``spectrace`` package. Every wrapper records a
    span named ``<layer>.<function>``; counters ride on the same calls.
    """
    cli, graphs, descriptors, slq, bench = st.cli, st.graphs, st.descriptors, st.slq, st.bench
    local = threading.local()

    # graphs
    tracer.wrap(cli, "parse_edge_list", "graphs.parse_edge_list",
                after=lambda g, a, k: tracer.add("graphs.parse_edge_list.edges", g.m))

    def count_events(series, a, k):
        tracer.add("graphs.load_snapshots.events",
                   series.added[-1] + series.removed[-1] + series.ignored_deletes)

    tracer.wrap(cli, "load_snapshots", "graphs.load_snapshots", after=count_events)
    for owner in (cli, graphs):
        tracer.wrap(owner, "erdos_renyi", "graphs.erdos_renyi")
        tracer.wrap(owner, "write_edge_list", "graphs.write_edge_list")

    # operators: wrap the returned operator's apply to count matvecs
    def traced_operator(op, args, kwargs):
        g = _arg(args, kwargs, 0, "g")
        kind = getattr(_arg(args, kwargs, 1, "kind"), "value", "")
        nnz, n = len(g.col_indices), g.n
        flops = 2 * nnz + _VECTOR_FLOPS.get(kind, 0) * n
        nbytes = 24 * nnz + 8 * (n + 1) + 8 * n * _VECTOR_PASSES.get(kind, 0)
        inner = op.apply

        def apply(x):
            index = tracer.open("operators.matvec")
            try:
                return inner(x)
            finally:
                tracer.close(index)
                tracer.add("operators.matvec.flops", flops, ("operators.matvec.bytes", nbytes))

        try:
            return dataclasses.replace(op, apply=apply)
        except (TypeError, ValueError):
            tracer.absent.append("operators.matvec")
            return op

    tracer.wrap(descriptors, "make_operator", "operators.make_operator",
                after=traced_operator)

    # lanczos
    def note_interval(args, kwargs):
        op = _arg(args, kwargs, 0, "op")
        local.interval = getattr(op, "interval", None)
        local.requested = min(_arg(args, kwargs, 2, "s"), op.dim)

    def count_steps(tri, args, kwargs):
        tracer.add("lanczos.steps.total", tri.steps)
        tracer.observe_min("lanczos.steps.min", tri.steps)
        if tri.steps < local.requested:
            tracer.add("lanczos.breakdowns")

    def count_clamps(rule, args, kwargs):
        interval = getattr(local, "interval", None)
        if interval is None:
            return
        lo, hi = interval
        below, above = lo - rule.nodes, rule.nodes - hi
        clamped = int((below > 0).sum() + (above > 0).sum())
        if clamped:
            tracer.add("lanczos.clamped_nodes", clamped)
            tracer.observe_max("lanczos.clamp_max", float(max(below.max(), above.max())))

    tracer.wrap(slq, "lanczos_tridiagonalize", "lanczos.tridiagonalize",
                before=note_interval, after=count_steps)
    tracer.wrap(slq, "quadrature_rule", "lanczos.quadrature_rule", after=count_clamps)

    def count_failure(exc):
        if isinstance(exc, st.errors.ConvergenceError):
            tracer.add("lanczos.extremal_eigenvalues.failures")

    tracer.wrap(descriptors, "extremal_eigenvalues", "lanczos.extremal_eigenvalues",
                on_error=count_failure)
    tracer.wrap(descriptors, "dense_spectrum", "lanczos.dense_spectrum")

    # slq: the spans probe worker threads attach to
    def count_evals(points):
        def before(args, kwargs):
            cfg = _arg(args, kwargs, 3 if points else 2, "cfg")
            grid = _arg(args, kwargs, 2, "grid") if points else (None,)
            tracer.add("slq.quadrature_evals", cfg.n_v * len(grid))
        return before

    tracer.wrap(descriptors, "slq_trace", "slq.slq_trace", adopt=True,
                before=count_evals(False))
    tracer.wrap(descriptors, "slq_trace_grid", "slq.slq_trace_grid", adopt=True,
                before=count_evals(True))

    # descriptors
    for fn in DESCRIPTOR_FUNCTIONS:
        tracer.wrap(descriptors, fn, "descriptors." + fn)
    tracer.wrap(descriptors, "descriptor_distance", "descriptors.descriptor_distance")
    tracer.wrap(descriptors, "relative_error", "descriptors.relative_error")
    tracer.wrap(descriptors, "descriptor_to_json", "descriptors.to_json")
    tracer.wrap(graphs.Graph, "content_hash", "descriptors.content_hash")

    # bench
    for fn in ("compute_descriptor", "error_benchmark", "knn_accuracy",
               "snapshot_distance_series", "write_error_csv",
               "write_classification_csv", "write_snapshot_csv"):
        tracer.wrap(bench, fn, "bench." + fn)


def leftover_wrappers(st) -> list[str]:
    """Names in spectrace's wrapped namespaces that still hold a wrapper."""
    owners = (st.cli, st.graphs, st.graphs.Graph, st.descriptors, st.slq, st.bench)
    return [f"{owner.__name__}.{name}" for owner in owners
            for name, value in vars(owner).items()
            if getattr(value, "perfbench_wrapper", False)]


DESCRIPTOR_FUNCTIONS = ("netlsd_exact", "netlsd_slq", "netlsd_taylor", "netlsd_linear",
                        "vnge_exact", "vnge_slq", "vnge_taylor", "vnge_finger")


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time is ``wall``.

    ``busy_s`` sums span durations (threads may overlap); ``wall_s`` and
    ``self_s`` measure unions of intervals, so overlapping spans of worker
    threads count once.
    """
    spans = tracer.spans
    selfs = tracer.self_map()
    kids = tracer.children()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def busy(name):
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ()))

    def calls(name):
        return float(len(by_name.get(name, ())))

    def self_of(indices):
        return union_length(iv for i in indices for iv in selfs[i])

    def wall_of(indices):
        return union_length((spans[i].start, spans[i].end) for i in indices)

    layer_index: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        layer_index[s.layer].append(i)

    slq_spans = by_name.get("slq.slq_trace", []) + by_name.get("slq.slq_trace_grid", [])
    slq_wall = sum(spans[i].end - spans[i].start for i in slq_spans)
    slq_child_busy = sum(c.end - c.start for i in slq_spans for c in kids.get(i, []))
    desc_spans = [i for fn in DESCRIPTOR_FUNCTIONS for i in by_name.get("descriptors." + fn, [])]

    m = {
        "graphs.parse_edge_list.calls": calls("graphs.parse_edge_list"),
        "graphs.parse_edge_list.busy_s": busy("graphs.parse_edge_list"),
        "graphs.parse_edge_list.edges": tracer.counts["graphs.parse_edge_list.edges"],
        "graphs.load_snapshots.busy_s": busy("graphs.load_snapshots"),
        "graphs.load_snapshots.events": tracer.counts["graphs.load_snapshots.events"],
        "graphs.erdos_renyi.busy_s": busy("graphs.erdos_renyi"),
        "graphs.write_edge_list.busy_s": busy("graphs.write_edge_list"),
        "operators.make_operator.busy_s": busy("operators.make_operator"),
        "operators.matvec.calls": calls("operators.matvec"),
        "operators.matvec.busy_s": busy("operators.matvec"),
        "operators.matvec.flops": tracer.counts["operators.matvec.flops"],
        "operators.matvec.bytes": tracer.counts["operators.matvec.bytes"],
        "lanczos.tridiagonalize.calls": calls("lanczos.tridiagonalize"),
        "lanczos.tridiagonalize.busy_s": busy("lanczos.tridiagonalize"),
        "lanczos.tridiagonalize.self_s": self_of(by_name.get("lanczos.tridiagonalize", [])),
        "lanczos.steps.total": tracer.counts["lanczos.steps.total"],
        "lanczos.steps.min": tracer.minima.get("lanczos.steps.min", 0.0),
        "lanczos.breakdowns": tracer.counts["lanczos.breakdowns"],
        "lanczos.quadrature_rule.calls": calls("lanczos.quadrature_rule"),
        "lanczos.quadrature_rule.busy_s": busy("lanczos.quadrature_rule"),
        "lanczos.clamped_nodes": tracer.counts["lanczos.clamped_nodes"],
        "lanczos.clamp_max": tracer.maxima.get("lanczos.clamp_max", 0.0),
        "lanczos.extremal_eigenvalues.calls": calls("lanczos.extremal_eigenvalues"),
        "lanczos.extremal_eigenvalues.busy_s": busy("lanczos.extremal_eigenvalues"),
        "lanczos.extremal_eigenvalues.failures":
            tracer.counts["lanczos.extremal_eigenvalues.failures"],
        "lanczos.dense_spectrum.busy_s": busy("lanczos.dense_spectrum"),
        "slq.calls": float(len(slq_spans)),
        "slq.wall_s": wall_of(slq_spans),
        "slq.self_s": self_of(slq_spans),
        "slq.quadrature_evals": tracer.counts["slq.quadrature_evals"],
        "slq.busy_over_wall": slq_child_busy / slq_wall if slq_wall > 0 else 0.0,
        "descriptors.calls": float(len(desc_spans)),
        "descriptors.wall_s": wall_of(desc_spans),
        "descriptors.self_s": self_of(layer_index.get("descriptors", [])),
        "descriptors.content_hash.busy_s": busy("descriptors.content_hash"),
        "descriptors.to_json.busy_s": busy("descriptors.to_json"),
        "bench.knn_accuracy.busy_s": busy("bench.knn_accuracy"),
        "bench.error_benchmark.self_s": self_of(by_name.get("bench.error_benchmark", [])),
        "bench.snapshot_distance_series.self_s":
            self_of(by_name.get("bench.snapshot_distance_series", [])),
        "cli.main.self_s": self_of(by_name.get("cli.main", [])),
    }
    for layer in LAYERS:
        own = self_of(layer_index.get(layer, []))
        m[f"{layer}.layer_self_s"] = own
        m[f"{layer}.self_share"] = own / wall if wall > 0 else 0.0
    m["trace.spans"] = float(len(spans))
    m["trace.accounted_s"] = union_length(iv for ivs in selfs for iv in ivs)
    return m
