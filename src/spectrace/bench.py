"""Benchmark harnesses: approximation error, 1-NN classification, drift series.

Results are plain dataclass rows with CSV emitters:
error rows      graph,method,kind,rel_error,seconds
classification  dataset,kind,method,mean_acc,std,repeats
snapshots       index,distance,added,removed

The emitters write through ``csv.writer`` with the csv module's minimal
quoting: a field that holds a comma, a quote or a newline is quoted, so a
graph or dataset name with a comma keeps its column; every other field is
left bare, and a number reads as ``repr`` writes it. The ``classify``
manifest is not read that way: each of its lines splits at every comma, so
it cannot list a path that holds one.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from . import descriptors as dsc
from .errors import UndefinedDensityError
from .graphs import Graph, SnapshotSeries
from .slq import SlqConfig

__all__ = [
    "METHODS",
    "ErrorRow",
    "compute_descriptor",
    "ClassificationResult",
    "SnapshotRow",
    "error_benchmark",
    "knn_accuracy",
    "snapshot_distance_series",
    "write_error_csv",
    "write_classification_csv",
    "write_snapshot_csv",
]


@dataclass(frozen=True)
class ErrorRow:
    graph_id: str
    method: str
    kind: str
    rel_error: float
    seconds: float


@dataclass(frozen=True)
class ClassificationResult:
    mean_accuracy: float
    std: float
    repeats: int


@dataclass(frozen=True)
class SnapshotRow:
    index: int
    distance: float
    added: int
    removed: int


# Each descriptor kind's methods, by CLI name: (g, grid, cfg, k, threads) -> descriptor
METHODS: dict[str, dict[str, Callable]] = {
    "netlsd": {
        "exact": lambda g, grid, cfg, k, threads: dsc.netlsd_exact(g, grid),
        "slq": lambda g, grid, cfg, k, threads: dsc.netlsd_slq(g, grid, cfg, threads=threads),
        "taylor": lambda g, grid, cfg, k, threads: dsc.netlsd_taylor(g, grid),
        "linear": lambda g, grid, cfg, k, threads: dsc.netlsd_linear(g, grid, k),
    },
    "vnge": {
        "exact": lambda g, grid, cfg, k, threads: dsc.vnge_exact(g),
        "slq": lambda g, grid, cfg, k, threads: dsc.vnge_slq(g, cfg, threads=threads),
        "taylor": lambda g, grid, cfg, k, threads: dsc.vnge_taylor(g),
        "finger-hat": lambda g, grid, cfg, k, threads: dsc.vnge_finger(g, "hat"),
        "finger-bar": lambda g, grid, cfg, k, threads: dsc.vnge_finger(g, "bar"),
    },
}


def compute_descriptor(
    g: Graph,
    kind: str,
    method: str,
    grid: dsc.TimeGrid,
    cfg: SlqConfig,
    k: int,
    threads: int = 1,
):
    route = METHODS.get(kind, {}).get(method)
    if route is None:
        raise ValueError(f"unknown descriptor method {method!r} for kind {kind!r}")
    return route(g, grid, cfg, k, threads)


def error_benchmark(
    graphs: Sequence[tuple[str, Graph]],
    kind: str,
    methods: Sequence[str],
    *,
    grid: dsc.TimeGrid | None = None,
    cfg: SlqConfig | None = None,
    k: int = 300,
    threads: int = 1,
) -> list[ErrorRow]:
    """Relative error of each method against the exact descriptor, per graph.

    Graphs the exact route refuses (too large for the dense reference, or
    with no defined reference) give skipped rows, marked by a NaN rel_error,
    rather than failing the whole run; so does a reference of zero norm.
    Wall time covers the descriptor computation only.
    """
    grid = grid or dsc.TimeGrid()
    cfg = cfg or SlqConfig()
    rows: list[ErrorRow] = []
    for graph_id, g in graphs:
        try:
            reference = compute_descriptor(g, kind, "exact", grid, cfg, k, threads)
        except ValueError:
            reference = None
        for method in methods:
            rel, elapsed = float("nan"), 0.0
            if reference is not None:
                start = time.perf_counter()
                approx = compute_descriptor(g, kind, method, grid, cfg, k, threads)
                elapsed = time.perf_counter() - start
                distance = dsc.descriptor_distance(approx, reference)
                try:
                    # an exact match stays well-defined even at zero norm
                    rel = 0.0 if distance == 0.0 else dsc.relative_error(approx, reference)
                except ValueError:
                    pass  # a reference of zero norm: rel stays NaN
            rows.append(ErrorRow(graph_id, method, kind, rel, elapsed))
    return rows


def _feature_matrix(features: Sequence) -> np.ndarray:
    mat = []
    for f in features:
        if isinstance(f, dsc.HeatTraceDescriptor):
            mat.append(np.asarray(f.values, dtype=np.float64))
        elif isinstance(f, dsc.EntropyValue):
            mat.append(np.array([f.value]))
        else:
            mat.append(np.atleast_1d(np.asarray(f, dtype=np.float64)))
    shapes = {m.shape for m in mat}
    if len(shapes) != 1:
        raise ValueError(f"features have mixed shapes: {sorted(shapes)}")
    return np.vstack(mat)


def knn_accuracy(
    features: Sequence,
    labels: Sequence,
    train_frac: float = 0.8,
    repeats: int = 1000,
    seed: int = 0,
) -> ClassificationResult:
    """1-nearest-neighbor accuracy over repeated uniform train/test splits.

    Each test item takes the label of its Euclidean-nearest training item;
    exact distance ties go to the lowest original training index. Splits are
    plain uniform permutations (not stratified), deterministic per seed.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if len(features) == 0:
        raise ValueError("no features to classify")
    x = _feature_matrix(features)
    y = np.asarray(labels)
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"{n} features but {y.shape[0]} labels")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 members")
    n_train = int(round(train_frac * n))
    if not 1 <= n_train <= n - 1:
        raise ValueError(f"train_frac {train_frac} leaves an empty split for n={n}")

    # Pairwise squared distances once; splits only re-index them.
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)

    rng = np.random.default_rng(seed)
    accuracies = np.empty(repeats)
    for r in range(repeats):
        perm = rng.permutation(n)
        train = np.sort(perm[:n_train])
        test = perm[n_train:]
        # argmin picks the first minimum; train is sorted, so ties resolve
        # to the lowest original index.
        nearest = train[np.argmin(d2[np.ix_(test, train)], axis=1)]
        accuracies[r] = float(np.mean(y[nearest] == y[test]))
    return ClassificationResult(
        mean_accuracy=float(accuracies.mean()),
        std=float(accuracies.std()),
        repeats=repeats,
    )


def snapshot_distance_series(
    series: SnapshotSeries,
    kind: str,
    method: str,
    *,
    grid: dsc.TimeGrid | None = None,
    cfg: SlqConfig | None = None,
    k: int = 300,
    threads: int = 1,
) -> list[SnapshotRow]:
    """Descriptor distance of every snapshot to snapshot 0, with cumulative
    edge churn. A snapshot that is the previous one's Graph object (a bucket
    that leaves the edge set unchanged) reuses its descriptor.

    A snapshot whose density matrix is undefined (one without edges, for
    the entropy) gets a NaN distance, as does every snapshot when snapshot 0
    is that one; any other error fails the series.

    The series is iterated once, building each snapshot as it is reached:
    only the previous Graph and snapshot 0's descriptor are held, so memory
    does not grow with the number of snapshots."""
    if len(series) == 0:
        raise ValueError("empty snapshot series")
    grid = grid or dsc.TimeGrid()
    cfg = cfg or SlqConfig()

    def describe(g):
        try:
            return compute_descriptor(g, kind, method, grid, cfg, k, threads)
        except UndefinedDensityError:
            return None

    snapshots = iter(series)
    prev = next(snapshots)
    base = desc = describe(prev)  # None where the density matrix is undefined
    distances = [0.0 if base else float("nan")]
    for g in snapshots:
        if g is not prev:
            desc = describe(g)
        distances.append(dsc.descriptor_distance(desc, base) if base and desc else float("nan"))
        prev = g
    return [
        SnapshotRow(index=i, distance=dist, added=series.added[i], removed=series.removed[i])
        for i, dist in enumerate(distances)
    ]


def _write_csv(stream: IO[str], header: str, rows: Iterable[tuple]) -> None:
    """A header and rows through one csv writer: lines end in "\\n", not the
    module's default "\\r\\n", and a field is quoted only where it holds a
    comma, a quote or a newline."""
    csv.writer(stream, lineterminator="\n").writerows([header.split(","), *rows])


def write_error_csv(rows: Sequence[ErrorRow], stream: IO[str]) -> None:
    _write_csv(stream, "graph,method,kind,rel_error,seconds",
               ((r.graph_id, r.method, r.kind, r.rel_error, r.seconds) for r in rows))


def write_classification_csv(
    dataset: str, kind: str, method: str, result: ClassificationResult, stream: IO[str]
) -> None:
    _write_csv(stream, "dataset,kind,method,mean_acc,std,repeats",
               [(dataset, kind, method, result.mean_accuracy, result.std, result.repeats)])


def write_snapshot_csv(rows: Sequence[SnapshotRow], stream: IO[str]) -> None:
    _write_csv(stream, "index,distance,added,removed",
               ((r.index, r.distance, r.added, r.removed) for r in rows))
