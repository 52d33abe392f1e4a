"""Graph ingestion and generation.

Graphs are immutable, undirected, simple (no self-loops, no parallel edges)
and stored in compressed sparse row form. The edge-list text format is one
edge per line, ``src dst [weight]``, whitespace separated by default, with
``#`` comment lines. Directed input is symmetrized, self-loops are dropped,
and duplicate edges collapse to the maximum weight seen. Temporal event
streams use one event per line, ``timestamp op src dst`` with
``op in {add, del}``; snapshots are cumulative per time bucket and treat
edges as unweighted. ``load_snapshots`` reads and checks the whole stream
at once but builds no graph: its series builds each snapshot as it is
reached, so memory does not grow with the bucket count. Vertex ids must lie
below ``VERTEX_ID_LIMIT``.

Text is read in bulk with ``np.loadtxt``, one record per line. Input that
the bulk reader cannot take whole (a malformed line, or a token only
Python's ``int``/``float`` accept, such as ``1_0``) is re-read line by line;
that reader is the authority on what is valid and reports errors with their
line number.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import EdgeListError

__all__ = [
    "Graph",
    "SnapshotSeries",
    "VERTEX_ID_LIMIT",
    "BUCKET_LIMIT",
    "parse_edge_list",
    "erdos_renyi",
    "load_snapshots",
    "write_edge_list",
]

VERTEX_ID_LIMIT = 1 << 31
"""Vertex ids must be below this, so that the pair key ``lo * n + hi`` fits in int64."""

BUCKET_LIMIT = 1 << 20
"""Most snapshots an event stream may span; each costs a descriptor downstream."""


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph in CSR form.

    Attributes
    ----------
    n : int
        Vertex count.
    row_offsets : ndarray, shape (n+1,), int64
        CSR row pointers; ``row_offsets[n] == 2*m`` for simple graphs.
    col_indices : ndarray, int64
        Neighbor indices, sorted within each row.
    weights : ndarray, float64
        Strictly positive edge weights (1.0 everywhere if unweighted).
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.row_offsets, self.col_indices, self.weights):
            arr.flags.writeable = False

    @property
    def m(self) -> int:
        """Number of undirected edges: each is stored once in either row."""
        return self.col_indices.size // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.weights, other.weights)
        )

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as (u, v, w) with u < v."""
        rows = np.repeat(np.arange(self.n), np.diff(self.row_offsets))
        upper = rows < self.col_indices
        return zip(
            rows[upper].tolist(),
            self.col_indices[upper].tolist(),
            self.weights[upper].tolist(),
        )

    def content_hash(self) -> str:
        """Hex digest identifying the canonical graph content."""
        h = hashlib.sha256()
        h.update(np.int64(self.n).tobytes())
        h.update(self.row_offsets.tobytes())
        h.update(self.col_indices.tobytes())
        h.update(self.weights.tobytes())
        return h.hexdigest()


class _Snapshots(Sequence):
    """The cumulative graphs of an event stream, built one at a time by replay.

    Holds only what the replay needs: the vertex count ``n``, the sorted edge
    keys ``lo * n + hi``, each edge event's index into them and whether it
    adds, and ``ends[b]``, the number of edge events in buckets 0 .. b. Each
    pass starts from an empty live mask, applies one bucket's events at a
    time and builds one Graph per bucket that has edge events; a bucket
    without any yields the previous bucket's Graph object. An index or a
    slice replays the stream up to the index.
    """

    def __init__(self, n, live_keys, key_index, is_add, ends):
        self._n, self._live_keys, self._key_index = n, live_keys, key_index
        self._is_add, self._ends = is_add, ends

    def __len__(self) -> int:
        return self._ends.size

    def __iter__(self) -> Iterator[Graph]:
        n, live_keys, key_index, is_add = self._n, self._live_keys, self._key_index, self._is_add
        live = np.zeros(live_keys.size, dtype=bool)
        start, graph = 0, None
        for end in self._ends.tolist():
            if end > start:
                # The last event of each edge in the bucket sets its state.
                last, at = np.unique(key_index[start:end][::-1], return_index=True)
                live[last] = is_add[start:end][::-1][at]
                start, graph = end, None
            if graph is None:
                lo, hi = np.divmod(live_keys[live], n)
                graph = _build_csr(n, lo, hi, np.ones(lo.size))
            yield graph

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, int):
            return next(islice(self, picked, None))
        found = [g for i, g in zip(range(max(picked, default=-1) + 1), self) if i in picked]
        return found if picked.step > 0 else found[::-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Snapshots):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class SnapshotSeries:
    """Cumulative graph snapshots of a timestamped edge-event stream.

    ``snapshots`` is a read-only sequence that builds each Graph as it is
    reached: iterate over it once to hold one snapshot at a time. An index
    or a slice replays the stream up to the index, and each pass builds new
    Graph objects. ``timestamps[i]`` is the end of bucket i. ``added[i]`` /
    ``removed[i]`` count the effective edge insertions and deletions applied
    up to and including bucket i. ``ignored_deletes`` counts delete events
    that targeted an absent edge.
    """

    snapshots: Sequence[Graph]
    timestamps: list[float]
    added: list[int]
    removed: list[int]
    ignored_deletes: int = 0

    def __len__(self) -> int:
        return len(self.snapshots)


def _build_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> Graph:
    """Assemble the canonical Graph on n vertices from int64 edge arrays.

    Self-loops are dropped, the remaining edges are symmetrized, and an edge
    given more than once keeps its maximum weight.
    """
    # Each temporary is deleted once dead, and the results are allocated
    # before the last sort's scratch: allocated after it, they can sit above
    # the freed scratch in the heap and keep it from going back to the
    # system. With parse_edge_list freeing its text first, parsing ER(1M)
    # peaks at 562 MB of RSS, 3.5x the graph, against 1,296 MB without.
    # mode="clip" changes no index of a permutation, where the default
    # "raise" gathers into a hidden copy of out.
    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]
    del keep
    keys = np.minimum(u, v)
    keys *= n
    keys += np.maximum(u, v)
    del u, v
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    w = np.maximum.reduceat(w[order], starts)
    del order
    lo, hi = np.divmod(keys[starts], n)
    del keys, starts
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    del lo, hi
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_offsets[1:])
    col_indices = np.empty_like(cols)
    weights = np.empty(cols.size)
    rows *= n
    rows += cols
    order = np.argsort(rows)
    del rows
    np.take(cols, order, out=col_indices, mode="clip")
    del cols
    np.take(np.concatenate([w, w]), order, out=weights, mode="clip")
    return Graph(n=n, row_offsets=row_offsets, col_indices=col_indices, weights=weights)


def _read_lines(stream: IO[str] | str | Iterable[str]) -> tuple[str, list[str]]:
    """Read the whole input once; return its text and its lines.

    A string splits as ``str.splitlines`` does, an open file at ``"\\n"`` as
    iterating over it does, and any other iterable yields one line per item.
    """
    if isinstance(stream, str):
        return stream, stream.splitlines()
    if hasattr(stream, "read"):
        text = stream.read()
        return text, text.split("\n")
    lines = [line.rstrip("\n") for line in stream]
    return "\n".join(lines), lines


def _bulk_rows(text: str, lines: list[str], separator: str | None,
               comment_prefix: str, dtype: np.dtype) -> np.ndarray | None:
    """Read every non-comment line with one ``np.loadtxt``; None on any failure.

    Warnings are raised as errors: numpy 1.24-1.26 read ``"4.0"`` into an
    int64 field with only a DeprecationWarning, which ``int`` would reject.
    """
    if comment_prefix in text:
        lines = [line for line in lines if not line.strip().startswith(comment_prefix)]
    if separator is not None:
        # np.loadtxt skips whitespace-only lines only when it splits on whitespace
        lines = [line for line in lines if not line.isspace()]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=dtype, comments=None, delimiter=separator, ndmin=1)
    except (ValueError, TypeError, Warning):
        return None
    return rows if rows.size else None


def _ids_in_range(*ids: np.ndarray) -> bool:
    return all(x.min() >= 0 and x.max() < VERTEX_ID_LIMIT for x in ids)


def _check_id(u: int, v: int, line: str, lineno: int) -> None:
    if u < 0 or v < 0:
        raise EdgeListError(f"vertex ids must be nonnegative: {line!r}", lineno)
    if u >= VERTEX_ID_LIMIT or v >= VERTEX_ID_LIMIT:
        raise EdgeListError(
            f"vertex ids must be below {VERTEX_ID_LIMIT}: {line!r}", lineno
        )


_EDGE = np.dtype([("u", np.int64), ("v", np.int64)])
_WEIGHTED_EDGE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _bulk_edges(text, lines, separator, comment_prefix, weighted):
    """(u, v, w) read in bulk, or None where the line reader must decide.

    A record dtype makes ``np.loadtxt`` refuse a line with the wrong field
    count; unweighted rows get weight 1.0 and pass the same checks."""
    rows = _bulk_rows(text, lines, separator, comment_prefix,
                      _WEIGHTED_EDGE if weighted else _EDGE)
    if rows is None:
        return None
    u, v = rows["u"], rows["v"]
    w = rows["w"] if weighted else np.ones(u.size)
    if not (np.isfinite(w).all() and (w > 0).all() and _ids_in_range(u, v)):
        return None
    return u, v, w


def _line_rows(lines, separator, comment_prefix, fields, parse, empty):
    """Rows read line by line; raises EdgeListError with the line number.

    Blank and comment lines are skipped. Every other line must split into
    ``fields`` fields, which ``parse(fields, line, lineno)`` turns into as
    many numbers or rejects. Returns a float64 array of one row per line;
    ``empty`` is the message when no row is found. Vertex ids are exact in
    float64, as they lie below ``VERTEX_ID_LIMIT``; one flat list of numbers
    is faster to fill and convert than a list of row tuples.
    """
    values = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment_prefix):
            continue
        split = line.split(separator)
        if len(split) != fields:
            raise EdgeListError(f"expected {fields} fields, got {len(split)}: {line!r}", lineno)
        values.extend(parse(split, line, lineno))
    if not values:
        raise EdgeListError(empty)
    return np.array(values, dtype=np.float64).reshape(-1, fields)


def _line_edges(lines, separator, comment_prefix, weighted):
    """(u, v, w) read line by line; raises EdgeListError with the line number."""

    def parse(fields, line, lineno):
        try:
            u = int(fields[0])
            v = int(fields[1])
        except ValueError:
            raise EdgeListError(f"vertex ids must be integers: {line!r}", lineno)
        _check_id(u, v, line, lineno)
        if not weighted:
            return u, v
        try:
            w = float(fields[2])
        except ValueError:
            raise EdgeListError(f"weight must be a number: {line!r}", lineno)
        if not math.isfinite(w) or w <= 0:
            raise EdgeListError(f"weight must be strictly positive: {line!r}", lineno)
        return u, v, w

    rows = _line_rows(lines, separator, comment_prefix, 3 if weighted else 2, parse,
                      "empty input: no edges or vertices found")
    ids = rows[:, :2].astype(np.int64)
    return ids[:, 0], ids[:, 1], rows[:, 2] if weighted else np.ones(len(rows))


def parse_edge_list(
    stream: IO[str] | str | Iterable[str],
    *,
    separator: str | None = None,
    comment_prefix: str = "#",
    weighted: bool = False,
) -> Graph:
    """Parse edge-list text into a canonical Graph.

    Parameters
    ----------
    stream
        Text lines: an open file, a string, or any iterable of lines.
    separator
        Field separator; None splits on any whitespace.
    comment_prefix
        Lines starting with this prefix are skipped.
    weighted
        Expect a third positive-weight field per line.

    Raises
    ------
    EdgeListError
        On malformed lines (with line number), negative vertex ids or ids of
        at least ``VERTEX_ID_LIMIT``, nonpositive weights, or empty input.
    ValueError
        If separator or comment_prefix is the empty string.
    """
    for name, value in (("separator", separator), ("comment_prefix", comment_prefix)):
        if value == "":
            raise ValueError(f"{name} must not be empty")
    text, lines = _read_lines(stream)
    edges = _bulk_edges(text, lines, separator, comment_prefix, weighted)
    if edges is None:
        edges = _line_edges(lines, separator, comment_prefix, weighted)
    del text, lines
    u, v, w = edges
    return _build_csr(int(max(u.max(), v.max())) + 1, u, v, w)


def write_edge_list(g: Graph, stream: IO[str], *, weighted: bool = False) -> None:
    """Write a Graph back to edge-list text (one undirected edge per line)."""
    if weighted:
        lines = [f"{u} {v} {w!r}\n" for u, v, w in g.edges()]
    else:
        lines = [f"{u} {v}\n" for u, v, _ in g.edges()]
    stream.write("".join(lines))


def erdos_renyi(n: int, avg_degree: float, seed: int) -> Graph:
    """Sample G(n, p) with p = avg_degree / (n - 1) (0 at n = 1), deterministically
    per seed.

    Small pair counts use a direct Bernoulli mask over all pairs. Large ones
    draw the edge count from the exact binomial and then a uniform set of
    distinct pairs, which yields the same distribution while touching only
    O(m) memory.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= avg_degree <= n - 1:
        raise ValueError(f"avg_degree must lie in [0, {n - 1}], got {avg_degree}")
    p = avg_degree / max(n - 1, 1)
    rng = np.random.default_rng(seed)
    n_pairs = n * (n - 1) // 2
    if n_pairs <= 1 << 23:
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(n_pairs) < p
        return _build_csr(n, iu[mask], ju[mask], np.ones(int(mask.sum())))
    m_target = int(rng.binomial(n_pairs, p))
    seen = np.empty(0, dtype=np.int64)
    while seen.size < m_target:
        batch = max(2 * (m_target - seen.size), 1024)
        u = rng.integers(0, n, size=batch, dtype=np.int64)
        v = rng.integers(0, n, size=batch, dtype=np.int64)
        ok = u != v
        u, v = u[ok], v[ok]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * n + hi
        # Keep first occurrences in draw order so the accepted subset stays
        # uniform among distinct pairs.
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        if seen.size:
            keys = keys[~np.isin(keys, seen)]
        seen = np.concatenate([seen, keys[: m_target - seen.size]])
    lo, hi = np.divmod(seen, n)
    return _build_csr(n, lo, hi, np.ones(seen.size))


_EVENT = np.dtype([("t", np.float64), ("op", "U4"), ("u", np.int64), ("v", np.int64)])


def _bulk_events(text, lines, comment_prefix):
    """(t, is_add, u, v) read in bulk, or None where the line reader must decide."""
    rows = _bulk_rows(text, lines, None, comment_prefix, _EVENT)
    if rows is None:
        return None
    t, op, u, v = rows["t"], rows["op"], rows["u"], rows["v"]
    is_add = op == "add"
    if not (
        (is_add | (op == "del")).all()
        and np.isfinite(t).all()
        and (t[1:] >= t[:-1]).all()
        and _ids_in_range(u, v)
    ):
        return None
    return t, is_add, u, v


def _line_events(lines, comment_prefix):
    """(t, is_add, u, v) read line by line; raises EdgeListError with the line number."""
    prev_t = -math.inf

    def parse(fields, line, lineno):
        nonlocal prev_t
        try:
            t = float(fields[0])
            u = int(fields[2])
            v = int(fields[3])
        except ValueError:
            raise EdgeListError(f"bad timestamp or vertex id: {line!r}", lineno)
        if not math.isfinite(t):
            raise EdgeListError(f"timestamp must be finite: {line!r}", lineno)
        op = fields[1]
        if op not in ("add", "del"):
            raise EdgeListError(f"unknown op {op!r} (expected add/del)", lineno)
        if t < prev_t:
            raise EdgeListError(f"timestamps must be nondecreasing: {line!r}", lineno)
        _check_id(u, v, line, lineno)
        prev_t = t
        return t, op == "add", u, v

    rows = _line_rows(lines, None, comment_prefix, 4, parse, "empty input: no events found")
    ids = rows[:, 2:].astype(np.int64)
    return rows[:, 0], rows[:, 1] == 1, ids[:, 0], ids[:, 1]


def load_snapshots(
    stream: IO[str] | str | Iterable[str],
    granularity: float,
    *,
    comment_prefix: str = "#",
) -> SnapshotSeries:
    """Bucket a sorted "timestamp op src dst" event stream into cumulative snapshots.

    One snapshot per granularity-sized time bucket between the first and last
    event (buckets with no events repeat the previous graph). Deleting an
    absent edge is ignored and counted; self-loop events are skipped. The
    whole stream is read and checked here, and every count is computed, but
    no graph is built: the series keeps the replay's arrays, not the input,
    and builds each snapshot as it is reached.

    Raises
    ------
    EdgeListError
        On malformed lines, unknown op tokens, nonfinite or unsorted
        timestamps, or vertex ids outside ``[0, VERTEX_ID_LIMIT)``.
    ValueError
        If granularity is not positive, comment_prefix is the empty string,
        or the events span more than ``BUCKET_LIMIT`` buckets.
    """
    if not granularity > 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    if not comment_prefix:
        raise ValueError("comment_prefix must not be empty")
    text, lines = _read_lines(stream)
    events = _bulk_events(text, lines, comment_prefix)
    if events is None:
        events = _line_events(lines, comment_prefix)
    t, is_add, u, v = events
    n = int(max(u.max(), v.max())) + 1
    with np.errstate(over="ignore"):  # an infinite quotient fails the span check
        bucket = np.floor(t / granularity)
    first = float(bucket[0])
    count = float(bucket[-1]) - first + 1
    if not count <= BUCKET_LIMIT:
        raise ValueError(f"the events span {count:.0f} buckets of width {granularity!r}, "
                         f"more than BUCKET_LIMIT = {BUCKET_LIMIT}")
    count = int(count)
    # Bucket numbers counted from the first; exact, as every difference is an
    # integer below BUCKET_LIMIT.
    bucket -= first

    # Self-loop events count for n and the bucket range, nothing else.
    edge = u != v
    is_add, bucket = is_add[edge], bucket[edge]
    keys = np.minimum(u[edge], v[edge]) * n + np.maximum(u[edge], v[edge])
    live_keys, key_index = np.unique(keys, return_inverse=True)

    # An event finds its edge live iff the edge's previous event was an add.
    by_key = np.argsort(key_index, kind="stable")
    follows_add = np.zeros(keys.size, dtype=bool)
    follows_add[1:] = is_add[by_key[:-1]] & (key_index[by_key[1:]] == key_index[by_key[:-1]])
    was_live = np.empty_like(follows_add)
    was_live[by_key] = follows_add
    # Counts after the first i edge events, i = 0 .. events.
    added = np.append(0, np.cumsum(is_add & ~was_live))
    removed = np.append(0, np.cumsum(~is_add & was_live))
    ignored = int(np.count_nonzero(~is_add & ~was_live))

    # ends[b] is the number of edge events in buckets 0 .. b.
    ends = np.searchsorted(bucket, np.arange(count), side="right")
    return SnapshotSeries(
        snapshots=_Snapshots(n, live_keys, key_index, is_add, ends),
        timestamps=((first + np.arange(1, count + 1)) * granularity).tolist(),
        added=added[ends].tolist(),
        removed=removed[ends].tolist(),
        ignored_deletes=ignored,
    )
