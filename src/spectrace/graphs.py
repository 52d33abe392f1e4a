"""Graph ingestion and generation.

Graphs are immutable, undirected, simple (no self-loops, no parallel edges)
and stored in compressed sparse row form. The edge-list text format is one
edge per line, ``src dst [weight]``, whitespace separated by default, with
``#`` comment lines. Directed input is symmetrized, self-loops are dropped,
and duplicate edges collapse to the maximum weight seen. Temporal event
streams use one event per line, ``timestamp op src dst`` with
``op in {add, del}``; snapshots are cumulative per time bucket and treat
edges as unweighted. ``load_snapshots`` reads and checks the whole stream
at once but builds no graph: iterating its series replays the events that
change the edge set and builds each snapshot as it is reached, so memory
does not grow with the bucket count. Vertex ids must lie below
``VERTEX_ID_LIMIT``.

Edge lists and event streams share one record reader. Every input is split
into lines at ``"\\n"`` only and read in bulk with ``np.loadtxt``, one
record per line, a block of lines at a time. Input that the bulk reader
cannot take whole (a malformed line, or a token only Python's
``int``/``float`` accept, such as ``1_0``) is re-read line by line into
records of the same dtype; that reader is the authority on what is valid
and reports errors with their line number.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
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
    col_indices : ndarray, int32
        Neighbor indices, sorted within each row. Every vertex id lies below
        ``VERTEX_ID_LIMIT`` = 2**31, so int32 holds them all.
    weights : ndarray, float64
        Strictly positive edge weights. When every weight is 1.0, as for all
        unweighted input, this is the read-only view
        ``np.broadcast_to(np.float64(1.0), (nnz,))``, which holds 8 bytes in
        all in place of 8 per entry.

    A hand-built Graph may hold its columns as int64 and its unit weights as
    a stored array of ones: it compares equal to the lean form and has the
    same ``content_hash``.
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
        """Hex digest identifying the canonical graph content.

        It is the sha256 of n, the row offsets and the column indices as
        int64 and the weights as float64, whatever dtype or view holds them.
        Each array is converted in chunks of 64k entries, so no full-size
        copy is made.
        """
        h = hashlib.sha256()
        h.update(np.int64(self.n).tobytes())
        for arr, dtype in ((self.row_offsets, np.int64), (self.col_indices, np.int64),
                           (self.weights, np.float64)):
            for start in range(0, arr.size, 1 << 16):
                h.update(np.ascontiguousarray(arr[start:start + (1 << 16)], dtype=dtype))
        return h.hexdigest()


@dataclass(frozen=True, eq=False)
class SnapshotSeries:
    """Cumulative graph snapshots of a timestamped edge-event stream.

    Iterating the series replays the stream and yields one Graph per time
    bucket, built as it is reached, so one pass holds one snapshot at a time.
    A bucket that leaves the edge set unchanged yields the previous bucket's
    Graph object; each pass builds new Graph objects. ``timestamps[i]`` is
    the end of bucket i. ``added[i]`` / ``removed[i]`` count the effective
    edge insertions and deletions applied up to and including bucket i.
    ``ignored_deletes`` counts delete events that targeted an absent edge.

    The replay keeps the vertex count ``n``, the sorted edge keys
    ``lo * n + hi``, the index into them of each event that changes the edge
    set (``flips``), and ``ends[b]``, the number of those events in buckets
    0 .. b.
    """

    timestamps: list[float]
    added: list[int]
    removed: list[int]
    ignored_deletes: int
    n: int = field(repr=False)
    keys: np.ndarray = field(repr=False)
    flips: np.ndarray = field(repr=False)
    ends: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self) -> Iterator[Graph]:
        live = np.zeros(self.keys.size, dtype=bool)
        start, graph = 0, None
        for end in self.ends.tolist():
            if end > start:  # np.unique costs microseconds even on no events
                # An edge's changing events alternate between add and delete,
                # so an odd count of them in the bucket flips it.
                index, count = np.unique(self.flips[start:end], return_counts=True)
                flipped = index[count % 2 == 1]
                live[flipped] ^= True
                start = end
                if flipped.size:
                    graph = None
            if graph is None:
                graph = _build_csr(self.n, [*np.divmod(self.keys[live], self.n), None])
            yield graph


def _build_csr(n: int, edges: list) -> Graph:
    """Assemble the canonical Graph on n vertices from ``edges``: int64 edge
    arrays u and v and their weights w, None for unit weights, in a list
    that this function empties.

    Self-loops are dropped, the remaining edges are symmetrized, and an edge
    given more than once keeps its maximum weight. If every weight left is
    1.0, the Graph gets the unit view (see Graph).

    A caller hands its arrays over by holding no other reference to them,
    so that each is freed here once dead: building ER(200k, degree 10)
    from its pairs traced 65.6 bytes per edge while the caller held them,
    and 49.6 handed over.
    """
    # Each temporary is deleted once dead, and the results are allocated
    # before the last sort's scratch: allocated after it, they can sit above
    # the freed scratch in the heap and keep it from going back to the
    # system. With parse_edge_list freeing its text and lines first, parsing
    # ER(1M) peaked at 505 MB of RSS against 1,296 MB without.
    # mode="clip" changes no index of a permutation, where the default
    # "raise" gathers into a hidden copy of out.
    u, v, w = edges
    edges.clear()
    keep = u != v
    u, v = u[keep], v[keep]
    if w is not None:
        w = w[keep]
    del keep
    keys = np.minimum(u, v)
    keys *= n
    keys += np.maximum(u, v)
    del u, v
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if w is not None:
        w = np.maximum.reduceat(w[order], starts)
        if (w == 1.0).all():
            w = None
    del order
    lo, hi = np.divmod(keys[starts], n)
    del keys, starts
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo], dtype=np.int32, casting="same_kind")
    del lo, hi
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_offsets[1:])
    col_indices = np.empty_like(cols)
    if w is None:
        weights = np.broadcast_to(np.float64(1.0), cols.shape)
    else:
        weights = np.empty(cols.size)
    rows *= n
    rows += cols
    order = np.argsort(rows)
    del rows
    np.take(cols, order, out=col_indices, mode="clip")
    del cols
    if w is not None:
        np.take(np.concatenate([w, w]), order, out=weights, mode="clip")
    return Graph(n=n, row_offsets=row_offsets, col_indices=col_indices, weights=weights)


def _read_lines(stream, comment_prefix: str) -> tuple[str, bool]:
    """Read the whole input once; return its lines as one text, and whether
    comment_prefix occurs in it.

    A string is the text, an open file is read whole, and any other
    iterable's lines are joined with ``"\\n"``, each without its trailing
    ``"\\n"``. The text splits at ``"\\n"`` only, as iterating over a file
    does, so the same text reads the same way in every form; a ``"\\r"``
    left at a line's end is stripped with its whitespace.
    """
    if hasattr(stream, "read"):
        stream = stream.read()
    elif not isinstance(stream, str):
        stream = "\n".join(line.rstrip("\n") for line in stream)
    return stream, comment_prefix in stream


# Characters per block of lines that the bulk reader splits and loads at once.
_READ_CHARS = 1 << 16


def _bulk_rows(text: str, commented: bool, separator: str | None,
               comment_prefix: str, dtype: np.dtype) -> np.ndarray | None:
    """Read every non-comment line with ``np.loadtxt``; None on any failure.

    The text is cut at the first ``"\\n"`` after every ``_READ_CHARS``
    characters, and each block's lines are loaded into one array of a
    record per line of the text, so no list of all the lines is held: at
    ER(1M) that list took 5M ``str`` objects, about 330 MB, next to the
    69 MB text. Comment lines are looked for only if ``commented``.
    Warnings are raised as errors: numpy 1.24-1.26 read ``"4.0"`` into an
    int64 field with only a DeprecationWarning, which ``int`` would reject.
    """
    rows = np.empty(text.count("\n") + 1, dtype)
    filled = start = 0
    while start < len(text):
        end = text.find("\n", start + _READ_CHARS)
        end = len(text) if end < 0 else end
        block, start = text[start:end], end + 1
        if block.isspace():
            continue
        lines = block.split("\n")
        del block
        if commented or separator is not None:
            # blank lines go too: np.loadtxt skips whitespace-only lines only
            # when it splits on whitespace
            lines = [line for line in lines if (stripped := line.strip())
                     and not (commented and stripped.startswith(comment_prefix))]
        if not lines:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = np.loadtxt(lines, dtype=dtype, comments=None, delimiter=separator,
                                    ndmin=1)
        except (ValueError, TypeError, Warning):
            return None
        rows[filled:filled + loaded.size] = loaded
        filled += loaded.size
    return rows[:filled] if filled else None


def _line_rows(lines, separator, comment_prefix, dtype, parse, empty):
    """Records of dtype read line by line; raises EdgeListError with the line number.

    Blank and comment lines are skipped. Every other line must split into one
    field per name of dtype, which ``parse(fields, line, lineno)`` turns into
    a tuple of values or rejects; ``empty`` is the message when no line is
    found.
    """
    fields = len(dtype.names)
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment_prefix):
            continue
        split = line.split(separator)
        if len(split) != fields:
            raise EdgeListError(f"expected {fields} fields, got {len(split)}: {line!r}", lineno)
        rows.append(parse(split, line, lineno))
    if not rows:
        raise EdgeListError(empty)
    return np.fromiter(rows, dtype=dtype, count=len(rows))


def _read_records(stream, separator, comment_prefix, dtype, columns, parse, empty):
    """The input read as records of dtype and turned into arrays by ``columns``.

    The input is read once and in bulk. ``columns(records)`` returns the
    caller's arrays, or None when a record breaks one of its rules; then the
    text is read again, line by line, by ``_line_rows``, the authority on
    what is valid, which reports the first bad line.
    """
    for name, value in (("separator", separator), ("comment_prefix", comment_prefix)):
        if value == "":
            raise ValueError(f"{name} must not be empty")
    text, commented = _read_lines(stream, comment_prefix)
    records = _bulk_rows(text, commented, separator, comment_prefix, dtype)
    result = None if records is None else columns(records)
    del records
    if result is None:
        result = columns(_line_rows(text.split("\n"), separator, comment_prefix, dtype,
                                    parse, empty))
    return result


def _ids_in_range(*ids: np.ndarray) -> bool:
    return all(x.min() >= 0 and x.max() < VERTEX_ID_LIMIT for x in ids)


def _check_id(u: int, v: int, line: str, lineno: int) -> None:
    if u < 0 or v < 0:
        raise EdgeListError(f"vertex ids must be nonnegative: {line!r}", lineno)
    if u >= VERTEX_ID_LIMIT or v >= VERTEX_ID_LIMIT:
        raise EdgeListError(
            f"vertex ids must be below {VERTEX_ID_LIMIT}: {line!r}", lineno
        )


# A record dtype makes np.loadtxt refuse a line with the wrong field count.
_EDGE = np.dtype([("u", np.int64), ("v", np.int64)])
_WEIGHTED_EDGE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


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

    def columns(rows):
        # unweighted rows get unit weights, None to _build_csr
        u, v = rows["u"], rows["v"]
        w = rows["w"] if weighted else None
        if (w is None or (np.isfinite(w).all() and (w > 0).all())) and _ids_in_range(u, v):
            return [u, v, w]
        return None

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

    # the list goes to _build_csr with its arrays, which it frees
    edges = _read_records(stream, separator, comment_prefix,
                          _WEIGHTED_EDGE if weighted else _EDGE, columns, parse,
                          "empty input: no edges or vertices found")
    return _build_csr(int(max(edges[0].max(), edges[1].max())) + 1, edges)


def _row_blocks(row_offsets: np.ndarray, entries: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges [r0, r1) that cover every row, each holding about
    ``entries`` stored entries; a longer row makes a block of its own."""
    n, r0 = row_offsets.size - 1, 0
    while r0 < n:
        r1 = int(np.searchsorted(row_offsets, row_offsets[r0] + entries, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n)
        yield r0, r1
        r0 = r1


def _edge_lines(lo: np.ndarray, hi: np.ndarray) -> str:
    """The lines ``f"{u} {v}\\n"`` of the edges (lo[i], hi[i]), formatted in numpy.

    Each line is laid out as two fields of ``width`` decimal digits, the
    digit count of the largest id, from repeated division by 10 on uint32;
    then the places of an id above its leading digit are masked out, which
    leaves a zero id its last digit. The layout is built one place per row,
    so that each row is contiguous, and read out line by line.
    """
    if not lo.size:
        return ""
    width = len(str(int(max(lo.max(), hi.max()))))
    line = np.empty((2 * width + 2, lo.size), dtype=np.uint8)
    keep = np.ones(line.shape, dtype=bool)
    for ids, start in ((lo, 0), (hi, width + 1)):
        q = ids.astype(np.uint32)
        for place in range(start + width - 1, start - 1, -1):
            np.divmod(q, 10, out=(q, line[place]), casting="unsafe")
        for place in range(start, start + width - 1):
            np.greater_equal(ids, 10 ** (start + width - 1 - place), out=keep[place])
    line += ord("0")
    line[width] = ord(" ")
    line[-1] = ord("\n")
    return line.T[keep.T].tobytes().decode("ascii")


# Stored entries per block that write_edge_list formats and writes at once.
_WRITE_ENTRIES = 1 << 17


def write_edge_list(g: Graph, stream: IO[str], *, weighted: bool = False) -> None:
    """Write a Graph back to edge-list text, one undirected edge per line.

    Each edge (u, v, w) is written once, with u < v, as ``f"{u} {v}\\n"``, or
    ``f"{u} {v} {w!r}\\n"`` if weighted; the lines are in the order of the
    CSR arrays, by u and then by v. The text is made and written one block
    of rows at a time, each of about ``_WRITE_ENTRIES`` stored entries, so
    no more of it is held at once: unweighted lines are formatted in numpy
    (``_edge_lines``), weighted ones one f-string per edge. A graph without
    edges writes nothing.
    """
    for r0, r1 in _row_blocks(g.row_offsets, _WRITE_ENTRIES):
        a, b = g.row_offsets[r0], g.row_offsets[r1]
        rows = np.repeat(np.arange(r0, r1), np.diff(g.row_offsets[r0:r1 + 1]))
        cols = g.col_indices[a:b]
        upper = rows < cols
        lo, hi = rows[upper], cols[upper]
        if weighted:
            stream.write("".join(f"{u} {v} {w!r}\n" for u, v, w in zip(
                lo.tolist(), hi.tolist(), g.weights[a:b][upper].tolist())))
        else:
            stream.write(_edge_lines(lo, hi))


# Pairs per block of the Bernoulli draws of erdos_renyi.
_DRAW_PAIRS = 1 << 16


def erdos_renyi(n: int, avg_degree: float, seed: int) -> Graph:
    """Sample G(n, p) with p = avg_degree / (n - 1) (0 at n = 1), deterministically
    per seed.

    Small pair counts use a direct Bernoulli mask over all pairs. Large ones
    draw the edge count m from the exact binomial and then a uniform set of
    m distinct pairs, which yields the same distribution while touching only
    O(m) memory. The pairs come in rounds of twice the count still missing,
    each pair keyed ``lo * n + hi``. A round drops its self-loops, keeps the
    first draw of each key and no later one, drops the keys that earlier
    rounds accepted, and accepts the rest in draw order until m are held.
    Only the draws whose key may repeat are argsorted: the repeated keys are
    found in a sorted copy of the round's keys, which took 0.2 s of the 10M
    keys at n = 1M where their argsort took 1.4 s (2-core Xeon). A round's
    draws are freed once its keys exist.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= avg_degree <= n - 1:
        raise ValueError(f"avg_degree must lie in [0, {n - 1}], got {avg_degree}")
    p = avg_degree / max(n - 1, 1)
    rng = np.random.default_rng(seed)
    n_pairs = n * (n - 1) // 2
    if n_pairs <= 1 << 23:
        # the draws come in blocks, one stream; pair k of the upper triangle,
        # row by row, is (i, i + 1 + k - offsets[i]), where offsets[i] counts
        # the pairs of the rows above i
        chosen = [np.empty(0, dtype=np.int64)]
        for start in range(0, n_pairs, _DRAW_PAIRS):
            draws = rng.random(min(_DRAW_PAIRS, n_pairs - start))
            chosen.append(np.flatnonzero(draws < p) + start)
        k = np.concatenate(chosen)
        del chosen
        offsets = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
        i = np.searchsorted(offsets, k, side="right") - 1
        k -= offsets[i]
        k += i + 1
        return _build_csr(n, [i, k, None])
    m_target = int(rng.binomial(n_pairs, p))
    seen = np.empty(0, dtype=np.int64)
    while seen.size < m_target:
        batch = max(2 * (m_target - seen.size), 1024)
        u = rng.integers(0, n, size=batch, dtype=np.int64)
        v = rng.integers(0, n, size=batch, dtype=np.int64)
        ok = u != v
        keys = np.minimum(u, v)
        keys *= n
        np.maximum(u, v, out=u)
        keys += u
        del u, v
        keys = keys[ok]
        del ok
        # Keep first occurrences in draw order so the accepted subset stays
        # uniform among distinct pairs. Keys drawn more than once are found
        # in a sorted copy, and a table of their low 20 bits picks out every
        # draw that may hold one; of those, each run of equal keys in their
        # argsort keeps its least draw index.
        ordered = np.sort(keys)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        del ordered
        if repeated.size:
            table = np.zeros(1 << 20, dtype=bool)
            table[repeated & 0xFFFFF] = True
            draws = np.flatnonzero(table[keys & 0xFFFFF])
            candidates = keys[draws]
            order = np.argsort(candidates)
            runs = np.flatnonzero(np.diff(candidates[order], prepend=-1))
            first = np.minimum.reduceat(order, runs)
            keys = np.delete(keys, np.delete(draws, first))
        if seen.size:
            keys = keys[~np.isin(keys, seen)]
        seen = np.concatenate([seen, keys[: m_target - seen.size]])
        del keys
    edges = [*np.divmod(seen, n), None]
    del seen
    return _build_csr(n, edges)


_EVENT = np.dtype([("t", np.float64), ("op", "U4"), ("u", np.int64), ("v", np.int64)])


def load_snapshots(
    stream: IO[str] | str | Iterable[str],
    granularity: float,
    *,
    comment_prefix: str = "#",
) -> SnapshotSeries:
    """Bucket a sorted "timestamp op src dst" event stream into cumulative snapshots.

    One snapshot per granularity-sized time bucket between the first and last
    event (a bucket that leaves the edge set unchanged repeats the previous
    graph). Deleting an absent edge is ignored and counted, adding a live
    edge changes nothing, and self-loop events are skipped. The whole stream
    is read and checked here, and every count is computed, but no graph is
    built: the series keeps only the events that change the edge set, not
    the input, and builds each snapshot as its iteration reaches it.

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

    def columns(rows):
        t, op, u, v = rows["t"], rows["op"], rows["u"], rows["v"]
        is_add = op == "add"
        if ((is_add | (op == "del")).all() and np.isfinite(t).all()
                and (t[1:] >= t[:-1]).all() and _ids_in_range(u, v)):
            return t, is_add, u, v
        return None

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
        return t, op, u, v

    t, is_add, u, v = _read_records(stream, None, comment_prefix, _EVENT, columns, parse,
                                    "empty input: no events found")
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

    # An event finds its edge live iff the edge's previous event was an add,
    # and changes the edge set iff it does not restate that.
    by_key = np.argsort(key_index, kind="stable")
    follows_add = np.zeros(keys.size, dtype=bool)
    follows_add[1:] = is_add[by_key[:-1]] & (key_index[by_key[1:]] == key_index[by_key[:-1]])
    was_live = np.empty_like(follows_add)
    was_live[by_key] = follows_add
    changes = is_add != was_live
    ignored = int(np.count_nonzero(~(is_add | was_live)))

    # ends[b] is the number of changing events in buckets 0 .. b.
    ends = np.searchsorted(bucket[changes], np.arange(count), side="right")
    added = np.append(0, np.cumsum(is_add[changes]))[ends]
    return SnapshotSeries(
        timestamps=((first + np.arange(1, count + 1)) * granularity).tolist(),
        added=added.tolist(),
        removed=(ends - added).tolist(),
        ignored_deletes=ignored,
        n=n,
        keys=live_keys,
        flips=key_index[changes],
        ends=ends,
    )
