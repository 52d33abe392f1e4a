"""Graph parsing, generation, and snapshot loading."""

import gc
import hashlib
import io
import math
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from spectrace import graphs
from spectrace.errors import EdgeListError
from spectrace.graphs import (
    BUCKET_LIMIT,
    VERTEX_ID_LIMIT,
    Graph,
    erdos_renyi,
    load_snapshots,
    parse_edge_list,
    write_edge_list,
)

from conftest import (
    CANCELLING_STREAM,
    disjoint_edges,
    empty_graph,
    graph_from_edges,
    pad_vertices,
    random_graph,
)


class TestParseEdgeList:
    def test_path_graph(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.m == 2
        assert list(g.edges()) == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_canonicalization(self):
        # comment skipped, mirrored duplicate collapsed, self-loop dropped
        g = parse_edge_list("# comment\n0 1\n1 0\n0 0")
        assert g.n == 2
        assert g.m == 1

    def test_max_weight_collapse(self):
        g = parse_edge_list("0 1 2.0\n0 1 3.0", weighted=True)
        assert g.m == 1
        assert list(g.edges()) == [(0, 1, 3.0)]

    def test_symmetric_csr(self):
        g = parse_edge_list("0 2\n0 1")
        assert g.row_offsets[-1] == 2 * g.m
        # col indices sorted within each row
        for u in range(g.n):
            row = g.col_indices[g.row_offsets[u]:g.row_offsets[u + 1]]
            assert np.all(np.diff(row) > 0)

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("0 1\n0 1 garbage")

    def test_nonpositive_weight(self):
        with pytest.raises(EdgeListError, match="positive"):
            parse_edge_list("0 1 -2.0", weighted=True)
        with pytest.raises(EdgeListError, match="positive"):
            parse_edge_list("0 1 0", weighted=True)

    def test_empty_input(self):
        with pytest.raises(EdgeListError, match="empty"):
            parse_edge_list("# nothing\n")

    def test_custom_separator(self):
        g = parse_edge_list("0,1\n1,2", separator=",")
        assert g.n == 3 and g.m == 2

    def test_vertex_count_is_max_id_plus_one(self):
        g = parse_edge_list("0 5")
        assert g.n == 6
        assert g.m == 1

    def test_immutability(self):
        g = parse_edge_list("0 1")
        with pytest.raises(ValueError):
            g.weights[0] = 7.0

    def test_round_trip(self):
        g = parse_edge_list("0 3 1.5\n1 2 0.25\n2 3 2.0", weighted=True)
        buf = io.StringIO()
        write_edge_list(g, buf, weighted=True)
        again = parse_edge_list(buf.getvalue(), weighted=True)
        assert again == g

    @given(
        edges=hst.lists(
            hst.tuples(hst.integers(0, 12), hst.integers(0, 12)),
            min_size=1,
            max_size=30,
        ),
        perm_seed=hst.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_line_order_independence(self, edges, perm_seed):
        lines = [f"{u} {v}" for u, v in edges]
        rng = np.random.default_rng(perm_seed)
        shuffled = [lines[i] for i in rng.permutation(len(lines))]

        def parse(ls):
            try:
                return parse_edge_list("\n".join(ls))
            except EdgeListError:
                return None  # all self-loops

        a, b = parse(lines), parse(shuffled)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b

    def test_peak_memory(self):
        # numpy reports its arrays to tracemalloc, so this peak does not
        # depend on the allocator; it read 8.9x the graph while the text,
        # its lines and every sort temporary lived to the end of the parse,
        # 3.3x while a list of every line was held, and 1.9x once the lines
        # were loaded in blocks and the records handed to _build_csr
        g = erdos_renyi(20_000, 10, seed=0)
        buf = io.StringIO()
        write_edge_list(g, buf)
        stream = io.StringIO(buf.getvalue())
        graph_bytes = g.row_offsets.nbytes + g.col_indices.nbytes + g.weights.nbytes
        tracemalloc.start()
        try:
            parsed = parse_edge_list(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * graph_bytes, peak / graph_bytes
        # an independent build: every mirrored pair once, sorted by (row, col)
        pairs = np.array(buf.getvalue().split(), dtype=np.int64).reshape(-1, 2)
        pairs = np.unique(np.concatenate([pairs, pairs[:, ::-1]]), axis=0)
        assert parsed == Graph(
            n=g.n,
            row_offsets=np.searchsorted(pairs[:, 0], np.arange(g.n + 1)),
            col_indices=pairs[:, 1].copy(),
            weights=np.ones(len(pairs)),
        )


class TestErdosRenyi:
    def test_zero_degree_is_empty(self):
        g = erdos_renyi(10, 0, seed=3)
        assert g.n == 10 and g.m == 0

    def test_full_degree_is_complete(self):
        g = erdos_renyi(5, 4, seed=0)
        assert g.m == 10

    def test_edge_count_binomial(self):
        # n=1000, avg degree 10: mean 5000, sd ~70; allow 4 sd
        g = erdos_renyi(1000, 10, seed=7)
        n_pairs = 1000 * 999 // 2
        p = 10 / 999
        sd = np.sqrt(n_pairs * p * (1 - p))
        assert abs(g.m - 5000) < 4 * sd

    def test_deterministic(self):
        a = erdos_renyi(200, 5, seed=11)
        b = erdos_renyi(200, 5, seed=11)
        assert a == b
        c = erdos_renyi(200, 5, seed=12)
        assert not (a == c)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 10, seed=0)
        with pytest.raises(ValueError):
            erdos_renyi(10, -1, seed=0)

    def test_large_sparse_path(self):
        # exercises the binomial + distinct-pair branch
        g = erdos_renyi(5000, 4, seed=5)
        n_pairs = 5000 * 4999 // 2
        p = 4 / 4999
        sd = np.sqrt(n_pairs * p)
        assert abs(g.m - 10000) < 5 * sd
        assert g == erdos_renyi(5000, 4, seed=5)

    def test_single_vertex(self):
        g = erdos_renyi(1, 0, seed=0)
        assert g.n == 1 and g.m == 0

    @pytest.mark.parametrize("draw_pairs", [1, 7, 1 << 16])
    def test_bernoulli_pairs_match_one_mask_over_all_pairs(self, draw_pairs, monkeypatch):
        # the draws come in blocks of one stream and each chosen pair index
        # maps to its row through the row offsets: the graph is the one of
        # a single mask over np.triu_indices
        monkeypatch.setattr(graphs, "_DRAW_PAIRS", draw_pairs)
        for n, degree, seed in [(2, 1, 0), (3, 1.5, 1), (10, 3, 2), (97, 9.5, 3),
                                (300, 4, 4), (1000, 10, 5)]:
            if draw_pairs == 1 and n > 100:
                continue
            rng = np.random.default_rng(seed)
            iu, ju = np.triu_indices(n, k=1)
            mask = rng.random(n * (n - 1) // 2) < degree / (n - 1)
            expected = graphs._build_csr(n, [iu[mask], ju[mask], None])
            g = erdos_renyi(n, degree, seed)
            assert g == expected and g.content_hash() == expected.content_hash()

    @pytest.mark.parametrize("n", [3000, 4096])
    def test_bernoulli_peak_memory(self, n):
        # traced: np.triu_indices over all pairs and a float64 per pair read
        # 107 MiB at n = 3000 and 200 MiB at 4096, 7.6k and 10.3k bytes per
        # edge; draws in blocks read 91 and 93
        gc.collect()
        tracemalloc.start()
        try:
            g = erdos_renyi(n, 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 120 * g.m, peak / g.m

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_single_vertex_is_the_sampled_empty_graph(self, seed):
        single = Graph(1, np.zeros(2, dtype=np.int64), np.empty(0, dtype=np.int64),
                       np.empty(0))
        g = erdos_renyi(1, 0, seed)
        assert g == single and g.content_hash() == single.content_hash()

    def test_single_vertex_needs_zero_degree(self):
        with pytest.raises(ValueError, match=r"avg_degree must lie in \[0, 0\], got 0.5"):
            erdos_renyi(1, 0.5, seed=0)


class TestLoadSnapshots:
    def test_single_bucket(self):
        s = load_snapshots("0 add 0 1\n0.5 add 1 2", granularity=1.0)
        assert len(s) == 1
        assert [g.m for g in s] == [2]

    def test_add_then_delete(self):
        s = load_snapshots("1 add 0 1\n2 del 0 1", granularity=1.0)
        assert len(s) == 2
        assert [g.m for g in s] == [1, 0]
        assert s.added == [1, 1]
        assert s.removed == [0, 1]

    def test_empty_middle_bucket_repeats(self):
        s = load_snapshots("0 add 0 1\n2.5 add 1 2", granularity=1.0)
        snapshots = list(s)
        assert len(s) == len(snapshots) == 3
        assert snapshots[1] is snapshots[0]
        assert snapshots[2].m == 2

    def test_delete_absent_edge_warns(self):
        s = load_snapshots("0 add 0 1\n0.1 del 2 3", granularity=1.0)
        assert s.ignored_deletes == 1
        assert [g.m for g in s] == [1]

    def test_unsorted_timestamps(self):
        with pytest.raises(EdgeListError, match="timestamps"):
            load_snapshots("2 add 0 1\n1 add 1 2", granularity=1.0)

    def test_unknown_op(self):
        with pytest.raises(EdgeListError, match="unknown op"):
            load_snapshots("0 mark 0 1", granularity=1.0)

    @pytest.mark.parametrize("text,granularity,count", [
        ("0 add 0 1\n2e6 add 1 2", 1.0, "2000001"),
        ("0 add 0 1\n1e9 add 1 2", 1.0, "1000000001"),
        ("0 add 0 1\n1e300 add 1 2", 1e-10, "inf"),
        ("1e300 add 0 1\n1e300 add 1 2", 1e-10, "nan"),
    ])
    def test_span_beyond_bucket_limit(self, text, granularity, count):
        # refused before any snapshot is built, not after 2e6 or 1e9 of them
        with pytest.raises(ValueError, match=f"span {count} buckets.*BUCKET_LIMIT"):
            load_snapshots(text, granularity)

    def test_span_at_bucket_limit(self):
        s = load_snapshots(f"0 add 0 1\n{BUCKET_LIMIT - 1} add 1 2", granularity=1.0)
        snapshots = list(s)
        assert len(s) == len(snapshots) == BUCKET_LIMIT
        assert snapshots[-2].m == 1 and snapshots[-1].m == 2

    def test_timestamps_strictly_increasing(self):
        s = load_snapshots("0 add 0 1\n5 add 1 2", granularity=2.0)
        assert all(b > a for a, b in zip(s.timestamps, s.timestamps[1:]))


class TestLazySnapshots:
    """Iterating a SnapshotSeries replays the events that change the edge set."""

    @given(steps=hst.lists(hst.tuples(hst.sampled_from([0.0, 0.0, 0.4, 1.0, 3.0]),
                                      hst.sampled_from(["add", "add", "del"]),
                                      hst.integers(0, 4), hst.integers(0, 4)),
                           min_size=1, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_replay_matches_set_replay(self, steps):
        # five vertices make re-adds of live edges, deletes of absent ones
        # and an add and a delete of one edge in the same bucket common
        events, t = [], 0.0
        for dt, op, u, v in steps:
            t += dt
            events.append((t, op, u, v))
        text = "".join(f"{t!r} {op} {u} {v}\n" for t, op, u, v in events)
        series = load_snapshots(text, 1.0)
        rows, ignored = TestGolden._reference_snapshots(events, 1.0)
        n = max(max(u, v) for _, _, u, v in events) + 1
        assert len(series) == len(rows) and series.ignored_deletes == ignored
        prev, prev_live = None, None
        for g, added, removed, (live, _, ref_added, ref_removed) in zip(
            series, series.added, series.removed, rows
        ):
            assert g.n == n and {(u, v) for u, v, _ in g.edges()} == live
            assert (added, removed) == (ref_added, ref_removed)
            assert (g is prev) == (live == prev_live)
            prev, prev_live = g, live

    def test_unchanged_edge_set_repeats_the_graph_object(self, monkeypatch):
        # bucket 1 re-adds a live edge, bucket 2 deletes an absent one and
        # bucket 3 adds and deletes one edge: none of them builds a graph
        built = []
        build = graphs._build_csr

        def counted(n, *arrays):
            built.append(n)
            return build(n, *arrays)

        monkeypatch.setattr(graphs, "_build_csr", counted)
        series = load_snapshots(CANCELLING_STREAM, 1.0)
        snapshots = list(series)
        assert [g.m for g in snapshots] == [1, 1, 1, 1, 0, 1]
        assert [b is a for a, b in zip(snapshots, snapshots[1:])] == [
            True, True, True, False, False]
        assert len(built) == 3
        assert (series.added, series.removed) == ([1, 1, 1, 2, 2, 3], [0, 0, 0, 1, 2, 2])
        assert series.ignored_deletes == 1

    def test_bucket_without_edge_events_repeats_the_graph_object(self):
        # buckets 1-8 hold no edge event: bucket 5 holds only a self-loop
        series = load_snapshots("0 add 0 1\n0 add 1 2\n5 add 3 3\n9 add 2 3", 1.0)
        snapshots = list(series)
        assert len(snapshots) == 10 and snapshots[0].n == 4
        assert all(g is snapshots[0] for g in snapshots[1:9])
        assert snapshots[9] is not snapshots[8] and snapshots[9].m == 3

    def test_series_keeps_no_input(self, tmp_path):
        text = "".join(f"{t} add {t % 7} {t % 5 + 1}\n" for t in range(40))
        expected = list(load_snapshots(text, 4.0))
        path = tmp_path / "events.txt"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            from_file = load_snapshots(fh, 4.0)
        assert fh.closed and list(from_file) == expected
        refs = sys.getrefcount(text)
        from_text = load_snapshots(text, 4.0)
        assert sys.getrefcount(text) == refs
        del text
        gc.collect()
        assert list(from_text) == expected

    def test_load_checks_the_stream_and_builds_no_graph(self, monkeypatch):
        built = []
        build = graphs._build_csr

        def counted(n, *arrays):
            built.append(n)
            return build(n, *arrays)

        monkeypatch.setattr(graphs, "_build_csr", counted)
        with pytest.raises(EdgeListError, match="timestamps"):
            load_snapshots("0 add 0 1\n1 add 1 2\n0.5 add 2 3", 1.0)
        with pytest.raises(ValueError, match="BUCKET_LIMIT"):
            load_snapshots("0 add 0 1\n2e6 add 1 2", 1.0)
        series = load_snapshots("0 add 0 1\n1 add 1 2\n1.5 del 0 1\n3 add 2 3", 1.0)
        assert built == [] and len(series) == 4
        assert (series.added, series.removed) == ([1, 2, 2, 3], [0, 1, 1, 1])
        assert [g.m for g in series] == [1, 1, 1, 2]
        assert len(built) == 3  # bucket 2 repeats bucket 1's graph


def _distinct_pairs(g):
    """The undirected pairs of g's CSR entries, each direction counted once."""
    rows = np.repeat(np.arange(g.n), np.diff(g.row_offsets))
    lo, hi = np.minimum(rows, g.col_indices), np.maximum(rows, g.col_indices)
    return set(zip(lo.tolist(), hi.tolist()))


def _is_unit_view(w: np.ndarray) -> bool:
    return (w.dtype == np.float64 and w.strides == (0,) and not w.flags.writeable
            and bool(np.all(w == 1.0)))


def _hand_built(g: Graph) -> Graph:
    """g with int64 columns and stored float64 weights, built from its edges."""
    return Graph(n=g.n, row_offsets=g.row_offsets.copy(),
                 col_indices=np.array(g.col_indices, dtype=np.int64),
                 weights=np.array(g.weights, dtype=np.float64))


class TestLeanGraph:
    """Columns are int32, unit weights are one read-only stride-0 view, and
    neither changes a comparison, a content hash or the edge-list text."""

    @staticmethod
    def _unit_graphs():
        g = erdos_renyi(2000, 6, seed=4)
        text = io.StringIO()
        write_edge_list(g, text)
        events = "".join(f"{i} add {u} {v}\n" for i, (u, v, _) in enumerate(g.edges()))
        return {
            "parsed": parse_edge_list(text.getvalue()),
            "erdos_renyi mask": erdos_renyi(300, 4, seed=1),
            "erdos_renyi pairs": g,
            "snapshot": list(load_snapshots(events, 5000.0))[-1],
            "single edge": parse_edge_list("0 1"),
        }

    def test_int32_columns_and_unit_view(self):
        for name, g in self._unit_graphs().items():
            assert g.col_indices.dtype == np.int32, name
            assert not g.col_indices.flags.writeable, name
            assert _is_unit_view(g.weights), name
            assert g.weights.size == g.col_indices.size, name

    def test_hash_and_equality_match_hand_built_copy(self):
        for name, g in self._unit_graphs().items():
            wide = _hand_built(g)
            assert wide.col_indices.dtype == np.int64 and wide.weights.strides == (8,)
            assert g == wide and wide == g, name
            assert g.content_hash() == wide.content_hash(), name
        # the hash of the lean form is the sha256 of the wide form's bytes
        g = self._unit_graphs()["parsed"]
        wide = _hand_built(g)
        h = hashlib.sha256()
        for part in (np.int64(g.n), wide.row_offsets, wide.col_indices, wide.weights):
            h.update(part.tobytes())
        assert g.content_hash() == h.hexdigest()

    def test_edges_and_text_round_trip(self):
        for name, g in self._unit_graphs().items():
            wide = _hand_built(g)
            assert list(g.edges()) == list(wide.edges()), name
            for weighted in (False, True):
                text, wide_text = io.StringIO(), io.StringIO()
                write_edge_list(g, text, weighted=weighted)
                write_edge_list(wide, wide_text, weighted=weighted)
                assert text.getvalue() == wide_text.getvalue(), name
                again = parse_edge_list(text.getvalue(), weighted=weighted)
                assert again == g and again.content_hash() == g.content_hash(), name
                assert _is_unit_view(again.weights), name

    def test_weighted_unit_file_is_the_unweighted_graph(self):
        g = erdos_renyi(500, 5, seed=2)
        text = io.StringIO()
        write_edge_list(g, text, weighted=True)
        assert text.getvalue().split("\n")[0].endswith(" 1.0")
        weighted = parse_edge_list(text.getvalue(), weighted=True)
        assert _is_unit_view(weighted.weights)
        assert weighted == g and weighted.content_hash() == g.content_hash()
        # a duplicate's larger weight of 1.0 leaves every weight 1.0 too
        assert _is_unit_view(parse_edge_list("0 1 0.5\n1 0 1.0\n1 2 1", weighted=True).weights)

    def test_random_weights_keep_a_stored_array(self):
        rng = np.random.default_rng(5)
        lines = [f"{u} {v} {w!r}" for u, v, w in zip(
            rng.integers(0, 100, 600).tolist(), rng.integers(0, 100, 600).tolist(),
            (rng.random(600) + 0.5).tolist())]
        g = parse_edge_list("\n".join(lines), weighted=True)
        assert g.col_indices.dtype == np.int32
        assert g.weights.dtype == np.float64 and g.weights.strides == (8,)
        assert not g.weights.flags.writeable
        assert not np.all(g.weights == 1.0)
        wide = _hand_built(g)
        assert g == wide and g.content_hash() == wide.content_hash()


class TestEdgeCount:
    """Graph.m is derived from the arrays: the number of distinct edges."""

    def test_parsed_list_with_duplicates_mirrors_and_self_loops(self):
        text = "0 1\n1 0\n0 1\n2 2\n1 2\n3 1\n1 3\n4 4\n"
        g = parse_edge_list(text)
        assert g.m == len(_distinct_pairs(g)) == 3

    # a Bernoulli mask over all pairs, and a binomial count of distinct pairs
    @pytest.mark.parametrize("n, degree", [(300, 4), (5000, 4)])
    def test_erdos_renyi_samplers(self, n, degree):
        g = erdos_renyi(n, degree, seed=1)
        assert g.m == len(_distinct_pairs(g)) == len(list(g.edges()))

    def test_every_snapshot(self):
        rng = random.Random(2)
        events, t = [], 0.0
        for _ in range(300):
            t += rng.choice([0.0, 0.3, 1.0, 3.0])
            events.append((t, rng.choice(["add", "add", "del"]),
                           rng.randrange(12), rng.randrange(12)))
        text = "".join(f"{t!r} {op} {u} {v}\n" for t, op, u, v in events)
        series = load_snapshots(text, 1.0)
        rows, _ = TestGolden._reference_snapshots(events, 1.0)
        assert [g.m for g in series] == [len(live) for live, *_ in rows]


class TestEmptyInputOptions:
    """An empty separator or comment prefix is refused before any input is read."""

    @pytest.mark.parametrize("option", ["separator", "comment_prefix"])
    def test_edge_list(self, option):
        with pytest.raises(ValueError, match=f"{option} must not be empty"):
            parse_edge_list("0 1\n", **{option: ""})

    def test_event_stream(self):
        with pytest.raises(ValueError, match="comment_prefix must not be empty"):
            load_snapshots("0 add 0 1\n", 1.0, comment_prefix="")


class TestFixtures:
    def test_disjoint_edges(self):
        g = disjoint_edges(3)
        assert g.n == 6 and g.m == 3

    def test_empty_graph(self):
        g = empty_graph(4)
        assert g.n == 4 and g.m == 0

    def test_graph_from_weighted_edges(self):
        g = graph_from_edges(3, [(0, 1, 2.5), (1, 2, 0.5)])
        assert list(g.edges()) == [(0, 1, 2.5), (1, 2, 0.5)]


def _outcome(call):
    """A call's result, or the line number and message of its EdgeListError,
    or the message of the ValueError for an event span beyond BUCKET_LIMIT.
    A snapshot series is replayed into its graphs and its counts."""
    try:
        got = call()
    except EdgeListError as exc:
        return ("EdgeListError", exc.line_number, str(exc))
    except ValueError as exc:
        if "more than BUCKET_LIMIT" not in str(exc):
            raise
        return ("ValueError", None, str(exc))
    if isinstance(got, graphs.SnapshotSeries):
        return (list(got), got.timestamps, got.added, got.removed, got.ignored_deletes)
    return got


def _line_reader_only(call):
    """_outcome(call) with the bulk reader off, so every line goes through the line reader."""
    with mock.patch.object(graphs, "_bulk_rows", return_value=None):
        return _outcome(call)


def _as_input(text, form):
    """The same text as a string, an open file, or the list of lines that
    iterating over that file gives."""
    if form == "file":
        return io.StringIO(text)
    if form == "lines":
        return list(io.StringIO(text))
    return text


_FORMS = ("str", "file", "lines")


# Tokens that the bulk reader and Python's int/float may read differently.
_EXOTIC = ["4.0", "1e3", "+3", "1_0", "-1", "0x1", "#", "nan", "inf", "0", "-2",
           str(VERTEX_ID_LIMIT), str(2**64), ""]


@hst.composite
def _edge_list_text(draw):
    weighted = draw(hst.booleans())
    separator = draw(hst.sampled_from([None, ","]))
    gaps = [" ", "\t", "  ", " \t"] if separator is None else [",", " , ", ", "]
    lines = []
    for _ in range(draw(hst.integers(0, 12))):
        kind = draw(hst.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(hst.sampled_from(["# c", "  # indented", "#", "#0 1"])))
            continue
        if kind == "blank":
            lines.append(draw(hst.sampled_from(["", "  ", "\t"])))
            continue
        u, v = draw(hst.integers(0, 6)), draw(hst.integers(0, 6))
        fields = [str(u), str(v)]
        if weighted:
            fields.append(draw(hst.one_of(
                hst.sampled_from(["1", "0.5", "2.25", "1e-3", "3.0", "7"]),
                hst.floats(min_value=1e-300, max_value=1e300).map(repr),
            )))
        if draw(hst.integers(0, 9)) == 0:
            fields[draw(hst.integers(0, len(fields) - 1))] = draw(hst.sampled_from(_EXOTIC))
        if draw(hst.integers(0, 14)) == 0:
            fields.append("1") if draw(hst.booleans()) else fields.pop()
        pad = draw(hst.sampled_from(["", " ", "\t"]))
        lines.append(pad + draw(hst.sampled_from(gaps)).join(fields) + draw(hst.sampled_from(["", " "])))
    newline = draw(hst.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(hst.sampled_from(["", newline]))
    return text, weighted, separator, draw(hst.sampled_from(["str", "file", "lines"]))


@hst.composite
def _event_text(draw):
    lines = []
    t = 0.0
    for _ in range(draw(hst.integers(0, 15))):
        t += draw(hst.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5, -1.0]))
        fields = [repr(t), draw(hst.sampled_from(["add", "add", "del"])),
                  str(draw(hst.integers(0, 5))), str(draw(hst.integers(0, 5)))]
        if draw(hst.integers(0, 9)) == 0:
            fields[draw(hst.integers(0, 3))] = draw(hst.sampled_from(_EXOTIC + ["mark", "adds"]))
        if draw(hst.integers(0, 14)) == 0:
            fields.pop()
        lines.append(" ".join(fields))
        if draw(hst.integers(0, 7)) == 0:
            lines.append(draw(hst.sampled_from(["# c", "", "  # indented"])))
    newline = draw(hst.sampled_from(["\n", "\r\n"]))
    return newline.join(lines), draw(hst.sampled_from(["str", "file", "lines"]))


class TestBulkReaderMatchesLineReader:
    @given(case=_edge_list_text())
    @settings(max_examples=300, deadline=None)
    def test_edge_lists(self, case):
        text, weighted, separator, form = case

        def parse(form=form):
            return parse_edge_list(_as_input(text, form), separator=separator,
                                   weighted=weighted)

        assert _outcome(parse) == _line_reader_only(parse)
        # the same text gives the same outcome in every input form
        first, *rest = [_outcome(lambda: parse(each)) for each in _FORMS]
        assert all(other == first for other in rest)

    @given(case=_event_text(), granularity=hst.sampled_from([0.5, 1.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_event_streams(self, case, granularity):
        text, form = case

        def load(form=form):
            return load_snapshots(_as_input(text, form), granularity)

        assert _outcome(load) == _line_reader_only(load)
        first, *rest = [_outcome(lambda: load(each)) for each in _FORMS]
        assert all(other == first for other in rest)

    @pytest.mark.parametrize("newline", ["\x0c", "\x85", "\u2028", "\r", "\r\n"])
    def test_line_breaks_read_alike_in_every_form(self, newline):
        # only "\n" ends a line: another line break is whitespace inside one
        for text, read, message in [
            (f"0 1{newline}1 2", parse_edge_list, "expected 2 fields, got 4"),
            (f"0 add 0 1{newline}1 add 1 2", lambda given: load_snapshots(given, 1.0),
             "expected 4 fields, got 8"),
        ]:
            if newline == "\r\n":
                expected = _outcome(lambda: read(text.replace(newline, "\n")))
            else:
                expected = ("EdgeListError", 1, f"line 1: {message}: {text!r}")
            for form in _FORMS:
                def call():
                    return read(_as_input(text, form))

                assert _outcome(call) == _line_reader_only(call) == expected

    @pytest.mark.parametrize("text,weighted,expected", [
        ("0 1\n3 4.0", False, 2),
        ("0 1\n1e3 2", False, 2),
        ("0 1\n+3 4", False, [(0, 1, 1.0), (3, 4, 1.0)]),
        ("0 1\n1_0 2", False, [(0, 1, 1.0), (2, 10, 1.0)]),
        ("0 1\n-1 2", False, 2),
        ("0 1\n0x1 2", False, 2),
        ("0 1\n1 2 # x", False, 2),
        ("0 1\n  # indented comment\n1 2", False, [(0, 1, 1.0), (1, 2, 1.0)]),
        ("0 1\n5", False, 2),
        ("0 1 5\n1 2 7", False, 1),
        ("0 1 1\n1 2 nan", True, 2),
        ("0 1 1\n1 2 inf", True, 2),
        ("0 1 1\n1 2 0", True, 2),
        ("0 1 1\n1 2 -2", True, 2),
        ("0 1 1\n1 2 1_0", True, [(0, 1, 1.0), (1, 2, 10.0)]),
        ("", False, None),
    ])
    def test_edge_list_table(self, text, weighted, expected):
        def parse():
            return parse_edge_list(text, weighted=weighted)

        got = _outcome(parse)
        assert got == _line_reader_only(parse)
        if isinstance(expected, list):
            assert list(got.edges()) == expected
        else:
            assert got[:2] == ("EdgeListError", expected)

    @pytest.mark.parametrize("text,lineno,message", [
        ("0 add 0 1\n1 mark 1 2", 2, "unknown op"),
        ("2 add 0 1\n1 add 1 2", 2, "timestamps"),
        ("0 add 0 1\n1 add 1", 2, "expected 4 fields"),
        ("0 add 0 1\nnan add 1 2", 2, "finite"),
        ("0 add 0 1\n1 add 1 2 3", 2, "expected 4 fields"),
        # one line, two faults: the first check in line order reports
        ("2 add 0 1\n1 mark 1 2", 2, "unknown op"),
        ("0 add 0 1\nnan mark 1 2", 2, "finite"),
        ("1 add 0 1\n0 add -1 2", 2, "timestamps"),
        ("0 add 0 1\n1 mark -1 2", 2, "unknown op"),
        ("0 add 0 1\ninf mark 0 x", 2, "bad timestamp or vertex id"),
        # two faulty lines: the earlier one reports
        ("0 add 0 1\n1 mark 1 2\n0 add 1 2", 2, "unknown op"),
        ("0 add 0 1\n\n# c\n0 add -1 2\n1 mark 0 1", 4, "nonnegative"),
        ("0 add 0 1\n1 add 1 2 3\nnan add 1 2", 2, "expected 4 fields"),
    ])
    def test_event_table(self, text, lineno, message):
        def load():
            return load_snapshots(text, 1.0)

        got = _outcome(load)
        assert got == _line_reader_only(load)
        assert got[:2] == ("EdgeListError", lineno)
        assert message in got[2]

    @pytest.mark.parametrize("text,weighted,lineno,message", [
        # one line, two faults: the first check in line order reports
        ("0 1 1\n-1 2 0", True, 2, "nonnegative"),
        ("0 1 1\nx 2 0", True, 2, "integers"),
        ("0 1 1\n4000000000 2 nan", True, 2, "below"),
        ("0 1 1\n1 2 3 4\n1 x 1", True, 2, "expected 3 fields"),
        # two faulty lines: the earlier one reports
        ("0 1\n-1 2\n1 x", False, 2, "nonnegative"),
        ("0 1\nx 1\n-1 2", False, 2, "integers"),
        ("0 1 1\n1 2 0\n-1 2 1", True, 2, "strictly positive"),
        ("0 1\n\n# c\n1 2 3\n-1 2", False, 4, "expected 2 fields"),
    ])
    def test_edge_list_precedence(self, text, weighted, lineno, message):
        def parse():
            return parse_edge_list(text, weighted=weighted)

        got = _outcome(parse)
        assert got == _line_reader_only(parse)
        assert got[:2] == ("EdgeListError", lineno)
        assert message in got[2]

    @pytest.mark.parametrize("text,separator,lineno,message", [
        ("0 1\n5", None, 2, "expected 2 fields, got 1"),
        ("5\n0 1", None, 1, "expected 2 fields, got 1"),
        ("0 1\n1 2 7", None, 2, "expected 2 fields, got 3"),
        ("0,1\n1,2,7", ",", 2, "expected 2 fields, got 3"),
        ("0 1\n3 4.0", None, 2, "vertex ids must be integers"),
        ("4.0 1\n0 1", None, 1, "vertex ids must be integers"),
    ])
    def test_unweighted_refusals_reach_line_reader(self, text, separator, lineno, message):
        # the (u, v) record read refuses these, and the line reader words the error
        lines, commented = graphs._read_lines(text, "#")
        assert graphs._bulk_rows(lines, commented, separator, "#", graphs._EDGE) is None
        with pytest.raises(EdgeListError, match=message) as exc_info:
            parse_edge_list(text, separator=separator)
        assert exc_info.value.line_number == lineno

    def test_clean_input_is_read_in_bulk(self):
        text = "# header\r\n0\t1\r\n  # indented\r\n  2 1 \r\n\r\n1 0\r\n"
        lines, commented = graphs._read_lines(text, "#")
        assert graphs._bulk_rows(lines, commented, None, "#", graphs._EDGE) is not None
        events = "# log\n0 add 0 1\n1.5 del 0 1\n"
        lines, commented = graphs._read_lines(events, "#")
        assert graphs._bulk_rows(lines, commented, None, "#", graphs._EVENT) is not None

    @given(case=_edge_list_text(), chars=hst.sampled_from([1, 3, 16]))
    @settings(max_examples=200, deadline=None)
    def test_blocks_read_as_the_whole_text(self, case, chars):
        # the bulk reader cuts the text into blocks of lines at "\n"; where
        # it cuts changes no outcome
        text, weighted, separator, form = case

        def parse():
            return parse_edge_list(_as_input(text, form), separator=separator,
                                   weighted=weighted)

        expected = _outcome(parse)
        with mock.patch.object(graphs, "_READ_CHARS", chars):
            assert _outcome(parse) == expected

    @pytest.mark.parametrize("chars", [1, 4, 1 << 16])
    @pytest.mark.parametrize("separator", [None, ","])
    def test_blocks_without_records_stay_in_bulk(self, chars, separator):
        # a block of blank, whitespace or comment lines loads nothing, and
        # sends no line to the line reader
        text = "# c\n\n  \n\t\n0 1\n\n  # d\n\n1 2\n\n\n#\n"
        if separator:
            text = text.replace("0 1", "0,1").replace("1 2", "1,2")
        with mock.patch.object(graphs, "_READ_CHARS", chars):
            with mock.patch.object(graphs, "_line_rows", side_effect=AssertionError):
                g = parse_edge_list(text, separator=separator)
        assert list(g.edges()) == [(0, 1, 1.0), (1, 2, 1.0)]

    @pytest.mark.parametrize("blank", ["  ", "\t", " \t "])
    def test_whitespace_line_with_separator_is_read_in_bulk(self, blank):
        text = f"0,1\n{blank}\n1,2\n\n2 , 3\n"

        def parse():
            return parse_edge_list(text, separator=",")

        expected = _line_reader_only(parse)
        with mock.patch.object(graphs, "_line_rows", side_effect=AssertionError):
            assert parse() == expected
        assert list(expected.edges()) == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]


class TestVertexIdCap:
    @pytest.mark.parametrize("big", [4_000_000_000, VERTEX_ID_LIMIT, 2**63 + 5])
    def test_edge_list(self, big):
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list(f"0 {big}")
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list(f"0 1 1.0\n{big} 1 2.0", weighted=True)

    @pytest.mark.parametrize("big", [4_000_000_000, 2**63 + 5])
    def test_event_stream(self, big):
        with pytest.raises(EdgeListError, match="line 1"):
            load_snapshots(f"0 add 0 {big}", 1.0)

    def test_line_reader_keeps_largest_ids_exact(self):
        top = VERTEX_ID_LIMIT - 1
        with mock.patch.object(graphs, "_bulk_rows", return_value=None):
            with mock.patch.object(graphs, "_build_csr",
                                   side_effect=lambda n, edges: (n, *edges)):
                n, u, v, w = parse_edge_list([f"{top} {top - 1} 0.5"], weighted=True)
            series = load_snapshots([f"1.5 del {top} {top - 1}"], 1.0)
        assert (n, u.tolist(), v.tolist(), w.tolist()) == (top + 1, [top], [top - 1], [0.5])
        assert u.dtype == np.int64
        assert series.n == top + 1
        assert series.keys.tolist() == [(top - 1) * (top + 1) + top]


class TestGolden:
    """Outputs pinned to the dict/set implementation this module replaced."""

    @pytest.mark.parametrize("args,digest", [
        ((300, 4, 1), "4436d36b88d44c4d43bdc193e2b052d5ffb699a7fa01d1e1b007f11d64f4b3fc"),
        ((4000, 10, 2), "527c0908fea8395a8bf9ff21fff498b6cfa55adea0425588ee0adf21b0cd9b0a"),
        ((5000, 10, 0), "e7beb0eba353ca92b965044a17f2a411797980311a94be7247f201c2fc5d0fe5"),
    ])
    def test_erdos_renyi_content_hash(self, args, digest):
        assert erdos_renyi(*args).content_hash() == digest

    @staticmethod
    def _reference_snapshots(events, granularity):
        """Replay events over a set of live edges; one (edges, t, added, removed) per bucket."""
        live: set[tuple[int, int]] = set()
        added = removed = ignored = idx = 0
        rows = []
        first = math.floor(events[0][0] / granularity)
        last = math.floor(events[-1][0] / granularity)
        for bucket in range(first, last + 1):
            while idx < len(events) and math.floor(events[idx][0] / granularity) <= bucket:
                _, op, u, v = events[idx]
                idx += 1
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if op == "add":
                    if key not in live:
                        live.add(key)
                        added += 1
                elif key in live:
                    live.remove(key)
                    removed += 1
                else:
                    ignored += 1
            rows.append((set(live), (bucket + 1) * granularity, added, removed))
        return rows, ignored

    @pytest.mark.parametrize("seed", range(5))
    def test_load_snapshots_matches_set_replay(self, seed):
        rng = random.Random(seed)
        events, t = [], 0.0
        for _ in range(400):
            t += rng.choice([0.0, 0.0, 0.1, 0.7, 4.0])
            events.append((t, rng.choice(["add", "add", "del"]),
                           rng.randrange(15), rng.randrange(15)))
        text = "".join(f"{t!r} {op} {u} {v}\n" for t, op, u, v in events)
        series = load_snapshots(text, 1.5)
        rows, ignored = self._reference_snapshots(events, 1.5)
        n = max(max(u, v) for _, _, u, v in events) + 1
        assert len(series) == len(rows)
        assert series.ignored_deletes == ignored
        for g, t_end, added, removed, (live, ref_t, ref_added, ref_removed) in zip(
            series, series.timestamps, series.added, series.removed, rows
        ):
            assert g.n == n
            assert {(u, v) for u, v, _ in g.edges()} == live
            assert np.all(g.weights == 1.0)
            assert (t_end, added, removed) == (ref_t, ref_added, ref_removed)

    @staticmethod
    def _reference_edges(g):
        for u in range(g.n):
            for k in range(g.row_offsets[u], g.row_offsets[u + 1]):
                v = int(g.col_indices[k])
                if u < v:
                    yield u, v, float(g.weights[k])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_write_edge_list_bytes(self, weighted):
        rng = np.random.default_rng(3)
        lines = [f"{u} {v} {w!r}" for u, v, w in zip(
            rng.integers(0, 200, 1500).tolist(), rng.integers(0, 200, 1500).tolist(),
            (rng.random(1500) * 50 + 1e-6).tolist())]
        g = parse_edge_list("\n".join(lines), weighted=True)
        reference = list(self._reference_edges(g))
        assert list(g.edges()) == reference
        buf = io.StringIO()
        write_edge_list(g, buf, weighted=weighted)
        if weighted:
            expected = "".join(f"{u} {v} {w!r}\n" for u, v, w in reference)
        else:
            expected = "".join(f"{u} {v}\n" for u, v, _ in reference)
        assert buf.getvalue() == expected


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Discard(io.TextIOBase):
    """A text stream that drops what it is given."""

    def write(self, text):
        return len(text)


class TestGenerateBytes:
    """erdos_renyi and write_edge_list, which `generate` runs, keep every
    graph and every byte of text that the np.unique sampler and the
    f-string writer produced."""

    # (n, avg_degree, seed): content_hash, text sha256, weighted text sha256;
    # (2000, 6, 4) takes the Bernoulli mask over all pairs, the rest the
    # binomial count of distinct pairs; (4200, 50, 2) draws 2,527 keys more
    # than once, the others 10 to 106
    PINS = {
        (2000, 6, 4): ("3a2ff6fb1fa89a9257a1390e6a2577bfdc4fd7d8bbcb686f584d393672206c85",
                       "30f6f2746031babc63dd2f0893078aab2c926e59ccd8355b44d73c15fcbe3ac8",
                       "179c66ab0e55022fbfd1c8a1b47c3a574fefbf8095687ee53d0cae80fc92d8ad"),
        (5000, 4, 5): ("fea57f9dfe72143666278181a425b7c278336b517b29b34458311cc44103cc51",
                       "1098966787d2fa0b027ff07dffb3c41a82644be53346548a5ca3a3bd6a894641",
                       "80522410fa33b4bae503fb639c9cc0a5ef45399acabb2b4d7c79e1ea4caea113"),
        (4200, 50, 2): ("34fad25f8c62b10113270592bea90337734f9f9c8e49b7319bc68a0f94164ec8",
                        "4d625ecd937433c33b53ce140290b4f23434050c94566d42f8548843ceca78f3",
                        None),
        (20000, 3, 2): ("f2627e4a9c700f784c110d4a3f28a12b70871bcffb145b3d882a459f7ed88e15",
                        "1b08b480809d369fd9e5edb88df6305eb11241be3c176fe318583306de8c254d",
                        None),
        (100000, 10, 1): ("914149afbd98d273fc59d345608ca3590b67631fef5b6d01779508f2030b40d8",
                          "fcd6952ba53db294d7c5c9b650510a04564397aa521ff8c18ead9fb39286789a",
                          None),
    }

    @pytest.mark.parametrize("args", list(PINS))
    def test_pinned_graph_and_text(self, args):
        graph_digest, text_digest, weighted_digest = self.PINS[args]
        g = erdos_renyi(*args)
        assert g.content_hash() == graph_digest
        text = io.StringIO()
        write_edge_list(g, text)
        assert _sha256(text.getvalue()) == text_digest
        if weighted_digest is not None:
            text = io.StringIO()
            write_edge_list(g, text, weighted=True)
            assert _sha256(text.getvalue()) == weighted_digest

    @given(n=hst.integers(1, 40), p=hst.floats(0.0, 1.0), seed=hst.integers(0, 2**32 - 1),
           weighted=hst.booleans(), entries=hst.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_text_matches_the_f_string_writer(self, n, p, seed, weighted, entries):
        # random_graph builds edge by edge, independently of erdos_renyi;
        # small blocks make the writer split the rows many ways
        g = random_graph(np.random.default_rng(seed), n, p, weighted=weighted)
        if weighted:
            expected = "".join(f"{u} {v} {w!r}\n" for u, v, w in g.edges())
        else:
            expected = "".join(f"{u} {v}\n" for u, v, _ in g.edges())
        text = io.StringIO()
        with mock.patch.object(graphs, "_WRITE_ENTRIES", entries):
            write_edge_list(g, text, weighted=weighted)
        assert text.getvalue() == expected
        if g.m:
            parsed = parse_edge_list(text.getvalue(), weighted=weighted)
            assert pad_vertices(parsed, n) == g

    @pytest.mark.parametrize("ids", [
        [0, 9, 10, 99, 100, 2**31 - 1],
        [0, 1, 9],
        [5],
        [99_999, 100_000, 7],
    ])
    def test_id_formatter(self, ids):
        lo = np.array(ids, dtype=np.int64)
        for hi in (lo[::-1].astype(np.int32), np.zeros(len(ids), dtype=np.int32)):
            expected = "".join(f"{u} {v}\n" for u, v in zip(lo.tolist(), hi.tolist()))
            assert graphs._edge_lines(lo, hi) == expected
        assert graphs._edge_lines(lo[:0], lo[:0]) == ""

    @pytest.mark.parametrize("g", [empty_graph(6), erdos_renyi(10, 0, seed=3),
                                   erdos_renyi(1, 0, seed=0)], ids=["built", "er", "single"])
    def test_edgeless_graph_writes_nothing(self, g):
        for weighted in (False, True):
            text = io.StringIO()
            write_edge_list(g, text, weighted=weighted)
            assert text.getvalue() == ""

    def test_peak_memory(self):
        # numpy reports its arrays to tracemalloc. The np.unique sampler and
        # a list of every line read 192.5 bytes per edge; drawing in place,
        # argsorting only the draws of repeated keys and writing in blocks
        # read 67.4, most of it _build_csr's, and 51.4 once _build_csr
        # freed the pairs handed to it
        gc.collect()
        tracemalloc.start()
        try:
            g = erdos_renyi(200_000, 10, 0)
            write_edge_list(g, _Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * g.m, peak / g.m
