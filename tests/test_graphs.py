"""Graph parsing, generation, and snapshot loading."""

import gc
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

from conftest import disjoint_edges, empty_graph, graph_from_edges


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
        # its lines and every sort temporary lived to the end of the parse
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
        assert peak <= 6 * graph_bytes
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
        assert s.snapshots[0].m == 2

    def test_add_then_delete(self):
        s = load_snapshots("1 add 0 1\n2 del 0 1", granularity=1.0)
        assert len(s) == 2
        assert s.snapshots[0].m == 1
        assert s.snapshots[1].m == 0
        assert s.added == [1, 1]
        assert s.removed == [0, 1]

    def test_empty_middle_bucket_repeats(self):
        s = load_snapshots("0 add 0 1\n2.5 add 1 2", granularity=1.0)
        assert len(s) == 3
        assert s.snapshots[1] == s.snapshots[0]
        assert s.snapshots[2].m == 2

    def test_delete_absent_edge_warns(self):
        s = load_snapshots("0 add 0 1\n0.1 del 2 3", granularity=1.0)
        assert s.ignored_deletes == 1
        assert s.snapshots[0].m == 1

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
        assert len(s) == BUCKET_LIMIT
        assert s.snapshots[-2].m == 1 and s.snapshots[-1].m == 2

    def test_timestamps_strictly_increasing(self):
        s = load_snapshots("0 add 0 1\n5 add 1 2", granularity=2.0)
        assert all(b > a for a, b in zip(s.timestamps, s.timestamps[1:]))


class TestLazySnapshots:
    """``SnapshotSeries.snapshots`` builds each Graph as it is reached."""

    @staticmethod
    def _series():
        # gaps of 4.0 at granularity 1.5 leave buckets without events
        rng = random.Random(4)
        events, t = [], 0.0
        for _ in range(200):
            t += rng.choice([0.0, 0.1, 0.7, 4.0])
            op = rng.choice(["add", "add", "del"])
            events.append(f"{t!r} {op} {rng.randrange(10)} {rng.randrange(10)}\n")
        return load_snapshots("".join(events), 1.5)

    def test_index_and_slice_match_iteration(self):
        series = self._series()
        graphs_in_order = list(series.snapshots)
        count = len(graphs_in_order)
        assert count == len(series.snapshots) == len(series.timestamps) > 20
        for i in range(-count, count):
            assert series.snapshots[i] == graphs_in_order[i]
        for s in [slice(None), slice(2, 9), slice(None, None, 3), slice(-5, None),
                  slice(None, None, -2), slice(7, 2, -1), slice(5, 5),
                  slice(-1, -count - 5, -4), slice(count + 3, None)]:
            assert series.snapshots[s] == graphs_in_order[s]
        for i in (count, -count - 1):
            with pytest.raises(IndexError):
                series.snapshots[i]

    def test_bucket_without_edge_events_repeats_the_graph_object(self):
        # buckets 1-8 hold no edge event: bucket 5 holds only a self-loop
        series = load_snapshots("0 add 0 1\n0 add 1 2\n5 add 3 3\n9 add 2 3", 1.0)
        snapshots = list(series.snapshots)
        assert len(snapshots) == 10 and snapshots[0].n == 4
        assert all(g is snapshots[0] for g in snapshots[1:9])
        assert snapshots[9] is not snapshots[8] and snapshots[9].m == 3

    def test_series_keeps_no_input(self, tmp_path):
        text = "".join(f"{t} add {t % 7} {t % 5 + 1}\n" for t in range(40))
        expected = list(load_snapshots(text, 4.0).snapshots)
        path = tmp_path / "events.txt"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            from_file = load_snapshots(fh, 4.0)
        assert fh.closed and list(from_file.snapshots) == expected
        refs = sys.getrefcount(text)
        from_text = load_snapshots(text, 4.0)
        assert sys.getrefcount(text) == refs
        del text
        gc.collect()
        assert list(from_text.snapshots) == expected

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
        assert [g.m for g in series.snapshots] == [1, 1, 1, 2]
        assert len(built) == 3  # bucket 2 repeats bucket 1's graph


def _distinct_pairs(g):
    """The undirected pairs of g's CSR entries, each direction counted once."""
    rows = np.repeat(np.arange(g.n), np.diff(g.row_offsets))
    lo, hi = np.minimum(rows, g.col_indices), np.maximum(rows, g.col_indices)
    return set(zip(lo.tolist(), hi.tolist()))


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
        assert [g.m for g in series.snapshots] == [len(live) for live, *_ in rows]


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
    or the message of the ValueError for an event span beyond BUCKET_LIMIT."""
    try:
        return call()
    except EdgeListError as exc:
        return ("EdgeListError", exc.line_number, str(exc))
    except ValueError as exc:
        if "more than BUCKET_LIMIT" not in str(exc):
            raise
        return ("ValueError", None, str(exc))


def _line_reader_only(call):
    """_outcome(call) with the bulk readers off, so every line goes through the line reader."""
    with mock.patch.object(graphs, "_bulk_edges", return_value=None), \
            mock.patch.object(graphs, "_bulk_events", return_value=None):
        return _outcome(call)


def _as_input(text, form):
    """The same text as a string, an open file, or a list of lines."""
    if form == "file":
        return io.StringIO(text)
    if form == "lines":
        return text.splitlines(keepends=True)
    return text


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

        def parse():
            return parse_edge_list(_as_input(text, form), separator=separator,
                                   weighted=weighted)

        assert _outcome(parse) == _line_reader_only(parse)

    @given(case=_event_text(), granularity=hst.sampled_from([0.5, 1.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_event_streams(self, case, granularity):
        text, form = case

        def load():
            return load_snapshots(_as_input(text, form), granularity)

        assert _outcome(load) == _line_reader_only(load)

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
        text_, lines = graphs._read_lines(text)
        assert graphs._bulk_edges(text_, lines, separator, "#", False) is None
        with pytest.raises(EdgeListError, match=message) as exc_info:
            parse_edge_list(text, separator=separator)
        assert exc_info.value.line_number == lineno

    def test_clean_input_is_read_in_bulk(self):
        text = "# header\r\n0\t1\r\n  # indented\r\n  2 1 \r\n\r\n1 0\r\n"
        text_, lines = graphs._read_lines(text)
        assert graphs._bulk_edges(text_, lines, None, "#", False) is not None
        events = "# log\n0 add 0 1\n1.5 del 0 1\n"
        text_, lines = graphs._read_lines(events)
        assert graphs._bulk_events(text_, lines, "#") is not None

    @pytest.mark.parametrize("blank", ["  ", "\t", " \t "])
    def test_whitespace_line_with_separator_is_read_in_bulk(self, blank):
        text = f"0,1\n{blank}\n1,2\n\n2 , 3\n"

        def parse():
            return parse_edge_list(text, separator=",")

        expected = _line_reader_only(parse)
        with mock.patch.object(graphs, "_line_edges", side_effect=AssertionError):
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
        u, v, w = graphs._line_edges([f"{top} {top - 1} 0.5"], None, "#", True)
        assert (u.tolist(), v.tolist(), w.tolist()) == ([top], [top - 1], [0.5])
        t, is_add, u, v = graphs._line_events([f"1.5 del {top} {top - 1}"], "#")
        assert (t.tolist(), is_add.tolist(), u.tolist(), v.tolist()) == (
            [1.5], [False], [top], [top - 1])
        assert u.dtype == np.int64 and is_add.dtype == bool


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
            series.snapshots, series.timestamps, series.added, series.removed, rows
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
