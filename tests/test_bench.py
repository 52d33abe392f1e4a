"""Benchmark harnesses: error tables, 1-NN classification, snapshot drift."""

import io
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from spectrace import bench
from spectrace.bench import (
    error_benchmark,
    knn_accuracy,
    snapshot_distance_series,
    write_error_csv,
    write_snapshot_csv,
)
from spectrace.descriptors import TimeGrid, descriptor_distance, netlsd_exact, vnge_exact
from spectrace.graphs import erdos_renyi, load_snapshots
from spectrace.slq import SlqConfig

from conftest import CANCELLING_STREAM, empty_graph, graph_from_edges


class TestErrorBenchmark:
    def test_exact_rows_are_zero(self, k3, p3):
        rows = error_benchmark([("k3", k3), ("p3", p3)], "netlsd", ["exact"],
                               grid=TimeGrid(0.1, 10, 8))
        assert all(r.rel_error == 0.0 for r in rows)
        assert all(r.seconds >= 0.0 for r in rows)

    def test_taylor_error_on_k3_single_point(self, k3):
        rows = error_benchmark([("k3", k3)], "netlsd", ["slq", "taylor"],
                               grid=TimeGrid(1.0, 1.0, 1), cfg=SlqConfig(seed=0))
        by_method = {r.method: r for r in rows}
        assert by_method["taylor"].rel_error == pytest.approx(0.5557, abs=5e-5)

    def test_skipped_rows_not_fatal(self, k2, p3):
        # empty graph: no exact reference; K2 taylor: exact zero matches zero
        rows = error_benchmark([("empty", empty_graph(3)), ("p3", p3), ("k2", k2)],
                               "vnge", ["taylor"])
        by_graph = {r.graph_id: r for r in rows}
        assert np.isnan(by_graph["empty"].rel_error)
        assert not np.isnan(by_graph["p3"].rel_error)
        assert by_graph["k2"].rel_error == 0.0  # exact agreement at zero norm

    def test_er_slq_small_errors(self):
        graphs = [(f"er{s}", erdos_renyi(300, 8, seed=s)) for s in range(3)]
        rows = error_benchmark(graphs, "netlsd", ["slq"],
                               grid=TimeGrid(0.01, 100, 64), cfg=SlqConfig(seed=0))
        assert all(r.rel_error <= 1e-2 for r in rows)

    def test_stochastic_rows_reproducible(self, k5):
        a = error_benchmark([("k5", k5)], "vnge", ["slq"], cfg=SlqConfig(seed=1))
        b = error_benchmark([("k5", k5)], "vnge", ["slq"], cfg=SlqConfig(seed=1))
        assert a[0].rel_error == b[0].rel_error

    def test_csv_format(self, star3):
        rows = error_benchmark([("star", star3)], "vnge", ["exact", "taylor"])
        buf = io.StringIO()
        write_error_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "graph,method,kind,rel_error,seconds"
        assert lines[1].startswith("star,exact,vnge,0.0,")


class TestKnnAccuracy:
    def test_separable_classes_are_perfect(self):
        features = [np.array([0.0, 0.0])] * 5 + [np.array([10.0, 10.0])] * 5
        labels = ["a"] * 5 + ["b"] * 5
        result = knn_accuracy(features, labels, repeats=50, seed=0)
        assert result.mean_accuracy == 1.0
        assert result.std == 0.0

    def test_equal_features_match_majority_prior(self):
        # with identical features every test item inherits the label of the
        # lowest-index training item, which is always class "a" here; per
        # repeat the accuracy is Hypergeom(100, 70, 20)/20
        n, n_a, n_test, repeats = 100, 70, 20, 1000
        features = [np.zeros(3)] * n
        labels = ["a"] * n_a + ["b"] * (n - n_a)
        result = knn_accuracy(features, labels, train_frac=0.8, repeats=repeats, seed=1)
        p = n_a / n
        var_acc = n_test * p * (1 - p) * (n - n_test) / (n - 1) / n_test**2
        se_mean = np.sqrt(var_acc / repeats)
        assert abs(result.mean_accuracy - p) <= 4 * se_mean

    def test_permutation_invariance_statistical(self):
        rng = np.random.default_rng(2)
        features = [rng.standard_normal(4) for _ in range(40)]
        labels = ["a", "b"] * 20
        perm = rng.permutation(40)
        base = knn_accuracy(features, labels, repeats=800, seed=3)
        shuffled = knn_accuracy([features[i] for i in perm],
                                [labels[i] for i in perm], repeats=800, seed=3)
        se = np.sqrt(base.std**2 + shuffled.std**2) / np.sqrt(800)
        assert abs(base.mean_accuracy - shuffled.mean_accuracy) <= 4 * se

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_nonpositive_repeats_rejected(self, repeats):
        features = [np.zeros(1), np.zeros(1), np.ones(1), np.ones(1)]
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            knn_accuracy(features, ["a", "a", "b", "b"], repeats=repeats)

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError, match="no features"):
            knn_accuracy([], [])

    def test_tie_break_lowest_training_index(self):
        # all features equal, first item has the unique label "a": whenever
        # item 0 is in training, every test prediction is "a"
        features = [np.zeros(2)] * 6
        labels = ["a", "a", "b", "b", "b", "b"]
        result = knn_accuracy(features, labels, train_frac=0.5, repeats=200, seed=4)
        # with the lowest-index policy predictions are "a" whenever item 0 or 1
        # trains, so accuracy sits near 1/3; a highest-index or majority policy
        # would score near the 2/3 prior
        assert result.mean_accuracy < 0.5

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        features = [rng.standard_normal(3) for _ in range(20)]
        labels = ["a", "b"] * 10
        a = knn_accuracy(features, labels, repeats=100, seed=6)
        b = knn_accuracy(features, labels, repeats=100, seed=6)
        assert a == b

    def test_degenerate_labels_rejected(self):
        features = [np.zeros(2)] * 4
        with pytest.raises(ValueError, match="2 classes"):
            knn_accuracy(features, ["a"] * 4, repeats=10)
        with pytest.raises(ValueError, match="at least 2 members"):
            knn_accuracy(features, ["a", "a", "a", "b"], repeats=10)

    def test_accepts_descriptor_objects(self, k2, k3, p3, star3):
        from spectrace.descriptors import vnge_exact

        features = [vnge_exact(g) for g in (k2, k3, p3, star3)]
        labels = ["x", "y", "x", "y"]
        result = knn_accuracy(features, labels, train_frac=0.5, repeats=20, seed=7)
        assert 0.0 <= result.mean_accuracy <= 1.0


class TestSnapshotSeries:
    def test_constant_series_all_zero(self):
        series = load_snapshots("0 add 0 1\n1.5 add 0 1", granularity=1.0)
        rows = snapshot_distance_series(series, "netlsd", "exact",
                                        grid=TimeGrid(0.1, 10, 8))
        assert [r.distance for r in rows] == [0.0, 0.0]

    def test_vnge_exact_ln2_step(self):
        # snapshot 0: one edge among 4 vertices; snapshot 1: two disjoint edges
        series = load_snapshots("0 add 0 1\n1 add 2 3", granularity=1.0)
        rows = snapshot_distance_series(series, "vnge", "exact")
        assert rows[0].distance == 0.0
        assert rows[1].distance == pytest.approx(np.log(2), abs=1e-10)
        assert (rows[1].added, rows[1].removed) == (2, 0)

    def test_single_snapshot(self):
        series = load_snapshots("0 add 0 1", granularity=1.0)
        rows = snapshot_distance_series(series, "vnge", "exact")
        assert len(rows) == 1
        assert rows[0].distance == 0.0

    def test_batching_independence(self):
        batched = load_snapshots("0 add 0 1\n0 add 1 2\n1 add 2 3", granularity=1.0)
        spread = load_snapshots("0 add 1 2\n0.9 add 0 1\n1 add 2 3", granularity=1.0)
        ra = snapshot_distance_series(batched, "vnge", "exact")
        rb = snapshot_distance_series(spread, "vnge", "exact")
        assert [r.distance for r in ra] == [r.distance for r in rb]

    def test_repeated_snapshot_is_described_once(self, monkeypatch):
        # 10 buckets, 2 distinct graphs: buckets 1-8 hold no edge event and
        # repeat bucket 0's Graph object
        series = load_snapshots("0 add 0 1\n0 add 1 2\n9 add 2 3", granularity=1.0)
        assert len(series) == 10
        route, described = bench.METHODS["vnge"]["exact"], []

        def counted(g, *args):
            described.append(g)
            return route(g, *args)

        monkeypatch.setitem(bench.METHODS["vnge"], "exact", counted)
        rows = snapshot_distance_series(series, "vnge", "exact")
        snapshots = list(series)
        assert described == [snapshots[0], snapshots[9]]
        base = vnge_exact(snapshots[0]).value
        assert [r.distance for r in rows] == [0.0] + [
            abs(vnge_exact(g).value - base) for g in snapshots[1:]]

    def test_unchanged_edge_set_is_described_once(self, monkeypatch):
        # six buckets, three distinct graphs: buckets 1-3 re-add a live edge,
        # delete an absent one, and add and delete one edge
        series = load_snapshots(CANCELLING_STREAM, 1.0)
        compute, described = bench.compute_descriptor, []

        def counted(g, *args):
            described.append(g)
            return compute(g, *args)

        monkeypatch.setattr(bench, "compute_descriptor", counted)
        grid = TimeGrid(0.1, 10, 8)
        rows = snapshot_distance_series(series, "netlsd", "exact", grid=grid)
        assert [g.m for g in described] == [1, 0, 1] and len(rows) == 6
        base = netlsd_exact(described[0], grid)
        assert [r.distance for r in rows] == [0.0] * 4 + [
            descriptor_distance(netlsd_exact(g, grid), base) for g in described[1:]]
        assert [(r.added, r.removed) for r in rows] == [
            (1, 0), (1, 0), (1, 0), (2, 1), (2, 2), (3, 2)]

    def test_csv_format(self):
        series = load_snapshots("0 add 0 1\n1 add 2 3", granularity=1.0)
        rows = snapshot_distance_series(series, "vnge", "exact")
        buf = io.StringIO()
        write_snapshot_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index,distance,added,removed"
        assert lines[1] == "0,0.0,1,0"


def _drift_stream(events=20_000, vertices=2_000, seed=0):
    """One add/del event per time step; a delete names an earlier add's pair."""
    rng = random.Random(seed)
    pairs, lines = [], []
    for t in range(events):
        if pairs and rng.random() < 0.25:
            u, v = pairs[rng.randrange(len(pairs))]
            lines.append(f"{t} del {u} {v}\n")
        else:
            u, v = rng.randrange(vertices), rng.randrange(vertices)
            pairs.append((u, v))
            lines.append(f"{t} add {u} {v}\n")
    return "".join(lines)


class TestSnapshotMemory:
    """Memory of a drift series does not grow with its bucket count."""

    GRANULARITY = 100  # 200 buckets

    def test_traced_peak(self):
        # numpy reports its arrays to tracemalloc, so this peak does not
        # depend on the allocator; it read 117x the last snapshot while
        # every snapshot was built before the first descriptor
        text = _drift_stream()
        tracemalloc.start()
        try:
            series = load_snapshots(text, self.GRANULARITY)
            rows = snapshot_distance_series(series, "vnge", "taylor")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(series) == 200
        for last in series:
            pass
        graph_bytes = last.row_offsets.nbytes + last.col_indices.nbytes + last.weights.nbytes
        assert peak <= 20 * graph_bytes

    def test_at_most_two_described_graphs_alive(self, monkeypatch):
        series = load_snapshots(_drift_stream(), self.GRANULARITY)
        route, refs, alive = bench.METHODS["vnge"]["taylor"], [], []

        def counted(g, *args):
            refs.append(weakref.ref(g))
            alive.append(sum(ref() is not None for ref in refs))
            return route(g, *args)

        monkeypatch.setitem(bench.METHODS["vnge"], "taylor", counted)
        snapshot_distance_series(series, "vnge", "taylor")
        assert len(refs) == 200 and max(alive) <= 2
