"""Heat-trace and entropy descriptors: every route against frozen oracles.

Analytic constants below come from the closed-form spectra of the tiny
fixtures (path, star, cliques, disjoint edge unions); each is annotated with
its derivation.
"""

import io

import numpy as np
import pytest

from spectrace.descriptors import (
    EntropyValue,
    HeatTraceDescriptor,
    TimeGrid,
    descriptor_distance,
    descriptor_from_json,
    descriptor_to_json,
    netlsd_exact,
    netlsd_linear,
    netlsd_slq,
    netlsd_taylor,
    relative_error,
    vnge_exact,
    vnge_finger,
    vnge_slq,
    vnge_taylor,
)
from spectrace.graphs import erdos_renyi, parse_edge_list
from spectrace.operators import OperatorKind, dense_spectrum
from spectrace.slq import SlqConfig

from conftest import disjoint_edges, empty_graph, graph_from_edges, random_graph

# spectrum {0, 2} of a single edge's normalized Laplacian
K2_H1 = 1.0 + np.exp(-2.0)
# spectrum {0, 1.5, 1.5} of the triangle
K3_H1 = 1.0 + 2.0 * np.exp(-1.5)
# star on 4 vertices: normalized spectrum {0, 1, 1, 2}
STAR_H1 = 1.0 + 2.0 * np.exp(-1.0) + np.exp(-2.0)
# path on 3: density spectrum {0, 1/4, 3/4}
P3_VNGE = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
# star on 4: L spectrum {0,1,1,4}, tr L = 6
STAR_VNGE = np.log(6.0) / 3.0 + 2.0 / 3.0 * np.log(1.5)

GRID_T1 = TimeGrid(1.0, 1.0, 1)


def count_components(g):
    """Union-find component count (oracle, independent of spectra)."""
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v, _ in g.edges():
        parent[find(u)] = find(v)
    return len({find(i) for i in range(g.n)})


class TestTimeGrid:
    def test_default_grid(self):
        grid = TimeGrid()
        assert grid.count == 256
        assert grid.values[0] == 1e-2
        assert grid.values[-1] == 1e2
        assert np.all(np.diff(grid.values) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.5, 8)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 2.0, 1)

    def test_single_point(self):
        assert np.array_equal(GRID_T1.values, [1.0])


class TestNetlsdExact:
    def test_empty_graph_is_n(self):
        d = netlsd_exact(empty_graph(4))
        assert np.allclose(d.values, 4.0)

    def test_k2_at_t1(self, k2):
        d = netlsd_exact(k2, GRID_T1)
        assert d.values[0] == pytest.approx(K2_H1, abs=1e-12)

    def test_k3_at_t1(self, k3):
        d = netlsd_exact(k3, GRID_T1)
        assert d.values[0] == pytest.approx(K3_H1, abs=1e-12)

    def test_h_at_small_t_approaches_n(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, n=40, p=0.2)
        grid = TimeGrid(1e-12, 1.0, 16)
        d = netlsd_exact(g, grid)
        assert abs(d.values[0] - g.n) <= 1e-9 * g.n

    def test_monotone_decreasing_with_edges(self):
        rng = np.random.default_rng(1)
        for g in (random_graph(rng, 30, 0.2), disjoint_edges(4)):
            d = netlsd_exact(g, TimeGrid())
            diffs = np.diff(d.values)
            assert np.all(diffs <= 0)
            # strictly decreasing until the tail saturates at the component
            # count, where the decrement drops below float resolution
            live = d.values[:-1] > count_components(g) + 1e-9
            assert np.all(diffs[live] < 0)

    def test_limit_is_component_count(self):
        rng = np.random.default_rng(2)
        for g in (disjoint_edges(3), random_graph(rng, 30, 0.05),
                  graph_from_edges(6, [(0, 1), (2, 3)])):
            grid = TimeGrid(1.0, 1e6, 8)
            d = netlsd_exact(g, grid)
            assert d.values[-1] == pytest.approx(count_components(g), abs=1e-6)

    def test_permutation_invariance(self):
        lines = ["0 3", "1 3", "2 4", "3 4", "0 2"]
        g = parse_edge_list("\n".join(lines))
        perm = [3, 0, 4, 2, 1]
        relabeled = parse_edge_list("\n".join(f"{perm[int(a)]} {perm[int(b)]}"
                                              for a, b in (l.split() for l in lines)))
        da, db = netlsd_exact(g), netlsd_exact(relabeled)
        assert np.max(np.abs(da.values - db.values)) <= 1e-10
        va, vb = vnge_exact(g), vnge_exact(relabeled)
        assert abs(va.value - vb.value) <= 1e-10


class TestNetlsdSlq:
    def test_empty_graph_exact(self):
        d = netlsd_slq(empty_graph(7), TimeGrid(0.01, 100, 32), SlqConfig(seed=0))
        assert np.all(d.values == 7.0)

    def test_star_at_t1_within_error_bars(self, star3):
        # the 1e-2 headline tolerance is several sigma below the estimator's
        # Monte Carlo noise at n=4, so check against the reported error bars
        d = netlsd_slq(star3, GRID_T1, SlqConfig(seed=0))
        assert abs(d.values[0] - STAR_H1) <= 6 * d.std_errors[0]

    def test_er_graph_close_to_exact(self):
        from spectrace.graphs import erdos_renyi

        g = erdos_renyi(300, 8, seed=4)
        grid = TimeGrid(0.01, 100, 64)
        err = relative_error(netlsd_slq(g, grid, SlqConfig(seed=0)),
                             netlsd_exact(g, grid))
        assert err <= 1e-2

    def test_statistical_invariance_across_seed_ranges(self, k5):
        grid = TimeGrid(0.01, 100, 32)
        a = netlsd_slq(k5, grid, SlqConfig(seed=0))
        b = netlsd_slq(k5, grid, SlqConfig(seed=10**6))
        diff = np.linalg.norm(a.values - b.values)
        bound = 6 * max(np.linalg.norm(a.std_errors), np.linalg.norm(b.std_errors))
        assert diff <= bound

    def test_method_tag_and_params(self, k3):
        d = netlsd_slq(k3, TimeGrid(0.1, 10, 4), SlqConfig(n_v=7, s=3, seed=5))
        assert d.method == "slq"
        assert d.params == {"n_v": 7, "s": 3, "distribution": "rademacher", "seed": 5}


class TestNetlsdTaylor:
    def test_empty_graph_exact(self):
        d = netlsd_taylor(empty_graph(5))
        assert np.all(d.values == 5.0)

    def test_k2_small_t(self, k2):
        d = netlsd_taylor(k2, TimeGrid(0.1, 0.1, 1))
        assert d.values[0] == pytest.approx(1.82, abs=1e-12)
        exact = 1.0 + np.exp(-0.2)
        assert abs(d.values[0] - exact) < 2e-3

    def test_k3_large_t_failure(self, k3):
        d = netlsd_taylor(k3, GRID_T1)
        assert d.values[0] == pytest.approx(2.25, abs=1e-12)
        assert abs(d.values[0] - K3_H1) > 0.5  # demonstrates the large-t failure


class TestNetlsdLinear:
    def test_p3_linear_interior_is_exact(self, p3):
        grid = TimeGrid(0.01, 100, 16)
        lin = netlsd_linear(p3, grid, k=1)
        exact = netlsd_exact(p3, grid)
        assert np.allclose(lin.values, exact.values, atol=1e-6)

    def test_k3_interior_interpolation(self, k3):
        lin = netlsd_linear(k3, GRID_T1, k=1)
        expected = 1.0 + np.exp(-0.75) + np.exp(-1.5)
        assert lin.values[0] == pytest.approx(expected, abs=1e-6)

    def test_fallback_when_2k_geq_n(self, star3):
        grid = TimeGrid(0.01, 100, 8)
        lin = netlsd_linear(star3, grid, k=2)
        exact = netlsd_exact(star3, grid)
        assert np.array_equal(lin.values, exact.values)
        assert lin.params.get("fallback") == "exact"

    def test_rejects_bad_k(self, k3):
        with pytest.raises(ValueError):
            netlsd_linear(k3, k=0)

    def test_edgeless_graph_is_n(self):
        lin = netlsd_linear(empty_graph(30), TimeGrid(0.01, 100, 8), k=3)
        assert np.array_equal(lin.values, np.full(8, 30.0))

    def test_repeated_zero_matches_dense_extremes(self):
        # ER(1000), one isolated vertex (1000) and 5 disjoint edges: the
        # eigenvalue 0 repeats 7 times, once per component
        edges = [(u, v) for u, v, _ in erdos_renyi(1000, avg_degree=10, seed=0).edges()]
        edges += [(1001 + 2 * i, 1002 + 2 * i) for i in range(5)]
        g = graph_from_edges(1011, edges)
        k = 50
        dense = dense_spectrum(g, OperatorKind.NORMALIZED_LAPLACIAN)
        assert np.count_nonzero(dense < 1e-10) == 7
        interior_count = g.n - 2 * k
        step = (dense[-k] - dense[k - 1]) / (interior_count + 1)
        interior = dense[k - 1] + step * np.arange(1, interior_count + 1)
        eigs = np.maximum(np.concatenate([dense[:k], interior, dense[-k:]]), 0.0)
        grid = TimeGrid()
        expected = np.exp(-np.outer(grid.values, eigs)).sum(axis=1)
        lin = netlsd_linear(g, grid, k=k)
        assert np.allclose(lin.values, expected, rtol=1e-9, atol=0)


class TestVngeExact:
    def test_k2_zero(self, k2):
        assert vnge_exact(k2).value == pytest.approx(0.0, abs=1e-12)

    def test_two_disjoint_edges(self):
        assert vnge_exact(disjoint_edges(2)).value == pytest.approx(np.log(2), abs=1e-12)

    def test_star(self, star3):
        assert vnge_exact(star3).value == pytest.approx(STAR_VNGE, abs=1e-12)

    def test_range_and_disjoint_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_graph(rng, n=25, p=0.2)
            if g.m == 0:
                continue
            v = vnge_exact(g).value
            assert -1e-12 <= v <= np.log(g.n) + 1e-12
        for c in (2, 5, 17):
            assert vnge_exact(disjoint_edges(c)).value == pytest.approx(
                np.log(c), abs=1e-10
            )

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            vnge_exact(empty_graph(3))


class TestVngeSlq:
    def test_k2_zero(self, k2):
        e = vnge_slq(k2, SlqConfig(seed=0))
        assert abs(e.value) <= 1e-10

    def test_p3_within_error_bars(self, p3):
        # as with the star heat trace, 1e-2 absolute is sub-sigma at n=3;
        # validate against the reported standard error instead
        e = vnge_slq(p3, SlqConfig(seed=0))
        assert abs(e.value - P3_VNGE) <= 6 * e.std_error

    def test_disjoint_100_edges_near_log100(self):
        e = vnge_slq(disjoint_edges(100), SlqConfig(seed=2))
        assert abs(e.value - np.log(100)) / np.log(100) <= 1e-2
        assert abs(e.value - np.log(100)) <= 6 * e.std_error

    def test_seed_determinism(self, p3):
        a = vnge_slq(p3, SlqConfig(seed=3))
        b = vnge_slq(p3, SlqConfig(seed=3))
        assert a.value == b.value


class TestVngeTaylor:
    def test_k2_corrected_exact(self, k2):
        assert vnge_taylor(k2).value == pytest.approx(0.0, abs=1e-12)

    def test_p3_corrected(self, p3):
        assert vnge_taylor(p3).value == pytest.approx(0.375, abs=1e-12)

    def test_k2_printed_form(self, k2):
        assert vnge_taylor(k2, variant="printed").value == pytest.approx(-1.5, abs=1e-12)

    def test_bad_variant(self, k2):
        with pytest.raises(ValueError):
            vnge_taylor(k2, variant="other")


class TestVngeFinger:
    def test_k2_both_zero(self, k2):
        assert vnge_finger(k2, "hat").value == pytest.approx(0.0, abs=1e-10)
        assert vnge_finger(k2, "bar").value == pytest.approx(0.0, abs=1e-10)

    def test_p3_hat(self, p3):
        expected = -0.375 * np.log(0.75)
        assert vnge_finger(p3, "hat").value == pytest.approx(expected, abs=1e-6)

    def test_p3_bar_bound_is_one(self, p3):
        # 2 * d_max / tr(L) = 4/4 = 1, so the log vanishes
        assert vnge_finger(p3, "bar").value == pytest.approx(0.0, abs=1e-12)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            vnge_finger(empty_graph(2), "hat")


class TestDistances:
    def test_zero_on_identical(self, k3):
        d = netlsd_exact(k3)
        assert descriptor_distance(d, d) == 0.0

    def test_euclidean_on_vectors(self, k3):
        grid = TimeGrid(0.5, 1.0, 2)
        a = netlsd_exact(k3, grid)
        b = HeatTraceDescriptor(grid=grid, values=a.values + np.array([0.0, 2.0]),
                                method="exact", params={}, graph_hash="x")
        assert descriptor_distance(a, b) == pytest.approx(2.0)

    def test_absolute_on_entropies(self):
        a = EntropyValue(0.5, "exact", {}, "x")
        b = EntropyValue(0.2, "exact", {}, "y")
        assert descriptor_distance(a, b) == pytest.approx(0.3)
        assert descriptor_distance(b, a) == pytest.approx(0.3)

    def test_grid_mismatch_rejected(self, k3):
        a = netlsd_exact(k3, TimeGrid(0.1, 10, 8))
        b = netlsd_exact(k3, TimeGrid(0.1, 10, 9))
        with pytest.raises(ValueError, match="grid"):
            descriptor_distance(a, b)

    def test_mixed_types_rejected(self, k3):
        with pytest.raises(ValueError, match="types"):
            descriptor_distance(netlsd_exact(k3), vnge_exact(k3))

    def test_relative_error_identity_and_doubling(self, k3):
        grid = TimeGrid(0.5, 1.0, 2)
        ref = netlsd_exact(k3, grid)
        assert relative_error(ref, ref) == 0.0
        doubled = HeatTraceDescriptor(grid=grid, values=2.0 * ref.values,
                                      method="exact", params={}, graph_hash="x")
        assert relative_error(doubled, ref) == pytest.approx(1.0)

    def test_relative_error_k3_taylor(self, k3):
        err = relative_error(netlsd_taylor(k3, GRID_T1), netlsd_exact(k3, GRID_T1))
        assert err == pytest.approx(abs(2.25 - K3_H1) / K3_H1, rel=1e-12)
        assert err == pytest.approx(0.5557, abs=5e-5)

    def test_zero_norm_reference_rejected(self):
        ref = EntropyValue(0.0, "exact", {}, "x")
        with pytest.raises(ValueError, match="zero norm"):
            relative_error(EntropyValue(0.1, "exact", {}, "y"), ref)


class TestGridContract:
    def test_all_methods_share_shape_and_times(self, k5):
        grid = TimeGrid(0.1, 10, 24)
        cfg = SlqConfig(n_v=8, s=4, seed=0)
        descriptors = [
            netlsd_exact(k5, grid),
            netlsd_slq(k5, grid, cfg),
            netlsd_taylor(k5, grid),
            netlsd_linear(k5, grid, k=1),
        ]
        for d in descriptors:
            assert d.values.shape == (24,)
            assert np.array_equal(d.grid.values, grid.values)


class TestSerialization:
    def test_heat_trace_round_trip(self, k3):
        d = netlsd_slq(k3, TimeGrid(0.1, 10, 8), SlqConfig(n_v=5, s=3, seed=9))
        text = descriptor_to_json(d)
        back = descriptor_from_json(text)
        assert isinstance(back, HeatTraceDescriptor)
        assert np.array_equal(back.values, d.values)
        assert back.method == "slq"
        assert back.params["seed"] == 9
        assert back.graph_hash == d.graph_hash

    def test_entropy_round_trip(self, p3):
        e = vnge_exact(p3)
        back = descriptor_from_json(descriptor_to_json(e))
        assert isinstance(back, EntropyValue)
        assert back.value == e.value
        assert back.graph_hash == e.graph_hash

    def test_stream_write(self, k2):
        buf = io.StringIO()
        descriptor_to_json(vnge_exact(k2), buf)
        assert '"kind": "vnge"' in buf.getvalue()
