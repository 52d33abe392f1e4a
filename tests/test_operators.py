"""Operator matvecs and trace identities against dense oracles."""

import numpy as np
import pytest

from spectrace import operators
from spectrace.lanczos import dense_spectrum
from spectrace.operators import (
    OperatorKind,
    degrees,
    make_operator,
    trace,
    trace_squared,
)

from conftest import (
    dense_operator_matrix,
    disjoint_edges,
    empty_graph,
    graph_from_edges,
    random_graph,
)

ALL_KINDS = list(OperatorKind)


class TestDegrees:
    def test_k3(self, k3):
        assert np.array_equal(degrees(k3), [2, 2, 2])

    def test_star(self, star3):
        assert np.array_equal(degrees(star3), [3, 1, 1, 1])

    def test_empty(self):
        assert np.array_equal(degrees(empty_graph(4)), [0, 0, 0, 0])

    def test_weighted(self):
        g = graph_from_edges(3, [(0, 1, 2.0), (1, 2, 0.5)])
        assert np.allclose(degrees(g), [2.0, 2.5, 0.5])


class TestMakeOperator:
    def test_k2_laplacian_eigenvector(self, k2):
        op = make_operator(k2, OperatorKind.LAPLACIAN)
        assert np.allclose(op.apply(np.array([1.0, -1.0])), [2.0, -2.0])

    def test_k2_normalized_kernel(self, k2):
        op = make_operator(k2, OperatorKind.NORMALIZED_LAPLACIAN)
        assert np.allclose(op.apply(np.array([1.0, 1.0])), [0.0, 0.0])

    def test_p3_density_row(self, p3):
        op = make_operator(p3, OperatorKind.DENSITY)
        assert np.allclose(op.apply(np.array([1.0, 0.0, 0.0])), [0.25, -0.25, 0.0])

    def test_density_requires_edges(self):
        with pytest.raises(ValueError, match="without edges"):
            make_operator(empty_graph(3), OperatorKind.DENSITY)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            g = random_graph(rng, n=int(rng.integers(2, 30)), p=0.3, weighted=bool(trial % 2))
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and g.m == 0:
                    continue
                op = make_operator(g, kind)
                mat = dense_operator_matrix(g, kind)
                x = rng.standard_normal(g.n)
                assert np.allclose(op.apply(x), mat @ x, atol=1e-12)

    def test_row_panels_match_csr_bit_for_bit(self, monkeypatch):
        # the operator stores its entries in row panels; with one panel or
        # several, products equal the plain CSR matrix's bit for bit
        rng = np.random.default_rng(7)
        g = random_graph(rng, n=40, p=0.2, weighted=True)
        x = rng.standard_normal(g.n)
        block = rng.standard_normal((g.n, 8))
        for kind in ALL_KINDS:
            csr, _ = operators._matrix(g, kind)
            for panel_rows in (operators.PANEL_ROWS, 7):
                monkeypatch.setattr(operators, "PANEL_ROWS", panel_rows)
                panels = make_operator(g, kind)
                assert panels.apply.__self__.format == "coo"
                assert np.array_equal(panels.apply(x), csr @ x)
                assert np.array_equal(panels.apply(block), csr @ block)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(rng, n=25, p=0.2, weighted=True)
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and g.m == 0:
                    continue
                op = make_operator(g, kind)
                x = rng.standard_normal(g.n)
                y = rng.standard_normal(g.n)
                lhs = np.dot(x, op.apply(y))
                rhs = np.dot(y, op.apply(x))
                bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
                assert abs(lhs - rhs) <= bound

    def test_kernel_vectors(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, n=20, p=0.3)
        ones = np.ones(g.n)
        lap = make_operator(g, OperatorKind.LAPLACIAN)
        assert np.allclose(lap.apply(ones), 0.0, atol=1e-12)
        den = make_operator(g, OperatorKind.DENSITY)
        assert np.allclose(den.apply(ones), 0.0, atol=1e-12)
        nl = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        sqrt_d = np.sqrt(degrees(g))
        assert np.allclose(nl.apply(sqrt_d), 0.0, atol=1e-10)

    def test_isolated_vertex_zero_row(self):
        g = graph_from_edges(3, [(0, 1)])  # vertex 2 isolated
        op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        e2 = np.array([0.0, 0.0, 1.0])
        assert np.allclose(op.apply(e2), 0.0)

    def test_normalized_spectrum_in_0_2(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            g = random_graph(rng, n=30, p=0.2)
            eigs = dense_spectrum(g, OperatorKind.NORMALIZED_LAPLACIAN)
            assert eigs.min() >= -1e-8
            assert eigs.max() <= 2 + 1e-8

    def test_density_spectrum_in_0_1_sums_to_1(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, n=25, p=0.3, weighted=True)
        eigs = dense_spectrum(g, OperatorKind.DENSITY)
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 1 + 1e-10
        assert abs(eigs.sum() - 1.0) < 1e-10


class TestTraces:
    def test_k3_laplacian(self, k3):
        assert trace(k3, OperatorKind.LAPLACIAN) == 6.0

    def test_normalized_counts_nonisolated(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, n=20, p=0.4)
        assert trace(g, OperatorKind.NORMALIZED_LAPLACIAN) == np.count_nonzero(degrees(g) > 0)
        # no isolated vertices: tr = n
        full = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert trace(full, OperatorKind.NORMALIZED_LAPLACIAN) == 4.0

    def test_density_is_one(self, star3):
        assert trace(star3, OperatorKind.DENSITY) == 1.0

    def test_trace_squared_k3(self, k3):
        assert trace_squared(k3, OperatorKind.LAPLACIAN) == pytest.approx(18.0)

    def test_trace_squared_p3(self, p3):
        # spectrum {0, 1, 3} -> sum of squares 10
        assert trace_squared(p3, OperatorKind.LAPLACIAN) == pytest.approx(10.0)

    def test_trace_squared_k2_normalized(self, k2):
        assert trace_squared(k2, OperatorKind.NORMALIZED_LAPLACIAN) == pytest.approx(4.0)

    def test_against_dense_spectrum(self):
        rng = np.random.default_rng(6)
        for trial in range(15):
            g = random_graph(rng, n=int(rng.integers(2, 40)), p=0.3, weighted=bool(trial % 2))
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and g.m == 0:
                    continue
                eigs = dense_spectrum(g, kind)
                tr = trace(g, kind)
                tr2 = trace_squared(g, kind)
                scale1 = max(abs(eigs.sum()), 1e-12)
                scale2 = max(np.sum(eigs**2), 1e-12)
                assert abs(tr - eigs.sum()) / scale1 < 1e-8
                assert abs(tr2 - np.sum(eigs**2)) / scale2 < 1e-8

    def test_disjoint_edges_traces(self):
        g = disjoint_edges(5)
        assert trace(g, OperatorKind.LAPLACIAN) == 10.0
        assert trace_squared(g, OperatorKind.DENSITY) == pytest.approx(5 * (2 / 10) ** 2)
