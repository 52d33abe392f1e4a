"""Operator matvecs and trace identities against dense oracles."""

import contextlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from spectrace import erdos_renyi, operators
from spectrace.graphs import Graph
from spectrace.operators import (
    OperatorKind,
    degrees,
    dense_spectrum,
    make_operator,
    trace,
    trace_squared,
)

from conftest import (
    dense_operator_matrix,
    disjoint_edges,
    empty_graph,
    graph_from_edges,
    pad_vertices,
    random_graph,
)

ALL_KINDS = list(OperatorKind)


@contextlib.contextmanager
def _product_path(loader_fails):
    """make_operator's kernel loaded by file, as in a process that has not
    imported scipy.sparse, or, if loader_fails, its scipy.sparse fallback."""

    def fail(*args, **kwargs):
        raise ImportError("extension cannot be loaded")

    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(sys.modules, operators._KERNEL_MODULE, raising=False)
        if loader_fails:
            mp.setattr(importlib.util, "spec_from_file_location", fail)
        operators._coo_kernels.cache_clear()
        try:
            if loader_fails:
                assert operators._coo_kernels() is None
            yield
        finally:
            operators._coo_kernels.cache_clear()


def _algebra_csr(g, kind):
    """The operator in scipy's sparse algebra, D - A, diags(d > 0) - S A S
    with S = diags(d^{-1/2}) and (D - A) * (1 / tr L), as CSR."""
    adj = sp.csr_matrix((g.weights, g.col_indices, g.row_offsets), shape=(g.n, g.n))
    d = adj @ np.ones(g.n)
    if kind is OperatorKind.LAPLACIAN:
        return sp.csr_matrix(sp.diags(d) - adj)
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        pos = d > 0
        s = np.zeros(g.n)
        s[pos] = 1.0 / np.sqrt(d[pos])
        src = np.repeat(np.arange(g.n), np.diff(g.row_offsets))
        scaled = sp.csr_matrix((s[src] * g.weights * s[g.col_indices], g.col_indices,
                                g.row_offsets), shape=(g.n, g.n))
        return sp.csr_matrix(sp.diags(pos.astype(np.float64)) - scaled)
    return sp.csr_matrix((sp.diags(d) - adj) * (1.0 / float(d.sum())))


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
        # the operator's entries are the sparse algebra's, laid out in row
        # panels: panel by panel, then by column, then by row. With one
        # panel or many, and with the kernel loaded by file or the
        # scipy.sparse fallback, its products, the dense spectrum and the
        # degrees equal the algebra's bit for bit
        rng = np.random.default_rng(7)
        # tr(L) = 3e-323: 1 / tr(L) overflows, so its density matrix is undefined
        denormal = graph_from_edges(3, [(0, 1, 5e-324), (1, 2, 5e-324), (2, 0, 5e-324)])
        # tr(L) = 6e-300: tr(L)^2 underflows, and the density matrix is undefined too
        tiny = graph_from_edges(6, [(0, 1, 1e-300), (1, 2, 1e-300), (3, 4, 1e-300)])
        graphs = [
            random_graph(rng, n=40, p=0.2, weighted=True),
            pad_vertices(random_graph(rng, n=30, p=0.1), 45),
            empty_graph(1),
            empty_graph(5),
            disjoint_edges(4),
            tiny,
            denormal,
            # 5e-324 next to 1e300: normalized and density entries underflow
            graph_from_edges(8, [(0, 1, 5e-324), (0, 2, 1e300), (1, 3, 1e300),
                                 (4, 5, 1.0), (6, 7, 5e-324)]),
        ]
        cases = [(g, panel_rows) for g in graphs
                 for panel_rows in (operators.PANEL_ROWS, 7, 1)]
        # 70,000 panels: a 16-bit panel key would wrap
        cases.append((erdos_renyi(70_000, 2, 0), 1))
        for g, panel_rows in cases:
            monkeypatch.setattr(operators, "PANEL_ROWS", panel_rows)
            adj = sp.csr_matrix((g.weights, g.col_indices, g.row_offsets), shape=(g.n, g.n))
            assert degrees(g).tobytes() == (adj @ np.ones(g.n)).tobytes()
            x = rng.standard_normal(g.n)
            block = rng.standard_normal((g.n, 8))
            # a strided block, one column, and the identity that
            # extremal_eigenvalues densifies the operator with at k == n
            inputs = [x, block, block[:, ::3], block[:, :1]]
            if g.n <= 50:
                inputs.append(np.eye(g.n))
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and g.m == 0:
                    continue
                if kind is OperatorKind.DENSITY and g in (denormal, tiny):
                    for loader_fails in (False, True):
                        with _product_path(loader_fails):
                            with pytest.raises(ValueError, match="too small to normalize"):
                                make_operator(g, kind)
                    with pytest.raises(ValueError, match="too small to normalize"):
                        trace_squared(g, kind)
                    continue
                ref = _algebra_csr(g, kind)
                rows, cols, vals, _ = operators._entries(g, kind)
                # the algebra drops a normalized entry that underflows to 0;
                # the panels keep it as +0.0, which changes no product
                extra = (vals == 0) & (kind is OperatorKind.NORMALIZED_LAPLACIAN)
                assert not np.signbit(vals[extra]).any()
                rows, cols, vals = (np.delete(a, extra) for a in (rows, cols, vals))
                coo = ref.tocoo()
                order = np.lexsort((coo.row, coo.col, coo.row // panel_rows))
                assert rows.dtype == cols.dtype == np.int32
                assert np.array_equal(rows, coo.row[order])
                assert np.array_equal(cols, coo.col[order])
                assert vals.tobytes() == coo.data[order].tobytes()
                for loader_fails in (False, True):
                    with _product_path(loader_fails):
                        op = make_operator(g, kind)
                    for v in inputs:
                        assert op.apply(v).tobytes() == (ref @ v).tobytes()
                if g.n <= 50 and panel_rows == 1:
                    exact = scipy.linalg.eigvalsh(ref.toarray(order="F"), overwrite_a=True)
                    assert dense_spectrum(g, kind).tobytes() == exact.tobytes()

    def test_single_precision_block_matches_across_paths(self):
        # a float32 input is multiplied in float32 by the entries rounded to
        # float32: the kernel loaded by file and the scipy.sparse fallback
        # give the float32 algebra's bytes, with one panel or many
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, n=40, p=0.2, weighted=True),
                  pad_vertices(random_graph(rng, n=30, p=0.1), 45),
                  empty_graph(5), disjoint_edges(4), erdos_renyi(3000, 10, 1)]
        for g in graphs:
            block = rng.standard_normal((g.n, 8)).astype(np.float32)
            inputs = [block, block[:, ::3], block[:, :1], block[:, 0]]
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and g.m == 0:
                    continue
                ref = _algebra_csr(g, kind).astype(np.float32)
                for loader_fails in (False, True):
                    with _product_path(loader_fails):
                        op = make_operator(g, kind)
                    for v in inputs:
                        out = op.apply(v)
                        assert out.dtype == np.float32
                        assert out.tobytes() == (ref @ v).tobytes()

    def test_float64_path_is_unchanged_next_to_float32(self):
        # float64 input, and any other non-float32 input, takes the float64
        # path before and after a float32 product, bit for bit as the algebra
        rng = np.random.default_rng(12)
        g = erdos_renyi(3000, 10, 2)
        block = rng.standard_normal((g.n, 8))
        inputs = [block, block[:, ::3], block[:, 0], np.arange(g.n), block.astype(np.float16)]
        for kind in ALL_KINDS:
            ref = _algebra_csr(g, kind)
            for loader_fails in (False, True):
                with _product_path(loader_fails):
                    op = make_operator(g, kind)
                for single_first in (False, True):
                    if single_first:
                        op.apply(block.astype(np.float32))
                    for v in inputs:
                        out = op.apply(v)
                        assert out.dtype == np.float64
                        assert out.tobytes() == (ref @ v.astype(np.float64)).tobytes()

    def test_column_index_out_of_range(self):
        # the kernel does no bounds checks, so the entries are checked first
        for col in (5, 3, -1):
            g = Graph(3, np.array([0, 1, 2, 2]), np.array([1, col]), np.ones(2))
            for loader_fails in (False, True):
                for kind in ALL_KINDS:
                    with _product_path(loader_fails):
                        with pytest.raises(ValueError, match=f"column index {col} outside"):
                            make_operator(g, kind)

    def test_wrong_shape_raises_on_both_paths(self):
        # the kernel and the scipy.sparse fallback check their input alike,
        # for float64 and for float32 input
        g = erdos_renyi(50, 4, 0)
        for loader_fails in (False, True):
            with _product_path(loader_fails):
                op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
            for x in (np.ones(49), np.ones((51, 8)), np.ones((50, 2, 2))):
                for dtype in (np.float64, np.float32):
                    message = f"operator of dimension 50 cannot apply to shape {x.shape}"
                    with pytest.raises(ValueError, match=re.escape(message)):
                        op.apply(x.astype(dtype))

    def test_kernel_loads_by_file(self):
        # the extension leaves sys.modules as it found it, and a later
        # scipy.sparse import still sets its _sparsetools attribute
        code = """
import sys
from spectrace import operators
print(operators._coo_kernels() is not None)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
import scipy.sparse
print(scipy.sparse._sparsetools.coo_matvec is not None)
"""
        src = str(Path(operators.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src}, check=True)
        # the kernel loads wherever this scipy has both functions
        available = all(hasattr(sp._sparsetools, name)
                        for name in ("coo_matvec", "coo_matmat_dense"))
        assert proc.stdout.split("\n")[:3] == [str(available), "[]", "True"]

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
