"""Operator matvecs and trace identities against dense oracles."""

import contextlib
import gc
import importlib.util
import re
import sys
import threading
import tracemalloc
from functools import cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from spectrace import _scipy, erdos_renyi, operators
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
    algebra_csr,
    asymmetric_normalized_graph,
    dense_operator_matrix,
    density_defined,
    disjoint_edges,
    empty_graph,
    graph_from_edges,
    pad_vertices,
    patch_private,
    random_graph,
    stored_pair_graphs,
)

ALL_KINDS = list(OperatorKind)

# make_operator's product routes (see _product_path)
ROUTES = ["kernel", "fallback", "columns"]


@contextlib.contextmanager
def _product_path(route):
    """make_operator's products on one route: "kernel", scipy's compiled
    COO kernels loaded by file, as in a process that has not imported
    scipy.sparse; "fallback", the same kernels imported with scipy.sparse,
    as where the file cannot be loaded; "columns", (n, W) blocks column by
    column through coo_matvec, as in a scipy without coo_matmat_dense."""

    def fail(*args, **kwargs):
        raise ImportError("extension cannot be loaded")

    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(sys.modules, _scipy._SPARSETOOLS, raising=False)
        if route == "fallback":
            mp.setattr(importlib.util, "spec_from_file_location", fail)
        _scipy._extension.cache_clear()
        try:
            module = _scipy._extension(_scipy._SPARSETOOLS)
            if route == "fallback":
                assert "scipy.sparse" in sys.modules
                assert module is sp._sparsetools
            elif route == "columns":
                patch_private(mp, coo_matmat_dense=None)
            yield
        finally:
            _scipy._extension.cache_clear()


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
        # the operator's entries are the sparse algebra's: each pair once,
        # in panels of its smaller id, and the diagonal. With one
        # panel or many, and on every product route, its products, the
        # dense spectrum and the degrees equal the algebra's bit for bit
        rng = np.random.default_rng(7)
        # tr(L) = 3e-323: 1 / tr(L) overflows, so its density matrix is undefined
        denormal = graph_from_edges(3, [(0, 1, 5e-324), (1, 2, 5e-324), (2, 0, 5e-324)])
        # tr(L) = 6e-300: tr(L)^2 underflows, and the density matrix is undefined too
        tiny = graph_from_edges(6, [(0, 1, 1e-300), (1, 2, 1e-300), (3, 4, 1e-300)])
        # tr(L) = 4e300: tr(L)^2 overflows, so its density matrix is undefined;
        # 5e-324 next to 1e300: its normalized entries underflow
        huge = graph_from_edges(8, [(0, 1, 5e-324), (0, 2, 1e300), (1, 3, 1e300),
                                    (4, 5, 1.0), (6, 7, 5e-324)])
        graphs = [
            random_graph(rng, n=40, p=0.2, weighted=True),
            pad_vertices(random_graph(rng, n=30, p=0.1), 45),
            empty_graph(1),
            empty_graph(5),
            disjoint_edges(4),
            tiny,
            denormal,
            huge,
            # 5e-324 next to 1e150: normalized and density entries underflow
            graph_from_edges(8, [(0, 1, 5e-324), (0, 2, 1e150), (1, 3, 1e150),
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
            # a strided block, one column, no column, and the identity that
            # extremal_eigenvalues densifies the operator with at k == n
            inputs = [x, block, block[:, ::3], block[:, :1], block[:, :0]]
            if g.n <= 50:
                inputs.append(np.eye(g.n))
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and g.m == 0:
                    continue
                if kind is OperatorKind.DENSITY and g in (denormal, tiny, huge):
                    message = f"too {'large' if g is huge else 'small'} to normalize"
                    for route in ROUTES:
                        with _product_path(route):
                            with pytest.raises(ValueError, match=message):
                                make_operator(g, kind)
                    with pytest.raises(ValueError, match=message):
                        trace_squared(g, kind)
                    continue
                ref = algebra_csr(g, kind)
                lo, hi, diag, (w, d), _ = operators._pairs(g, kind)
                lower, diagonal, upper = operators._values(kind, lo, hi, diag, w, d, np.float64)
                assert lo.dtype == hi.dtype == diag.dtype == np.int32
                # the values below the diagonal are those above it, but for
                # the normalized Laplacian of stored weights
                own = (kind is OperatorKind.NORMALIZED_LAPLACIAN
                       and not operators._is_unit_view(g.weights))
                assert (lower is not upper) == own
                coo = ref.tocoo()
                # each pair once, ordered by (panel of lo, hi, lo): the
                # algebra's entries below the diagonal as (hi, lo), and
                # above it as (lo, hi)
                for rows, cols, vals, part in ((hi, lo, lower, coo.row > coo.col),
                                               (lo, hi, upper, coo.row < coo.col)):
                    # the algebra drops a normalized entry that underflows
                    # to 0; the pairs keep it as +0.0, which changes no product
                    extra = (vals == 0) & (kind is OperatorKind.NORMALIZED_LAPLACIAN)
                    assert not np.signbit(vals[extra]).any()
                    rows, cols, vals = (np.delete(a, extra) for a in (rows, cols, vals))
                    r, c = coo.row[part], coo.col[part]
                    order = np.lexsort((np.minimum(r, c), np.maximum(r, c),
                                        np.minimum(r, c) // panel_rows))
                    assert np.array_equal(rows, r[order])
                    assert np.array_equal(cols, c[order])
                    assert vals.tobytes() == coo.data[part][order].tobytes()
                on_diagonal = coo.row == coo.col
                assert np.array_equal(diag, np.sort(coo.row[on_diagonal]))
                assert diagonal.tobytes() == coo.data[on_diagonal][
                    np.argsort(coo.row[on_diagonal])].tobytes()
                for route in ROUTES:
                    with _product_path(route):
                        op = make_operator(g, kind)
                        for v in inputs:
                            out = op.apply(v)
                            assert out.shape == v.shape
                            assert out.tobytes() == (ref @ v).tobytes()
                if g.n <= 50 and panel_rows == 1:
                    exact = scipy.linalg.eigvalsh(ref.toarray(order="F"), overwrite_a=True)
                    assert dense_spectrum(g, kind).tobytes() == exact.tobytes()

    def test_single_precision_block_matches_across_paths(self):
        # a float32 input is multiplied in float32 by the entries rounded to
        # float32: every product route gives the float32 algebra's bytes,
        # with one panel or many
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, n=40, p=0.2, weighted=True),
                  pad_vertices(random_graph(rng, n=30, p=0.1), 45),
                  empty_graph(5), disjoint_edges(4), erdos_renyi(3000, 10, 1)]
        for g in graphs:
            block = rng.standard_normal((g.n, 8)).astype(np.float32)
            inputs = [block, block[:, ::3], block[:, :1], block[:, :0], block[:, 0]]
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and g.m == 0:
                    continue
                ref = algebra_csr(g, kind).astype(np.float32)
                for route in ROUTES:
                    with _product_path(route):
                        op = make_operator(g, kind)
                        for v in inputs:
                            out = op.apply(v)
                            assert out.dtype == np.float32
                            assert out.shape == v.shape
                            assert out.tobytes() == (ref @ v).tobytes()

    def test_float64_path_is_unchanged_next_to_float32(self):
        # float64 input, and any other non-float32 input, takes the float64
        # path before and after a float32 product, bit for bit as the algebra
        rng = np.random.default_rng(12)
        g = erdos_renyi(3000, 10, 2)
        block = rng.standard_normal((g.n, 8))
        inputs = [block, block[:, ::3], block[:, 0], np.arange(g.n), block.astype(np.float16)]
        for kind in ALL_KINDS:
            ref = algebra_csr(g, kind)
            for route in ROUTES:
                with _product_path(route):
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
            for route in ROUTES:
                for kind in ALL_KINDS:
                    with _product_path(route):
                        with pytest.raises(ValueError, match=f"column index {col} outside"):
                            make_operator(g, kind)

    def test_wrong_shape_raises_on_both_paths(self):
        # every product route checks its input alike, for float64 and for
        # float32 input
        g = erdos_renyi(50, 4, 0)
        for route in ROUTES:
            with _product_path(route):
                op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
                for x in (np.ones(49), np.ones((51, 8)), np.ones((50, 2, 2))):
                    for dtype in (np.float64, np.float32):
                        message = f"operator of dimension 50 cannot apply to shape {x.shape}"
                        with pytest.raises(ValueError, match=re.escape(message)):
                            op.apply(x.astype(dtype))

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


@cache
def _er3000():
    return erdos_renyi(3000, 10, 3)


class TestValuesPerDtype:
    """make_operator keeps ids, no values: each dtype's values are built
    from the stored ids on the first product in that dtype, and kept. The
    first build takes the weights and degrees that the pair build made; a
    build in the other dtype derives them from the graph again. Checked
    on every product route."""

    @pytest.fixture(params=ROUTES)
    def route(self, request):
        with _product_path(request.param):
            yield request.param

    def test_either_order_matches_fresh_operators(self, route):
        g = _er3000()
        rng = np.random.default_rng(13)
        double = rng.standard_normal((g.n, 8))
        inputs = [double, double[:, 0], double.astype(np.float32),
                  double[:, 0].astype(np.float32)]
        for kind in ALL_KINDS:
            fresh = [make_operator(g, kind).apply(x).tobytes() for x in inputs]
            for order in ((0, 1, 2, 3), (2, 3, 0, 1)):
                op = make_operator(g, kind)
                # each input twice: once while its dtype's values are built,
                # once after both dtypes are held
                for i in order + order:
                    assert op.apply(inputs[i]).tobytes() == fresh[i], (kind, order, i)

    def test_float32_product_lets_float64_values_go(self, route):
        g = _er3000()
        block = np.ones((g.n, 8), np.float32)
        entries = g.col_indices.size + np.count_nonzero(degrees(g))
        for kind in ALL_KINDS:
            gc.collect()
            tracemalloc.start()
            try:
                op = make_operator(g, kind)
                op.apply(block)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            # each pair once as int32 ids and a float32 value takes 6.3-6.8
            # bytes per entry; float64 values held next to them would add 4
            assert held < 8 * entries, (kind, held / entries)
            del op

    def test_last_reference_frees_the_operator(self, route):
        # the product closures form no reference cycle, so an operator's
        # ids and values go with its last reference, before any garbage
        # collection; with a cycle, each snapshot's operator outlived it
        g = _er3000()
        block = np.ones((g.n, 8), np.float32)
        inputs = [block, block[:, 0], block.astype(np.float64)]
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for kind in ALL_KINDS:
                op = make_operator(g, kind)
                for x in inputs:
                    op.apply(x)
                held = tracemalloc.get_traced_memory()[0]
                del op
                left = tracemalloc.get_traced_memory()[0]
                assert left < held / 20, (kind, held, left)
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_concurrent_first_products_build_values_once(self, route, monkeypatch):
        g = _er3000()
        block = np.random.default_rng(14).standard_normal((g.n, 8)).astype(np.float32)
        expected = {kind: make_operator(g, kind).apply(block).tobytes() for kind in ALL_KINDS}
        built = []
        (matvec,) = _scipy._private(_scipy._SPARSETOOLS, "coo_matvec")
        matmat = _scipy._private(_scipy._SPARSETOOLS, "coo_matmat_dense")
        # every kernel call's values: a block's three calls, or on the
        # per-column route, each column's three
        calls = 3 if matmat is not None else 3 * block.shape[1]

        def recorded(kernel, values_at):
            """kernel, recording the values array of each call."""
            def record(*args):
                built.append(args[values_at])
                return kernel(*args)
            return record

        patch_private(monkeypatch, coo_matvec=recorded(matvec, 3),
                      coo_matmat_dense=matmat and recorded(matmat[0], 4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kind in ALL_KINDS:
                for _ in range(5):
                    built.clear()
                    op = make_operator(g, kind)
                    barrier = threading.Barrier(4, timeout=60)
                    results = [None] * 4

                    def first_product(i):
                        barrier.wait()
                        results[i] = op.apply(block).tobytes()

                    threads = [threading.Thread(target=first_product, args=(i,))
                               for i in range(4)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                        assert not thread.is_alive()
                    assert results == [expected[kind]] * 4
                    # the kernel calls read the same two float32 arrays in
                    # all four products: with unit weights, the values below
                    # the diagonal are those above it
                    assert len(built) == 4 * calls
                    assert len({id(vals) for vals in built}) == 2
                    assert all(vals.dtype == np.float32 for vals in built)
        finally:
            sys.setswitchinterval(interval)


def _weighted_er50k():
    """ER(50k, 10) with a stored weight in [0.25, 4.25) on each edge, the
    same in both directions."""
    g = erdos_renyi(50_000, 10, 0)
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.row_offsets))
    lo, hi = np.minimum(src, g.col_indices), np.maximum(src, g.col_indices)
    weights = 0.25 + 4.0 * ((lo * 1_000_003 + hi) % 9973) / 9973.0
    return Graph(n=g.n, row_offsets=g.row_offsets, col_indices=g.col_indices,
                 weights=weights)


class TestValueBuildMemory:
    """Traced bytes per stored entry of ER(50k, 10) that an operator holds
    and peaks at, with the graph held."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unit_weights_hold_no_values_after_build(self, kind):
        # int32 ids of each pair take 4 bytes per entry and the diagonal's
        # ids and the degrees 1.2 more: 5.2 here. The float64 values that
        # make_operator used to keep until the first product added 4 (9.2)
        g = erdos_renyi(50_000, 10, 0)
        gc.collect()
        tracemalloc.start()
        try:
            op = make_operator(g, kind)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del op
        assert held <= 6 * g.col_indices.size, held / g.col_indices.size

    @pytest.mark.parametrize("kind,held_bound,peak_bound", [
        (OperatorKind.LAPLACIAN, 7, 13.5),
        (OperatorKind.NORMALIZED_LAPLACIAN, 9, 17.5),
        (OperatorKind.DENSITY, 7, 13.5),
    ])
    def test_weighted_first_float32_product(self, kind, held_bound, peak_bound):
        # after make_operator, the held pair-ordered weights stand where the
        # float64 values stood. The first float32 product's peak read 14.8
        # (20.4 for the normalized Laplacian) when it rounded the held
        # float64 values with the product's output allocated; built in
        # chunks before the output, 12.4 (16.2). Held after it: 6.8 (8.8)
        # on both
        g = _weighted_er50k()
        block = np.ones((g.n, 8), np.float32)
        entries = g.col_indices.size
        gc.collect()
        tracemalloc.start()
        try:
            op = make_operator(g, kind)
            tracemalloc.reset_peak()
            op.apply(block)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del op
        assert held <= held_bound * entries, held / entries
        assert peak <= peak_bound * entries, peak / entries


class TestStoredPairs:
    """Each undirected edge is stored once. A product is three kernel calls
    into one zeroed output: the pairs below the diagonal, the diagonal, the
    pairs above it. Every output entry thus sums its row's terms in column
    order, so products equal the sparse algebra's bit for bit."""

    @pytest.mark.parametrize("panel_rows", [operators.PANEL_ROWS, 7, 1])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("route", ROUTES)
    def test_products_match_the_algebra(self, panel_rows, dtype, route, monkeypatch):
        monkeypatch.setattr(operators, "PANEL_ROWS", panel_rows)
        rng = np.random.default_rng(42)
        for g in stored_pair_graphs():
            block = rng.standard_normal((g.n, 8)).astype(dtype)
            inputs = [block, block[:, ::3], block[:, :1], block[:, :0], block[:, 0]]
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and not density_defined(g):
                    continue
                # weights of 1e300 round to inf in float32, on both sides
                with np.errstate(over="ignore"):
                    ref = algebra_csr(g, kind).astype(dtype)
                    with _product_path(route):
                        op = make_operator(g, kind)
                        for v in inputs:
                            out = op.apply(v)
                            assert out.dtype == dtype
                            assert out.shape == v.shape
                            assert out.tobytes() == (ref @ v).tobytes(), (g.n, kind)

    def test_weighted_normalized_transpose_has_its_own_values(self):
        # (w s_hi) s_lo and (w s_lo) s_hi round apart on this graph, so a
        # product that reused the values above the diagonal below it would
        # differ from the algebra's
        g = asymmetric_normalized_graph()
        kind = OperatorKind.NORMALIZED_LAPLACIAN
        lo, hi, diag, (w, d), _ = operators._pairs(g, kind)
        lower, _, upper = operators._values(kind, lo, hi, diag, w, d, np.float64)
        assert lower.tobytes() != upper.tobytes()
        block = np.random.default_rng(43).standard_normal((g.n, 8))
        inputs = [block, block[:, 0], block.astype(np.float32)]
        for route in ROUTES:
            with _product_path(route):
                op = make_operator(g, kind)
                for x in inputs:
                    ref = algebra_csr(g, kind).astype(x.dtype)
                    assert op.apply(x).tobytes() == (ref @ x).tobytes()

    def test_dense_spectrum_matches_eigvalsh_of_the_algebra(self):
        for g in stored_pair_graphs():
            for kind in ALL_KINDS:
                if kind is OperatorKind.DENSITY and not density_defined(g):
                    continue
                exact = scipy.linalg.eigvalsh(algebra_csr(g, kind).toarray(order="F"),
                                              overwrite_a=True)
                assert dense_spectrum(g, kind).tobytes() == exact.tobytes(), (g.n, kind)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_make_operator_peak(self, kind):
        # traced, per stored entry of ER(50k, 10), with the graph held: it
        # read 41.1 for the full row-panel layout and 11.2-14.1 for one
        # stored copy of each pair
        g = erdos_renyi(50_000, 10, 0)
        gc.collect()
        tracemalloc.start()
        try:
            op = make_operator(g, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del op
        assert peak <= 20 * g.col_indices.size, peak / g.col_indices.size


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


def _trace_squared_in_one_pass(g, kind):
    """trace_squared as one full-size expression per array, on stored weights."""
    d, w = degrees(g), np.array(g.weights)
    if kind is OperatorKind.LAPLACIAN:
        return float(np.sum(d * d) + np.sum(w * w))
    d_src = d[np.repeat(np.arange(g.n), np.diff(g.row_offsets))]
    d_dst = d[g.col_indices]
    with np.errstate(over="ignore", invalid="ignore"):
        denom = d_src * d_dst
        terms = w * w / denom
    odd = (denom < np.finfo(np.float64).tiny) | (denom == np.inf)
    terms[odd] = (w[odd] / d_src[odd]) * (w[odd] / d_dst[odd])
    return float(np.count_nonzero(d > 0)) + float(np.sum(terms))


class TestTraceSquaredInBlocks:
    """trace_squared takes unit weights' sum of squares as nnz and fills the
    normalized terms in blocks of rows; neither changes a bit."""

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(21)
        yield erdos_renyi(3000, 10, 3)
        yield empty_graph(4)
        for scale in (1.0, 1e-160, 1e300):
            edges = [(int(u), int(v), float(w)) for u, v, w in zip(
                rng.integers(0, 400, 3000), rng.integers(0, 400, 3000),
                rng.random(3000) * scale + scale * 1e-3) if u != v]
            yield graph_from_edges(400, edges)

    @pytest.mark.parametrize("entries", [1, 7, 1000, 1 << 16])
    def test_bits_match_one_pass(self, entries, monkeypatch):
        monkeypatch.setattr(operators, "_TERM_ENTRIES", entries)
        for g in self._graphs():
            stored = Graph(g.n, g.row_offsets, g.col_indices, np.array(g.weights))
            for kind in (OperatorKind.LAPLACIAN, OperatorKind.NORMALIZED_LAPLACIAN):
                # weights near 1e300 square past the float range
                with np.errstate(over="ignore"):
                    expected = _trace_squared_in_one_pass(g, kind)
                    assert trace_squared(g, kind) == expected, (g.n, kind)
                    assert trace_squared(stored, kind) == expected, (g.n, kind)

    @pytest.mark.parametrize("kind, bound", [(OperatorKind.LAPLACIAN, 3),
                                             (OperatorKind.NORMALIZED_LAPLACIAN, 14)])
    def test_peak_memory(self, kind, bound):
        # per stored entry, traced: full-size temporaries read 8.8 for the
        # Laplacian and 34.8 for the normalized Laplacian; after, 1.6 and 11.0
        g = erdos_renyi(100_000, 10, 1)
        gc.collect()
        tracemalloc.start()
        try:
            trace_squared(g, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * g.col_indices.size, peak / g.col_indices.size
