"""Lanczos recurrence, quadrature rules, extremal eigenvalues, oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from spectrace.errors import ConvergenceError, TridiagonalEigenError
from spectrace.graphs import erdos_renyi
from spectrace.lanczos import (
    BlockTridiagonal,
    block_quadrature_rules,
    extremal_eigenvalues,
    lanczos_block,
    lanczos_error_bound,
    lanczos_tridiagonalize,
    quadrature_rule,
    Tridiagonal,
)
from spectrace.operators import (
    DENSE_SPECTRUM_CAP,
    LinearOperator,
    OperatorKind,
    dense_spectrum,
    make_operator,
)

from conftest import (
    dense_operator_matrix,
    disjoint_edges,
    empty_graph,
    explicit_operator,
    graph_from_edges,
    pad_vertices,
    random_graph,
)


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestTridiagonalize:
    def test_diag_12_hand_recurrence(self):
        op = explicit_operator(np.diag([1.0, 2.0]))
        tri = lanczos_tridiagonalize(op, np.array([1.0, 1.0]) / np.sqrt(2), 2)
        assert tri.steps == 2
        assert np.allclose(tri.alpha, [1.5, 1.5])
        assert np.allclose(tri.beta, [0.5])

    def test_q_transpose_m_q_equals_t(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((8, 8))
        mat = (mat + mat.T) / 2
        op = explicit_operator(mat)
        q0 = _unit(rng, 8)
        tri = lanczos_tridiagonalize(op, q0, 5)
        assert tri.steps == 5
        # the Lanczos vectors, rebuilt from q0, alpha and beta by the
        # three-term recurrence
        basis = [q0]
        for i in range(tri.steps - 1):
            w = mat @ basis[i] - tri.alpha[i] * basis[i]
            if i > 0:
                w -= tri.beta[i - 1] * basis[i - 1]
            basis.append(w / tri.beta[i])
        basis = np.array(basis)
        t_dense = np.diag(tri.alpha) + np.diag(tri.beta, 1) + np.diag(tri.beta, -1)
        assert np.allclose(basis @ mat @ basis.T, t_dense, atol=1e-10)

    def test_eigenvector_start_breaks_down(self, k2):
        op = make_operator(k2, OperatorKind.DENSITY)
        tri = lanczos_tridiagonalize(op, np.array([1.0, -1.0]) / np.sqrt(2), 5)
        assert tri.steps == 1
        assert np.allclose(tri.alpha, [1.0])

    def test_single_step_is_rayleigh_quotient(self, p3):
        rng = np.random.default_rng(1)
        op = make_operator(p3, OperatorKind.LAPLACIAN)
        q0 = _unit(rng, 3)
        tri = lanczos_tridiagonalize(op, q0, 1)
        assert tri.alpha[0] == pytest.approx(np.dot(q0, op.apply(q0)), abs=1e-14)

    def test_rejects_bad_inputs(self, p3):
        op = make_operator(p3, OperatorKind.LAPLACIAN)
        with pytest.raises(ValueError, match="unit norm"):
            lanczos_tridiagonalize(op, np.array([1.0, 1.0, 0.0]), 2)
        with pytest.raises(ValueError, match=">= 1"):
            lanczos_tridiagonalize(op, np.array([1.0, 0.0, 0.0]), 0)

    def test_steps_clamped_to_dimension(self, k3):
        rng = np.random.default_rng(2)
        op = make_operator(k3, OperatorKind.NORMALIZED_LAPLACIAN)
        tri = lanczos_tridiagonalize(op, _unit(rng, 3), 10)
        assert tri.steps <= 3

    def test_breakdown_on_zero_operator(self):
        op = explicit_operator(np.zeros((4, 4)))
        tri = lanczos_tridiagonalize(op, np.array([1.0, 0, 0, 0]), 4)
        assert tri.steps == 1
        assert tri.alpha[0] == 0.0

    def test_loose_spectral_bound_stops_no_column(self):
        # breakdown is measured against each column's own tridiagonal rows,
        # so a spectral bound 1e12 times too loose changes no bit of a run
        op = make_operator(erdos_renyi(300, 10, 0), OperatorKind.NORMALIZED_LAPLACIAN)
        loose = LinearOperator(op.dim, op.apply, (0.0, 1e12))
        start = np.random.default_rng(5).standard_normal((op.dim, 8))
        start /= np.linalg.norm(start, axis=0)
        for dtype in (np.float64, np.float32):
            true, wide = (lanczos_block(o, start.astype(dtype), 10) for o in (op, loose))
            for name in ("alpha", "beta", "steps"):
                assert np.array_equal(getattr(true, name), getattr(wide, name))
            assert (true.steps == 10).all()
        for reorth in (False, True):
            true, wide = (lanczos_tridiagonalize(o, start[:, 0], 10, reorth=reorth)
                          for o in (op, loose))
            assert true.steps == wide.steps == 10
            assert np.array_equal(true.alpha, wide.alpha)
            assert np.array_equal(true.beta, wide.beta)

    def test_breakdown_against_largest_row(self):
        # the star's density matrix has 3 distinct eigenvalues, 0, 0.01 and
        # 0.51; at step 3 rounding leaves a residual near 1e-13 of the
        # largest row, but above 1e-12 of the small third row
        op = make_operator(graph_from_edges(51, [(0, i) for i in range(1, 51)]),
                           OperatorKind.DENSITY)
        start = np.random.default_rng(6).standard_normal((op.dim, 8))
        start /= np.linalg.norm(start, axis=0)
        assert (lanczos_block(op, start.copy(), 10).steps == 3).all()
        for reorth in (False, True):
            assert lanczos_tridiagonalize(op, start[:, 0], 10, reorth=reorth).steps == 3


class TestQuadratureRule:
    def test_one_by_one(self):
        rule = quadrature_rule(Tridiagonal(np.array([2.5]), np.array([]), 1))
        assert np.allclose(rule.nodes, [2.5])
        assert np.allclose(rule.weights, [1.0])

    def test_two_by_two_analytic(self):
        rule = quadrature_rule(
            Tridiagonal(np.array([1.5, 1.5]), np.array([0.5]), 2)
        )
        assert np.allclose(rule.nodes, [1.0, 2.0])
        assert np.allclose(rule.weights, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, n=40, p=0.2, weighted=True)
        op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        tri = lanczos_tridiagonalize(op, _unit(rng, 40), 12)
        rule = quadrature_rule(tri)
        assert abs(rule.weights.sum() - 1.0) <= 1e-10
        assert np.all(np.diff(rule.nodes) >= 0)
        assert np.all(rule.weights >= 0)

    def test_full_run_recovers_spectrum(self):
        rng = np.random.default_rng(6)
        for seed in range(3):
            g = random_graph(np.random.default_rng(100 + seed), n=30, p=0.3,
                             weighted=True)
            op = make_operator(g, OperatorKind.LAPLACIAN)
            tri = lanczos_tridiagonalize(op, _unit(rng, 30), 30, reorth=True)
            assert tri.steps == 30, "fixture produced early breakdown"
            rule = quadrature_rule(tri)
            dense = dense_spectrum(g, OperatorKind.LAPLACIAN)
            assert np.max(np.abs(rule.nodes - dense)) <= 1e-6

    def test_nodes_within_spectral_interval(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, n=25, p=0.3)
        for kind in OperatorKind:
            op = make_operator(g, kind)
            tri = lanczos_tridiagonalize(op, _unit(rng, 25), 10)
            rule = quadrature_rule(tri)
            lo, hi = op.interval
            assert np.all(rule.nodes >= lo - 1e-8)
            assert np.all(rule.nodes <= hi + 1e-8)

    def test_gauss_exactness(self):
        # integrating any polynomial of degree <= 2s'-1 must reproduce the
        # quadratic form computed directly by repeated matvecs
        rng = np.random.default_rng(8)
        for trial in range(10):
            g = random_graph(rng, n=int(rng.integers(5, 40)), p=0.3, weighted=True)
            op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
            q0 = _unit(rng, g.n)
            s = int(rng.integers(2, 7))
            tri = lanczos_tridiagonalize(op, q0, s)
            rule = quadrature_rule(tri)
            degree = 2 * tri.steps - 1
            coeffs = rng.uniform(0.1, 1.0, size=degree + 1)  # positive: bounded away from 0
            quad = rule.integrate(np.polyval(coeffs, rule.nodes))
            vec = coeffs[0] * q0
            for c in coeffs[1:]:
                vec = op.apply(vec) + c * q0
            direct = float(np.dot(q0, vec))
            assert abs(quad - direct) <= 1e-8 * abs(direct)

    def test_nan_entry_is_eigen_error(self):
        # both rule builders report a failed solve as TridiagonalEigenError
        # carrying the tridiagonal, whether the solver refuses the NaN or
        # fails to converge on it
        alpha, beta = np.array([1.0, np.nan, 0.5]), np.array([0.3, 0.2])
        with pytest.raises(TridiagonalEigenError) as single:
            quadrature_rule(Tridiagonal(alpha, beta, 3))
        with pytest.raises(TridiagonalEigenError) as block:
            block_quadrature_rules(BlockTridiagonal(alpha[None], beta[None], np.array([3])))
        for exc in (single.value, block.value):
            assert "tridiagonal eigensolver failed" in str(exc)
            assert np.array_equal(np.ravel(exc.alpha), alpha, equal_nan=True)
            assert np.array_equal(np.ravel(exc.beta), beta)


class TestExtremalEigenvalues:
    def test_k3_smallest_is_zero(self, k3):
        op = make_operator(k3, OperatorKind.NORMALIZED_LAPLACIAN)
        vals = extremal_eigenvalues(op, 1, "smallest")
        assert abs(vals[0]) <= 1e-6

    def test_k2_full_spectrum(self, k2):
        op = make_operator(k2, OperatorKind.NORMALIZED_LAPLACIAN)
        vals = extremal_eigenvalues(op, 2, "largest")
        assert np.allclose(vals, [0.0, 2.0], atol=1e-6)

    def test_p3_largest(self, p3):
        op = make_operator(p3, OperatorKind.LAPLACIAN)
        vals = extremal_eigenvalues(op, 1, "largest")
        assert vals[0] == pytest.approx(3.0, abs=1e-6)

    def test_repeated_eigenvalues_found(self):
        # density spectrum of c disjoint edges: c copies of 1/c and c zeros
        g = disjoint_edges(4)
        op = make_operator(g, OperatorKind.DENSITY)
        vals = extremal_eigenvalues(op, 3, "largest")
        assert np.allclose(vals, [0.25, 0.25, 0.25], atol=1e-6)

    def test_matches_dense_on_random_graphs(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = random_graph(rng, n=50, p=0.15, weighted=True)
            dense = dense_spectrum(g, OperatorKind.NORMALIZED_LAPLACIAN)
            op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
            low = extremal_eigenvalues(op, 4, "smallest")
            high = extremal_eigenvalues(op, 4, "largest")
            assert np.allclose(low, dense[:4], atol=1e-6)
            assert np.allclose(high, dense[-4:], atol=1e-6)

    def test_zero_operator(self):
        op = make_operator(empty_graph(30), OperatorKind.NORMALIZED_LAPLACIAN)
        for end in ("smallest", "largest"):
            assert np.array_equal(extremal_eigenvalues(op, 3, end), np.zeros(3))

    def test_er3000_k50_matches_dense_at_both_ends(self):
        # the restarted Lanczos this solver replaced raised ConvergenceError here
        g = erdos_renyi(3000, avg_degree=10, seed=10000)
        dense = dense_spectrum(g, OperatorKind.NORMALIZED_LAPLACIAN)
        op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        assert np.allclose(extremal_eigenvalues(op, 50, "smallest"), dense[:50],
                           rtol=0, atol=1e-10)
        assert np.allclose(extremal_eigenvalues(op, 50, "largest"), dense[-50:],
                           rtol=0, atol=1e-10)

    def test_nonconvergence_carries_best_estimates(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.array([0.7, 0.2]), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        rng = np.random.default_rng(10)
        g = random_graph(rng, n=60, p=0.2)
        op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        with pytest.raises(ConvergenceError) as exc_info:
            extremal_eigenvalues(op, 5, "smallest")
        assert np.array_equal(exc_info.value.best_estimates, [0.2, 0.7])

    def test_validates_arguments(self, p3):
        op = make_operator(p3, OperatorKind.LAPLACIAN)
        with pytest.raises(ValueError):
            extremal_eigenvalues(op, 0, "largest")
        with pytest.raises(ValueError):
            extremal_eigenvalues(op, 1, "weird")


class TestDenseSpectrum:
    def test_k2_normalized(self, k2):
        assert np.allclose(dense_spectrum(k2, OperatorKind.NORMALIZED_LAPLACIAN),
                           [0.0, 2.0], atol=1e-12)

    def test_p3_laplacian_characteristic_roots(self, p3):
        assert np.allclose(dense_spectrum(p3, OperatorKind.LAPLACIAN),
                           [0.0, 1.0, 3.0], atol=1e-12)

    def test_empty_graph_all_zero(self):
        g = empty_graph(5)
        for kind in (OperatorKind.LAPLACIAN, OperatorKind.NORMALIZED_LAPLACIAN):
            assert np.allclose(dense_spectrum(g, kind), 0.0)

    def test_cap_refused(self):
        with pytest.raises(ValueError, match="cap"):
            dense_spectrum(empty_graph(DENSE_SPECTRUM_CAP + 1), OperatorKind.LAPLACIAN)

    def test_matches_independent_densify(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, n=35, p=0.25, weighted=True)
        for graph in (g, pad_vertices(g, 42)):
            for kind in OperatorKind:
                mine = dense_spectrum(graph, kind)
                oracle = np.linalg.eigvalsh(dense_operator_matrix(graph, kind))
                assert np.allclose(mine, oracle, atol=1e-10)

    def test_holds_about_one_dense_copy(self):
        g = erdos_renyi(1200, 10, 0)
        copy_bytes = 8 * g.n * g.n
        for kind in OperatorKind:
            tracemalloc.start()
            try:
                dense_spectrum(g, kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * copy_bytes, (kind, peak / copy_bytes)


class TestErrorBound:
    def test_branch_a_frozen(self):
        # 20 exp(-400/250), high-precision reference 4.0379303598931081697
        assert lanczos_error_bound(100, 20) == pytest.approx(4.0379303598931082, rel=1e-12)

    def test_branch_b_frozen(self):
        # 40 e^{-1/2} (e/20)^10, high-precision reference 5.2186432928366688578e-8
        assert lanczos_error_bound(1, 10) == pytest.approx(5.218643292836669e-08, rel=1e-12)

    def test_no_guarantee_region(self):
        assert lanczos_error_bound(50, 5) == math.inf
        assert lanczos_error_bound(8, 3) == math.inf

    def test_nonincreasing_within_branches(self):
        for t in (5.0, 30.0, 200.0):
            lo = math.ceil(math.sqrt(2 * t))
            branch_a = [lanczos_error_bound(t, s) for s in range(lo, int(t) + 1)]
            assert all(a >= b for a, b in zip(branch_a, branch_a[1:]))
            start = max(int(math.floor(t)) + 1, lo)
            branch_b = [lanczos_error_bound(t, s) for s in range(start, start + 40)]
            assert all(a >= b for a, b in zip(branch_b, branch_b[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lanczos_error_bound(0.0, 5)
        with pytest.raises(ValueError):
            lanczos_error_bound(-1.0, 5)
        with pytest.raises(ValueError):
            lanczos_error_bound(1.0, 0)
