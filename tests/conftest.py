"""Shared fixtures: small graphs with known spectra and dense oracles.

The dense builders here construct matrices entry by entry from the edge
list, independently of the package's CSR matvec closures, so they can serve
as oracles for the operator code paths.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectrace
from spectrace import _scipy
from spectrace.graphs import Graph, parse_edge_list
from spectrace.operators import LinearOperator, OperatorKind, trace


# An event stream of six one-wide buckets, three of which leave the edge set
# unchanged: a re-add of a live edge, a delete of an absent edge, and an add
# and a delete of one edge in the same bucket.
CANCELLING_STREAM = ("0 add 0 1\n1 add 0 1\n2 del 2 3\n3 add 1 2\n3 del 1 2\n"
                     "4 del 0 1\n5 add 0 2\n")


def run_fresh(code: str, *args: str) -> list[str]:
    """The lines that code prints in a fresh interpreter that imports this
    source tree, given args."""
    src = str(Path(spectrace.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    return proc.stdout.splitlines()


def graph_from_edges(n: int, edges: list[tuple[int, int]] | list[tuple[int, int, float]]) -> Graph:
    lines = []
    weighted = edges and len(edges[0]) == 3
    for e in edges:
        lines.append(" ".join(str(x) for x in e))
    if not edges:
        # parse_edge_list rejects empty input; build the empty graph directly.
        return Graph(
            n=n,
            row_offsets=np.zeros(n + 1, dtype=np.int64),
            col_indices=np.empty(0, dtype=np.int64),
            weights=np.empty(0, dtype=np.float64),
        )
    g = parse_edge_list("\n".join(lines), weighted=weighted)
    if g.n < n:
        return pad_vertices(g, n)
    return g


def pad_vertices(g: Graph, n: int) -> Graph:
    """Extend a graph with isolated vertices up to n."""
    assert n >= g.n
    row_offsets = np.concatenate(
        [g.row_offsets, np.full(n - g.n, g.row_offsets[-1], dtype=np.int64)]
    )
    return Graph(n=n, row_offsets=row_offsets, col_indices=g.col_indices.copy(),
                 weights=g.weights.copy())


def dense_adjacency(g: Graph) -> np.ndarray:
    """Adjacency matrix built edge by edge (oracle path)."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges():
        a[u, v] = w
        a[v, u] = w
    return a


def dense_operator_matrix(g: Graph, kind: OperatorKind) -> np.ndarray:
    a = dense_adjacency(g)
    d = a.sum(axis=1)
    if kind is OperatorKind.LAPLACIAN:
        return np.diag(d) - a
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        mat = np.zeros_like(a)
        for i in range(g.n):
            if d[i] > 0:
                mat[i, i] = 1.0
        for i in range(g.n):
            for j in range(g.n):
                if a[i, j] != 0:
                    mat[i, j] -= a[i, j] / np.sqrt(d[i] * d[j])
        return mat
    if kind is OperatorKind.DENSITY:
        return (np.diag(d) - a) / d.sum()
    raise ValueError(kind)


def explicit_operator(mat: np.ndarray) -> LinearOperator:
    """Wrap an explicit symmetric matrix as a LinearOperator for tests."""
    mat = np.asarray(mat, dtype=np.float64)
    radii = np.sum(np.abs(mat), axis=1) - np.abs(np.diag(mat))
    lo = float(np.min(np.diag(mat) - radii))
    hi = float(np.max(np.diag(mat) + radii))
    return LinearOperator(dim=mat.shape[0], apply=lambda x: mat @ x, interval=(lo, hi))


def random_graph(rng: np.random.Generator, n: int, p: float, *,
                 weighted: bool = False) -> Graph:
    """Edge-by-edge random graph for property tests (independent of erdos_renyi)."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                if weighted:
                    edges.append((i, j, float(rng.uniform(0.5, 1.5))))
                else:
                    edges.append((i, j))
    return graph_from_edges(n, edges)


@pytest.fixture
def k2() -> Graph:
    return graph_from_edges(2, [(0, 1)])


@pytest.fixture
def k3() -> Graph:
    return graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def p3() -> Graph:
    return graph_from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def star3() -> Graph:
    return graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def k5() -> Graph:
    return graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def disjoint_edges(c: int) -> Graph:
    return graph_from_edges(2 * c, [(2 * i, 2 * i + 1) for i in range(c)])


def empty_graph(n: int) -> Graph:
    return graph_from_edges(n, [])


def algebra_csr(g: Graph, kind: OperatorKind):
    """The operator in scipy's sparse algebra, D - A, diags(d > 0) - S A S
    with S = diags(d^{-1/2}) and (D - A) * (1 / tr L), as CSR."""
    import scipy.sparse as sp

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


def asymmetric_normalized_graph() -> Graph:
    """A weighted graph whose normalized Laplacian in the sparse algebra has
    entries (w s_i) s_j and (w s_j) s_i that round apart."""
    rng = np.random.default_rng(31)
    g = random_graph(rng, n=40, p=0.3, weighted=True)
    ref = algebra_csr(g, OperatorKind.NORMALIZED_LAPLACIAN)
    assert (ref != ref.T).nnz > 0
    return g


def density_defined(g: Graph) -> bool:
    tr_l = trace(g, OperatorKind.LAPLACIAN)
    return 0 < tr_l * tr_l < np.inf


def stored_pair_graphs():
    """Graphs whose stored pairs and values are checked against the sparse
    algebra: stored and unit weights, isolated vertices, no edges, and
    entries that underflow or leave the density matrix undefined."""
    rng = np.random.default_rng(41)
    yield random_graph(rng, n=40, p=0.2, weighted=True)
    yield pad_vertices(random_graph(rng, n=30, p=0.1), 45)  # stored ones
    yield spectrace.erdos_renyi(300, 4, 2)  # the unit view
    yield empty_graph(5)
    yield disjoint_edges(4)
    yield asymmetric_normalized_graph()
    # normalized and density entries underflow, and are denormal
    yield graph_from_edges(8, [(0, 1, 5e-324), (0, 2, 1e150), (1, 3, 1e150),
                               (4, 5, 1.0), (6, 7, 5e-324)])
    # normalized entries underflow; the density matrix is undefined
    yield graph_from_edges(8, [(0, 1, 5e-324), (0, 2, 1e300), (1, 3, 1e300),
                               (4, 5, 1.0), (6, 7, 5e-324)])
    yield graph_from_edges(6, [(0, 1, 1e-300), (1, 2, 1e-300), (3, 4, 1e-300)])


def patch_private(monkeypatch: pytest.MonkeyPatch, **functions) -> None:
    """Let ``_scipy`` find each named private function of scipy as given, and
    one given as None not at all, so that its route takes its fallback."""
    real = _scipy._private

    def private(module, *names):
        found = real(module, *names)
        found = found and tuple(functions.get(name, f) for name, f in zip(names, found))
        return None if found is None or None in found else found

    monkeypatch.setattr(_scipy, "_private", private)


def eigsh_reference(op: LinearOperator, k: int, end: str, **kwargs) -> np.ndarray:
    """eigsh's eigenvalues of op, unsorted, from the start vector and the
    restart generator of extremal_eigenvalues."""
    from scipy.sparse.linalg import LinearOperator as MatvecOperator, eigsh

    n = op.dim
    v0 = np.random.default_rng(np.random.SeedSequence(entropy=0x5EC7, spawn_key=(n, k)))
    restarts = np.random.default_rng(np.random.SeedSequence(entropy=0x5EC7,
                                                            spawn_key=(n, k, 1)))
    if "rng" in inspect.signature(eigsh).parameters:
        kwargs["rng"] = restarts
    matrix = MatvecOperator((n, n), matvec=op.apply, dtype=np.float64)
    return eigsh(matrix, k, which="LA" if end == "largest" else "SA", v0=v0.standard_normal(n),
                 return_eigenvectors=False, **kwargs)
