"""Shared fixtures: small graphs with known spectra and dense oracles.

The dense builders here construct matrices entry by entry from the edge
list, independently of the package's CSR matvec closures, so they can serve
as oracles for the operator code paths.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectrace
from spectrace.graphs import Graph, parse_edge_list
from spectrace.operators import LinearOperator, OperatorKind


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
