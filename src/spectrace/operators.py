"""Implicit linear operators for graph matrices.

Three symmetric operators are exposed without materializing anything dense:
the Laplacian ``D - A``, the normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``
(isolated vertices contribute a zero row and column, so their eigenvalue
is 0), and the trace-one density matrix ``L / tr(L)``. Each is assembled once
as a single sparse matrix, its entries laid out in row panels, so applying
it to a vector or to an (n, W) block of vectors is one sparse product: one
pass over the edges. Traces and squared traces come from closed-form
identities. ``dense_spectrum``, the exact reference, densifies the same
sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .graphs import Graph

__all__ = [
    "OperatorKind",
    "LinearOperator",
    "adjacency",
    "degrees",
    "make_operator",
    "dense_spectrum",
    "trace",
    "trace_squared",
    "DENSE_SPECTRUM_CAP",
]

DENSE_SPECTRUM_CAP = 20_000


class OperatorKind(Enum):
    LAPLACIAN = "laplacian"
    NORMALIZED_LAPLACIAN = "normalized_laplacian"
    DENSITY = "density"


@dataclass(frozen=True)
class LinearOperator:
    """Symmetric operator given by its dimension and a matvec closure.

    ``apply`` maps an (n,) vector to an (n,) vector, or an (n, W) block to
    an (n, W) block column by column; it holds no mutable state and is safe
    to call concurrently. ``interval`` bounds the spectrum: (0, 2*max_degree)
    for the Laplacian, (0, 2) for the normalized Laplacian, (0, 1) for the
    density matrix.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    interval: tuple[float, float]


# Rows per panel of an operator's entries (see _row_panels). For an
# 8-column block a panel's rows of the product take 512 KB, which stay in
# cache.
PANEL_ROWS = 8192


def _row_panels(mat: sp.csr_matrix) -> sp.coo_matrix:
    """mat's entries panel by panel, each panel of PANEL_ROWS rows in column order.

    A product then reads the input rows of each panel in ascending address
    order instead of jumping across the whole input as a CSR product does:
    1.8x faster for an (n, 8) block at n=100k on a 2-core Xeon with 2 MB of
    L2 per core, where the input outgrows the cache; a graph of at most
    PANEL_ROWS vertices is one panel, and its (n, 8) products take as long as
    CSR's. Within every row the entries keep their column order, so every
    product entry is summed in the same order, bit for bit, as with mat.
    """
    n_rows, n_cols = mat.shape
    rows = np.empty(mat.nnz, dtype=mat.indices.dtype)
    cols = np.empty_like(rows)
    vals = np.empty(mat.nnz)
    for lo in range(0, n_rows, PANEL_ROWS):
        hi = min(lo + PANEL_ROWS, n_rows)
        panel = mat[lo:hi].tocsc()
        span = slice(mat.indptr[lo], mat.indptr[hi])
        rows[span] = panel.indices + lo
        cols[span] = np.repeat(np.arange(n_cols, dtype=rows.dtype), np.diff(panel.indptr))
        vals[span] = panel.data
    return sp.coo_matrix((vals, (rows, cols)), shape=mat.shape)


def adjacency(g: Graph) -> sp.csr_matrix:
    """The weighted adjacency matrix of g, sharing g's CSR arrays."""
    return sp.csr_matrix(
        (g.weights, g.col_indices, g.row_offsets), shape=(g.n, g.n), copy=False
    )


def degrees(g: Graph) -> np.ndarray:
    """Weighted degree vector: entry i is the sum of weights incident to i."""
    if g.m == 0:
        return np.zeros(g.n)
    return adjacency(g) @ np.ones(g.n)


def _matrix(g: Graph, kind: OperatorKind) -> tuple[sp.csr_matrix, tuple[float, float]]:
    """The operator of the requested kind for g as CSR, with its spectral interval."""
    adj = adjacency(g)
    d = degrees(g)
    if kind is OperatorKind.LAPLACIAN:
        return sp.csr_matrix(sp.diags(d) - adj), (0.0, 2.0 * float(d.max(initial=0.0)))
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        pos = d > 0
        dinv_sqrt = np.zeros(g.n)
        dinv_sqrt[pos] = 1.0 / np.sqrt(d[pos])
        src = np.repeat(np.arange(g.n), np.diff(g.row_offsets))
        scaled = sp.csr_matrix(
            (dinv_sqrt[src] * g.weights * dinv_sqrt[g.col_indices], g.col_indices,
             g.row_offsets),
            shape=(g.n, g.n),
        )
        return sp.csr_matrix(sp.diags(pos.astype(np.float64)) - scaled), (0.0, 2.0)
    if kind is OperatorKind.DENSITY:
        tr_l = float(d.sum())
        if g.m == 0 or tr_l <= 0:
            raise ValueError("density matrix undefined for a graph without edges")
        return sp.csr_matrix((sp.diags(d) - adj) * (1.0 / tr_l)), (0.0, 1.0)
    raise ValueError(f"unknown operator kind: {kind!r}")


def make_operator(g: Graph, kind: OperatorKind) -> LinearOperator:
    """Build the operator of the requested kind for g as one sparse matrix
    in row panels (``_row_panels``).

    Raises
    ------
    ValueError
        If the density matrix is requested for an edgeless graph
        (tr(L) = 0 leaves it undefined).
    """
    # built in a helper so that its temporaries are gone before the panels
    # are laid out: at n=100k they would otherwise raise the peak RSS
    mat, interval = _matrix(g, kind)
    mat = _row_panels(mat)
    return LinearOperator(dim=g.n, apply=mat.__matmul__, interval=interval)


def dense_spectrum(g: Graph, kind: OperatorKind) -> np.ndarray:
    """All eigenvalues of the densified operator, ascending.

    This is the exact reference for every approximation in the package; it
    refuses graphs above ``DENSE_SPECTRUM_CAP`` vertices. The dense array
    belongs to this call, so LAPACK works in it: one n x n copy is held.
    """
    if g.n > DENSE_SPECTRUM_CAP:
        raise ValueError(f"dense spectrum refused: n={g.n} exceeds cap {DENSE_SPECTRUM_CAP}")
    # imported on first use: no estimator path needs it, and importing it
    # cost every CLI start about 70 ms and 8 MB of RSS on a 2-core Xeon
    import scipy.linalg

    mat, _ = _matrix(g, kind)
    return scipy.linalg.eigvalsh(mat.toarray(order="F"), overwrite_a=True)


def trace(g: Graph, kind: OperatorKind) -> float:
    """Exact operator trace from degree identities (no matvecs)."""
    d = degrees(g)
    if kind is OperatorKind.LAPLACIAN:
        return float(d.sum())
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        return float(np.count_nonzero(d > 0))
    if kind is OperatorKind.DENSITY:
        if g.m == 0:
            raise ValueError("density matrix undefined for a graph without edges")
        return 1.0
    raise ValueError(f"unknown operator kind: {kind!r}")


def trace_squared(g: Graph, kind: OperatorKind) -> float:
    """Exact trace of the squared operator in one edge pass.

    Uses tr(M^2) = sum of squared entries for symmetric M: the diagonal
    contributes degree terms, the off-diagonal one term per stored entry.
    np.sum is pairwise, which keeps huge accumulations accurate.
    """
    d = degrees(g)
    if kind is OperatorKind.LAPLACIAN:
        return float(np.sum(d * d) + np.sum(g.weights * g.weights))
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        diag = float(np.count_nonzero(d > 0))
        if g.m == 0:
            return diag
        src = np.repeat(np.arange(g.n), np.diff(g.row_offsets))
        denom = d[src] * d[g.col_indices]
        return diag + float(np.sum(g.weights * g.weights / denom))
    if kind is OperatorKind.DENSITY:
        tr_l = trace(g, OperatorKind.LAPLACIAN)
        if g.m == 0 or tr_l <= 0:
            raise ValueError("density matrix undefined for a graph without edges")
        return trace_squared(g, OperatorKind.LAPLACIAN) / (tr_l * tr_l)
    raise ValueError(f"unknown operator kind: {kind!r}")
