"""Implicit linear operators for graph matrices.

Three symmetric operators are exposed without materializing anything dense:
the Laplacian ``D - A``, the normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``
(isolated vertices contribute a zero row and column, so their eigenvalue
is 0), and the trace-one density matrix ``L / tr(L)``. Each is assembled once
in numpy, straight from the graph's CSR arrays, its entries laid out in row
panels; applying it to a vector or to an (n, W) block of vectors is one
call of scipy's compiled COO product kernel, loaded by file so that
``scipy.sparse`` is never imported: one pass over the edges. Traces and
squared traces come from closed-form identities.
``dense_spectrum``, the exact reference, densifies the same entries.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import UndefinedDensityError
from .graphs import Graph

__all__ = [
    "OperatorKind",
    "LinearOperator",
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
    to call concurrently. The operators of ``make_operator`` return a
    float32 product for float32 input and a float64 product for any other
    input. ``interval`` bounds the spectrum: (0, 2*max_degree) for the
    Laplacian, (0, 2) for the normalized Laplacian, (0, 1) for the density
    matrix.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    interval: tuple[float, float]


# Rows per panel of an operator's entries (see _entries). For an 8-column
# block a panel's rows of the product take 512 KB, which stay in cache.
PANEL_ROWS = 8192


def _sources(g: Graph) -> np.ndarray:
    """The row of each entry of g's CSR arrays, as int32."""
    return np.repeat(np.arange(g.n, dtype=np.int32), np.diff(g.row_offsets))


def degrees(g: Graph) -> np.ndarray:
    """Weighted degree vector: entry i is the sum of weights incident to i."""
    # summed in CSR order, as the product of the adjacency matrix with ones
    return np.bincount(_sources(g), weights=g.weights, minlength=g.n)


def _entries(
    g: Graph, kind: OperatorKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, float]]:
    """The operator's entries as (rows, cols, vals) in row panels, with its
    spectral interval.

    Panels of PANEL_ROWS rows follow one another; within a panel the entries
    run in column order, then row order. A product then reads the input rows
    of each panel in ascending address order instead of jumping across the
    whole input as a CSR product does: 1.8x faster for an (n, 8) block at
    n=100k on a 2-core Xeon with 2 MB of L2 per core, where the input
    outgrows the cache; a graph of at most PANEL_ROWS vertices is one panel,
    and its (n, 8) products take as long as CSR's. Within every row the
    entries keep their column order, so every product entry is summed in the
    same order, bit for bit, as with the CSR matrix.

    Each value is computed in the operation order of the sparse algebra
    ``diags(d) - A``, ``diags(d > 0) - S A S`` with ``S = diags(d^{-1/2})``
    and ``(diags(d) - A) * (1 / tr L)``, so it equals that algebra's entry
    bit for bit. Only vertices with an edge get a diagonal entry, as the
    algebra drops zero diagonals. An off-diagonal entry of the normalized
    Laplacian that underflows stays as +0.0, where the algebra drops it;
    this changes no product and no dense entry.

    Rows and columns are int32 (vertex ids lie below 2**31) and every one
    lies in [0, n): the product kernel does no bounds checks, so a
    hand-built graph whose column indices leave that range raises
    ValueError here.
    """
    if g.col_indices.size:
        lo, hi = int(g.col_indices.min()), int(g.col_indices.max())
        if lo < 0 or hi >= g.n:
            raise ValueError(f"column index {lo if lo < 0 else hi} outside [0, {g.n})")
    d = degrees(g)
    tr_l = float(d.sum())
    if kind is OperatorKind.DENSITY:
        _check_density(tr_l)
    # each diagonal entry goes in its row before the first column above it;
    # it holds -d, which the negation below turns into d
    src = _sources(g)
    diag = np.flatnonzero(d > 0)
    at = g.row_offsets[diag] + np.bincount(src[g.col_indices < src], minlength=g.n)[diag]
    # the operator is symmetric, so its column-ordered panels are its CSR
    # with rows and columns swapped, stably partitioned by panel; the key's
    # dtype holds every panel index (numpy radix-sorts 8- and 16-bit keys).
    # The results are allocated before the scratch that fills them, so that
    # they do not sit above the freed scratch in the heap (see _build_csr).
    size = src.size + diag.size
    rows, cols, vals = np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size)
    inserted = np.insert(g.col_indices.astype(np.int32), at, diag)
    key = (inserted // PANEL_ROWS).astype(np.min_scalar_type(g.n // PANEL_ROWS))
    order = np.argsort(key, kind="stable")
    del key
    np.take(inserted, order, out=rows, mode="clip")
    del inserted
    np.take(np.insert(src, at, diag), order, out=cols, mode="clip")
    del src
    np.take(np.insert(g.weights, at, -d[diag]), order, out=vals, mode="clip")
    del order
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        scale = np.zeros(g.n)
        scale[diag] = 1.0 / np.sqrt(d[diag])
        vals *= scale[rows]
        vals *= scale[cols]
    # 0.0 - x, not -x: an underflowed +0.0 stays +0.0, which densifies as
    # the algebra's dropped entry does
    np.subtract(0.0, vals, out=vals)
    if kind is OperatorKind.LAPLACIAN:
        return rows, cols, vals, (0.0, 2.0 * float(d.max(initial=0.0)))
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        vals[rows == cols] = 1.0
        return rows, cols, vals, (0.0, 2.0)
    if kind is OperatorKind.DENSITY:
        vals *= 1.0 / tr_l
        return rows, cols, vals, (0.0, 1.0)
    raise ValueError(f"unknown operator kind: {kind!r}")


def _check_density(tr_l: float) -> None:
    """Raise UndefinedDensityError unless the density matrix L / tr(L) is defined.

    It is not for a graph without edges, whose tr(L) is 0, nor when tr(L)^2,
    which trace_squared divides by, underflows to 0 (tr(L) below about
    1.5e-154); the second covers every tr(L) whose inverse overflows. This
    is the one place that decides: every entropy route reaches it through
    ``make_operator``, ``dense_spectrum``, ``trace`` or ``trace_squared``.
    """
    if tr_l <= 0:
        raise UndefinedDensityError("density matrix undefined for a graph without edges")
    if tr_l * tr_l == 0:
        raise UndefinedDensityError(
            f"density matrix undefined: tr(L)={tr_l} is too small to normalize")


_KERNEL_MODULE = "scipy.sparse._sparsetools"


@cache
def _coo_kernels() -> tuple[Callable, Callable] | None:
    """scipy's compiled ``coo_matvec`` and ``coo_matmat_dense``, or None if
    they cannot be loaded.

    The extension module is loaded by file, so ``scipy.sparse``'s package
    init, which costs about 0.2 s on a 2-core Xeon, does not run; if that
    package already loaded it, its module is used as it is.
    """
    module = sys.modules.get(_KERNEL_MODULE)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None or not scipy_spec.submodule_search_locations:
            return None
        folder = Path(scipy_spec.submodule_search_locations[0], "sparse")
        paths = (folder / f"_sparsetools{s}" for s in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((p for p in paths if p.is_file()), None)
        if path is None:
            return None
        try:
            spec = importlib.util.spec_from_file_location(_KERNEL_MODULE, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (ImportError, OSError):
            return None
        finally:
            # the extension registers itself in sys.modules; left there
            # without its package, scipy.sparse would later import it
            # without setting its own ``_sparsetools`` attribute
            sys.modules.pop(_KERNEL_MODULE, None)
    kernels = (getattr(module, "coo_matvec", None), getattr(module, "coo_matmat_dense", None))
    return None if None in kernels else kernels


def make_operator(g: Graph, kind: OperatorKind) -> LinearOperator:
    """Build the operator of the requested kind for g from its entries in
    row panels (``_entries``).

    A product runs scipy's compiled COO kernel on the entries: the calls
    ``coo_matrix.__matmul__`` makes, so every product has the same bits. If
    the kernel cannot be loaded by file, the product is a
    ``scipy.sparse.coo_matrix``'s. Either way the input is checked and cast
    first, in one place: float32 input, such as the Lanczos blocks of large
    operators, is multiplied in float32 by a float32 copy of the entries,
    made at its first use; any other input is made C-contiguous float64 and
    multiplied by the float64 entries. An input that is not an (n,) vector
    or an (n, W) block raises ValueError. The float64 path is the only one
    that ``eigsh``, the deflated baseline operators and every small graph
    use.

    Raises
    ------
    ValueError
        If the density matrix is requested for an edgeless graph or one
        whose tr(L) is too small to normalize, or if a column index of g
        lies outside [0, n).
    """
    rows, cols, vals, interval = _entries(g, kind)
    n, nnz = g.n, len(vals)
    kernels = _coo_kernels()

    @cache
    def entries(dtype: np.dtype):
        """The entries' values in dtype, or the fallback's matrix of them."""
        if kernels is not None:
            return vals.astype(dtype, copy=False)
        import scipy.sparse

        return scipy.sparse.coo_matrix((vals.astype(dtype, copy=False), (rows, cols)), shape=(n, n))

    def apply(x: np.ndarray) -> np.ndarray:
        single = getattr(x, "dtype", None) == np.float32
        x = np.ascontiguousarray(x, dtype=np.float32 if single else np.float64)
        # checked here for both paths: the kernel reads x without bounds checks
        if x.ndim > 2 or x.shape[0] != n:
            raise ValueError(f"operator of dimension {n} cannot apply to shape {x.shape}")
        if kernels is None:
            return entries(x.dtype) @ x
        out = np.zeros(x.shape, x.dtype)
        if x.ndim == 1:
            kernels[0](nnz, rows, cols, entries(x.dtype), x, out)
        else:
            kernels[1](nnz, x.shape[1], rows, cols, entries(x.dtype), x.ravel("C"), out)
        return out

    return LinearOperator(dim=n, apply=apply, interval=interval)


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

    rows, cols, vals, _ = _entries(g, kind)
    dense = np.zeros((g.n, g.n), order="F")
    # added to zeros, as a sparse matrix densifies: -0.0 lands as +0.0
    dense[rows, cols] += vals
    return scipy.linalg.eigvalsh(dense, overwrite_a=True)


def trace(g: Graph, kind: OperatorKind) -> float:
    """Exact operator trace from degree identities (no matvecs); the density
    matrix's is 1 wherever ``_check_density`` finds it defined."""
    d = degrees(g)
    if kind is OperatorKind.LAPLACIAN:
        return float(d.sum())
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        return float(np.count_nonzero(d > 0))
    if kind is OperatorKind.DENSITY:
        _check_density(float(d.sum()))
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
        src = _sources(g)
        denom = d[src] * d[g.col_indices]
        return diag + float(np.sum(g.weights * g.weights / denom))
    if kind is OperatorKind.DENSITY:
        tr_l = trace(g, OperatorKind.LAPLACIAN)
        _check_density(tr_l)
        return trace_squared(g, OperatorKind.LAPLACIAN) / (tr_l * tr_l)
    raise ValueError(f"unknown operator kind: {kind!r}")
