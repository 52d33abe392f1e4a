"""Implicit linear operators for graph matrices.

Three symmetric operators are exposed without materializing anything dense:
the Laplacian ``D - A``, the normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``
(isolated vertices contribute a zero row and column, so their eigenvalue
is 0), and the trace-one density matrix ``L / tr(L)``. Each is assembled once
in numpy, straight from the graph's CSR arrays: each undirected edge is
stored once, as a pair of vertex ids in panels of the smaller id, next to
the diagonal. Applying it to a vector or to an (n, W) block of vectors is
three calls of scipy's compiled COO product kernel into one output, the
pairs below the diagonal, the diagonal, the pairs above it, so each output
entry sums its row in column order, as the sparse algebra does. The
kernel comes from ``_scipy.coo_kernels``, so that ``scipy.sparse`` is not
imported (see ``_scipy`` for its route and fallbacks). The build
keeps ids, no values; each dtype's values are built, in chunks, on the
first product in that dtype: float32 for the Lanczos blocks of large
graphs, float64 otherwise. With int32 ids, a float32 operator holds 6 bytes per
stored entry of the graph (see ``make_operator``).
The degrees of a graph with unit weights (see ``Graph``) are its row
lengths, read without an array of ones. Traces and squared traces come
from closed-form identities.
``dense_spectrum``, the exact reference, densifies the pairs below the
diagonal and the diagonal, the triangle that LAPACK reads, on pages of its
own, and calls LAPACK in it through ``_scipy.eigvalsh``, with
``scipy.linalg.eigvalsh``'s bits and without importing ``scipy.linalg``.
"""

from __future__ import annotations

import contextlib
import mmap
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import _scipy
from .errors import UndefinedDensityError
from .graphs import Graph, _row_blocks

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


# Rows per panel of an operator's pairs (see _pairs). For an 8-column
# block a panel's rows of the product take 512 KB, which stay in cache.
PANEL_ROWS = 8192


def _sources(g: Graph) -> np.ndarray:
    """The row of each entry of g's CSR arrays, as int32."""
    return np.repeat(np.arange(g.n, dtype=np.int32), np.diff(g.row_offsets))


def _is_unit_view(w: np.ndarray) -> bool:
    """Whether w is Graph's stride-0 view of unit weights."""
    return bool(w.size and w.strides[0] == 0 and w[0] == 1.0)


def degrees(g: Graph) -> np.ndarray:
    """Weighted degree vector: entry i is the sum of weights incident to i.

    Every operator, trace and spectrum starts here, so a degree that is not
    finite (weights whose sum overflows a float) raises ValueError here,
    for every route alike."""
    w = g.weights
    if _is_unit_view(w):
        # the unit view of Graph: the degrees are the row lengths, which
        # are exactly bincount's sums of ones
        d = np.diff(g.row_offsets).astype(np.float64)
    else:
        # summed in CSR order, as the product of the adjacency matrix with ones
        d = np.bincount(_sources(g), weights=w, minlength=g.n)
    if not np.isfinite(d).all():
        vertex = int(np.flatnonzero(~np.isfinite(d))[0])
        raise ValueError(f"weighted degree of vertex {vertex} is {d[vertex]}: "
                         f"its edge weights sum past the float range")
    return d


def _pairs(g: Graph, kind: OperatorKind) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray | None, np.ndarray],
        tuple[float, float]]:
    """The operator's stored ids as ``(lo, hi, diag, (w, d), interval)``.

    Each undirected edge is stored once, as a pair of int32 vertex ids
    ``lo < hi``, and the vertices with an edge once, in ``diag``; ``w``
    holds the pairs' weights in pair order, None for unit weights, and
    ``d`` the degrees, which ``_values`` builds the entries from.
    ``interval`` is the operator's spectral interval.

    The pairs are g's CSR entries below the diagonal, in CSR order, stably
    partitioned into panels of PANEL_ROWS by their smaller id: ordered by
    (panel of lo, hi, lo). Within a panel, a product's call on (hi, lo)
    reads the input rows of that panel and its call on (lo, hi) writes the
    output rows of that panel, instead of jumping across the whole block:
    an (n, 8) float32 product at n=100k took 6.2-6.7 ms in panels against
    17.6 ms in one (2-core Xeon with 2 MB of L2 per core, where the block
    outgrows the cache). A graph of at most PANEL_ROWS vertices is one
    panel and is not sorted. Either way each row of the operator meets its
    pairs below the diagonal in ascending column order as (hi, lo), and
    those above it as (lo, hi). Only vertices with an edge get a diagonal
    entry, as the sparse algebra drops zero diagonals.

    Every id lies in [0, n): the product kernel does no bounds checks, so a
    hand-built graph whose column indices leave that range raises
    ValueError here.
    """
    if g.col_indices.size:
        low, high = int(g.col_indices.min()), int(g.col_indices.max())
        if low < 0 or high >= g.n:
            raise ValueError(f"column index {low if low < 0 else high} outside [0, {g.n})")
    d = degrees(g)
    if kind is OperatorKind.DENSITY:
        _check_density(float(d.sum()))
        interval = (0.0, 1.0)
    elif kind is OperatorKind.NORMALIZED_LAPLACIAN:
        interval = (0.0, 2.0)
    elif kind is OperatorKind.LAPLACIAN:
        interval = (0.0, 2.0 * float(d.max(initial=0.0)))
    else:
        raise ValueError(f"unknown operator kind: {kind!r}")
    diag = np.flatnonzero(d > 0).astype(np.int32)
    src = _sources(g)
    below = g.col_indices < src
    hi = src[below]
    del src
    lo = g.col_indices[below].astype(np.int32, copy=False)
    w = None if _is_unit_view(g.weights) else g.weights[below]
    del below
    if g.n > PANEL_ROWS:
        # the key's dtype holds every panel index (numpy radix-sorts 8- and
        # 16-bit keys); mode="clip" changes no index of a permutation, where
        # the default "raise" gathers into a hidden copy
        order = np.argsort((lo // PANEL_ROWS).astype(np.min_scalar_type(g.n // PANEL_ROWS)),
                           kind="stable")
        lo = np.take(lo, order, mode="clip")
        hi = np.take(hi, order, mode="clip")
        if w is not None:
            w = np.take(w, order, mode="clip")
        del order
    return lo, hi, diag, (w, d), interval


def _values(kind: OperatorKind, lo: np.ndarray, hi: np.ndarray, diag: np.ndarray,
            w: np.ndarray | None, d: np.ndarray, dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """The operator's entries in dtype, as ``(lower, diagonal, upper)``, for
    the pairs and diagonal of ``_pairs``.

    The three arrays are the entries at (hi, lo), below the diagonal, at
    (diag, diag) and at (lo, hi), above it; ``lower`` is ``upper`` itself
    except for the normalized Laplacian of a graph with stored weights,
    where (w s_hi) s_lo and (w s_lo) s_hi can round apart.

    Each value is computed in float64 in the operation order of the sparse
    algebra ``diags(d) - A``, ``diags(d > 0) - S A S`` with ``S =
    diags(d^{-1/2})`` and ``(diags(d) - A) * (1 / tr L)``, so it equals
    that algebra's entry bit for bit, and then rounded into dtype. The
    pairs go in chunks of ``_TERM_ENTRIES``, so no float64 temporary has
    one entry per pair; with unit weights, the Laplacian's and the density
    matrix's off-diagonal entries are one constant. An off-diagonal entry
    of the normalized Laplacian that underflows stays as +0.0, where the
    algebra drops it; this changes no product and no dense entry.
    """
    # 1 / tr L for the density matrix; a factor of 1.0 changes no bit
    factor = 1.0 / float(d.sum()) if kind is OperatorKind.DENSITY else 1.0

    def chunked(term: Callable[[slice], np.ndarray]) -> np.ndarray:
        """term over the pairs, chunk by chunk, rounded into dtype."""
        out = np.empty(lo.size, dtype)
        for a in range(0, lo.size, _TERM_ENTRIES):
            out[a:a + _TERM_ENTRIES] = term(slice(a, a + _TERM_ENTRIES))
        return out

    # 0.0 - x, not -x: an underflowed +0.0 stays +0.0, which densifies as
    # the algebra's dropped entry does
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        scale = np.zeros(d.size)
        scale[diag] = 1.0 / np.sqrt(d[diag])

        def scaled(row: np.ndarray, col: np.ndarray, k: slice) -> np.ndarray:
            """0.0 - (w s_row) s_col, the algebra's entries at (row[k], col[k])."""
            vals = scale[row[k]]
            if w is not None:
                vals *= w[k]
            vals *= scale[col[k]]
            return np.subtract(0.0, vals, out=vals)

        upper = chunked(lambda k: scaled(lo, hi, k))
        # with unit weights, s_hi s_lo and s_lo s_hi are the same product
        lower = upper if w is None else chunked(lambda k: scaled(hi, lo, k))
        return lower, np.ones(diag.size, dtype), upper
    # unit weights make every chunk one constant
    upper = chunked(lambda k: np.subtract(0.0, 1.0 if w is None else w[k]) * factor)
    return upper, (d[diag] * factor).astype(dtype, copy=False), upper


def _check_density(tr_l: float) -> None:
    """Raise UndefinedDensityError unless the density matrix L / tr(L) is defined.

    It is not for a graph without edges, whose tr(L) is 0, nor when tr(L)^2,
    which trace_squared divides by, underflows to 0 (tr(L) below about
    1.5e-154) or overflows (tr(L) above about 1.3e154); the first bound
    covers every tr(L) whose inverse overflows. This is the one place that
    decides: every entropy route reaches it through ``make_operator``,
    ``dense_spectrum``, ``trace`` or ``trace_squared``.
    """
    if tr_l <= 0:
        raise UndefinedDensityError("density matrix undefined for a graph without edges")
    if not 0 < tr_l * tr_l < np.inf:
        raise UndefinedDensityError(f"density matrix undefined: tr(L)={tr_l} is too "
                                    f"{'small' if tr_l < 1 else 'large'} to normalize")


def make_operator(g: Graph, kind: OperatorKind) -> LinearOperator:
    """Build the operator of the requested kind for g from its stored pairs
    and diagonal (``_pairs``).

    A product is three calls of scipy's compiled COO kernel, the call
    ``coo_matrix.__matmul__`` makes, into one zeroed output: the pairs as
    (hi, lo), the terms below the diagonal; the diagonal; the pairs as
    (lo, hi), the terms above it. Each output entry thus sums its row's
    terms in column order, as a CSR product does, so every product has the
    sparse algebra's bits. The kernels come from ``_scipy.coo_kernels``,
    which also says how a scipy without the block kernel runs a block, to
    the same bits. The input is checked and cast first, in one place:
    float32 input, such as the Lanczos blocks of large operators, is
    multiplied in float32 by the entries rounded to float32; any other
    input is made C-contiguous float64 and multiplied by the float64
    entries. An input that is not an (n,) vector or an (n, W) block raises
    ValueError. The float64 path is the only one that ARPACK, the deflated
    baseline operators and every small graph use.

    The operator returned holds ids, no values: the pairs, the diagonal,
    the degrees and, for a graph with stored weights, the pairs' weights,
    which the first value build takes. Each dtype's values are built by
    ``_values`` on the first product in that dtype, in chunks rounded
    straight into it, so no float64 array with one entry per pair is made
    for a float32 product. The slq route above the switch thus holds 12
    bytes per undirected edge (int32 ids lo and hi, one float32 value), 6
    per stored entry of the graph, plus 8 per vertex for the diagonal; the
    normalized Laplacian of a graph with stored weights adds 2 per stored
    entry for the values below the diagonal. A later product in the other
    dtype derives the weights and degrees from g again, and both dtypes'
    values are kept from then on. Each dtype's values are built once,
    under a lock, however many threads make their first products at once.

    Raises
    ------
    ValueError
        If the density matrix is requested for an edgeless graph or one
        whose tr(L) is too small or too large to normalize, if a weighted
        degree of g is not finite, or if a column index of g lies outside
        [0, n).
    """
    lo, hi, diag, pending, interval = _pairs(g, kind)
    n = g.n
    matvec, matmat = _scipy.coo_kernels()
    calls = ((hi, lo), (diag, diag), (lo, hi))  # the rows and columns of each call
    lock = threading.Lock()
    built = {}  # dtype -> the three calls' values in dtype

    def values(dtype: np.dtype) -> tuple[np.ndarray, ...]:
        """The values of the three calls in dtype."""
        nonlocal pending
        with lock:
            if dtype not in built:
                # the first build takes the weights and degrees of _pairs;
                # a later one derives them from g again
                w, d = pending or _pairs(g, kind)[3]
                pending = None
                built[dtype] = _values(kind, lo, hi, diag, w, d, dtype)
                del w, d
            return built[dtype]

    def product(x: np.ndarray, parts: tuple[np.ndarray, ...]) -> np.ndarray:
        """x, checked and cast, times the operator: the three kernel calls
        into one zeroed output."""
        out = np.zeros(x.shape, x.dtype)
        for (rows, cols), vals in zip(calls, parts):
            if x.ndim == 1:
                matvec(vals.size, rows, cols, vals, x, out)
            else:
                matmat(vals.size, x.shape[1], rows, cols, vals, x.ravel("C"), out)
        return out

    def apply(x: np.ndarray) -> np.ndarray:
        single = getattr(x, "dtype", None) == np.float32
        x = np.ascontiguousarray(x, dtype=np.float32 if single else np.float64)
        # checked here for every route: the kernel reads x without bounds checks
        if x.ndim > 2 or x.shape[0] != n:
            raise ValueError(f"operator of dimension {n} cannot apply to shape {x.shape}")
        # built before the output is allocated: a first product's peak
        # holds one or the other
        return product(x, values(x.dtype))

    return LinearOperator(dim=n, apply=apply, interval=interval)


def dense_spectrum(g: Graph, kind: OperatorKind) -> np.ndarray:
    """All eigenvalues of the densified operator, ascending.

    This is the exact reference for every approximation in the package; it
    refuses graphs above ``DENSE_SPECTRUM_CAP`` vertices. Only the lower
    triangle is densified, which is all that LAPACK reads and writes
    (``uplo='L'``), and ``_scipy.eigvalsh`` works in the dense array
    itself, with ``scipy.linalg.eigvalsh``'s bits. The array lies on
    anonymous pages that the kernel maps zeroed on first touch, advised
    against huge pages: the upper triangle is never touched, so about 4n^2
    bytes are resident, not 8n^2. numpy advises its own large arrays to
    take huge pages, so its zeros became resident whole, at one scattered
    write per 2 MiB.

    Raises
    ------
    ValueError
        Above the cap; or, with scipy's message, if an entry is not finite.
    MemoryError
        If the 8n^2 bytes of address space cannot be mapped.
    """
    if g.n > DENSE_SPECTRUM_CAP:
        raise ValueError(f"dense spectrum refused: n={g.n} exceeds cap {DENSE_SPECTRUM_CAP}")
    lo, hi, diag, (w, d), _ = _pairs(g, kind)
    lower, diagonal, _ = _values(kind, lo, hi, diag, w, d, np.float64)
    # scipy's check_finite, on the array's only nonzero entries
    if not (np.isfinite(lower).all() and np.isfinite(diagonal).all()):
        raise ValueError("array must not contain infs or NaNs")
    if g.n == 0:
        return np.empty(0)  # as scipy's eigh returns, without calling LAPACK
    try:
        pages = mmap.mmap(-1, 8 * g.n * g.n)
    except OSError as exc:
        raise MemoryError(f"dense spectrum of n={g.n} cannot map "
                          f"{8 * g.n * g.n} bytes: {exc}") from exc
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # a kernel without transparent huge pages refuses the advice, and
        # has none to give
        with contextlib.suppress(OSError):
            pages.madvise(mmap.MADV_NOHUGEPAGE)
    dense = np.frombuffer(pages, dtype=np.float64).reshape((g.n, g.n), order="F")
    # added to zeros, as a sparse matrix densifies: -0.0 lands as +0.0
    dense[hi, lo] += lower
    dense[diag, diag] += diagonal
    return _scipy.eigvalsh(dense)


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


# Stored entries per block of trace_squared's normalized terms.
_TERM_ENTRIES = 1 << 16


def trace_squared(g: Graph, kind: OperatorKind) -> float:
    """Exact trace of the squared operator in one edge pass.

    Uses tr(M^2) = sum of squared entries for symmetric M: the diagonal
    contributes degree terms, the off-diagonal one term per stored entry.
    np.sum is pairwise, which keeps huge accumulations accurate. The result
    is never NaN: the degrees are finite (``degrees``), and a normalized
    entry w^2 / (d_i d_j) whose denominator overflows or leaves the normal
    range is taken as (w / d_i) (w / d_j), two factors of at most 1.

    No temporary has one entry per stored entry but the normalized terms:
    unit weights square to a sum of exactly nnz (a pairwise sum of ones is
    exact below 2**53), and the terms are filled in blocks of rows of about
    ``_TERM_ENTRIES`` entries before their one sum.
    """
    d = degrees(g)
    w = g.weights
    if kind is OperatorKind.LAPLACIAN:
        squares = float(w.size) if _is_unit_view(w) else np.sum(w * w)
        return float(np.sum(d * d) + squares)
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        diag = float(np.count_nonzero(d > 0))
        offsets, terms = g.row_offsets, np.empty(w.size)
        for r0, r1 in _row_blocks(offsets, _TERM_ENTRIES):
            a, b = offsets[r0], offsets[r1]
            w_ab, out = w[a:b], terms[a:b]
            d_src = np.repeat(d[r0:r1], np.diff(offsets[r0:r1 + 1]))
            d_dst = d[g.col_indices[a:b]]
            with np.errstate(over="ignore", invalid="ignore"):
                denom = d_src * d_dst
                np.divide(w_ab * w_ab, denom, out=out)
            odd = (denom < np.finfo(np.float64).tiny) | (denom == np.inf)
            out[odd] = (w_ab[odd] / d_src[odd]) * (w_ab[odd] / d_dst[odd])
        return diag + float(np.sum(terms))
    if kind is OperatorKind.DENSITY:
        tr_l = trace(g, OperatorKind.LAPLACIAN)
        _check_density(tr_l)
        return trace_squared(g, OperatorKind.LAPLACIAN) / (tr_l * tr_l)
    raise ValueError(f"unknown operator kind: {kind!r}")
