"""Lanczos tridiagonalization, Gauss quadrature rules, and extremal eigenvalues.

The s-step Lanczos recurrence reduces a symmetric operator to a tridiagonal
matrix whose eigenvalues (Ritz values) and squared first eigenvector
components form a Gauss quadrature rule for the spectral measure of the
start vector. A vanishing residual (breakdown) shortens the rule, which is
then exact on the Krylov-invariant subspace.

Two recurrences are provided. ``lanczos_tridiagonalize`` runs one start
vector and fully reorthogonalizes by default for small step counts; with
``quadrature_rule`` it is the single-vector reference. ``lanczos_block``
runs the plain three-term recurrence on every column of an (n, W) block at
once, one block operator application per step and no reorthogonalization:
at the handful of steps a trace estimate uses, the Gauss rule of the
finite-precision recurrence stays accurate without it (Chen, Trogdon &
Ubaru, ICML 2021). Each column keeps its own breakdown, and
``block_quadrature_rules`` turns the stacked tridiagonals into Gauss rules
with one batched eigendecomposition per distinct step count.

``lanczos_block`` runs in the dtype of its start block. A float32 block
halves the bytes each step moves; alpha and beta stay float64 in either
dtype, and every column dot is summed in the block's dtype over fixed chunks
of ``_DOT_CHUNK`` rows, whose sums are added in float64 (``_column_dots``),
so that no float32 sum runs over more than 4096 terms. Each step also
scales the columns by per-column coefficients three times (beta q_prev,
alpha q and w / beta). numpy broadcasts a coefficient vector with one
inner-loop call per row, so a block of 2048 rows or more is scaled through
a long-row view, 128 of its rows per row of the view (``_scale_columns``):
the same bits in a fraction of the calls, 1.1-1.2x faster per 8-wide
float32 block at 2k-100k rows.

Both recurrences stop a column at breakdown by one rule: its residual norm
beta_i falls to tol times the largest row |alpha_k| + beta_{k-1} (k <= i)
of its own tridiagonal, the column's running estimate of the operator's
norm, with tol 1e-12 for float64 and 1e-4 for float32. The rule reads
nothing but the column's own recurrence, so a loose spectral bound
(``op.interval``) cannot stop a column early. The largest row, not the
latest: rounding leaves a residual relative to the operator's norm, and
the density matrix of a 50-leaf star left 3.7e-14 at its third step, 1e-11
of that step's row but 7e-14 of its largest. A start vector in the
operator's null space has no row to measure against and runs every step
on rounding noise, which moves its rule's integral only at the rounding
level: on C6 with isolated vertices every node stayed within 3e-16 of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import TridiagonalEigenError
from .operators import LinearOperator

__all__ = [
    "Tridiagonal",
    "QuadratureRule",
    "BlockTridiagonal",
    "lanczos_tridiagonalize",
    "quadrature_rule",
    "lanczos_block",
    "block_quadrature_rules",
    "extremal_eigenvalues",
    "lanczos_error_bound",
]

# Breakdown tolerance relative to the largest tridiagonal row so far.
_BREAKDOWN_REL_TOL = 1e-12
# The same for a float32 column: a float32 residual does not fall below
# about 1e-5 of the operator's scale at an invariant subspace (see
# lanczos_block).
_SINGLE_BREAKDOWN_REL_TOL = 1e-4
_FULL_REORTH_MAX_STEPS = 100
# Rows per float32 partial sum of a column dot of a float32 block.
_DOT_CHUNK = 4096
# Rows per long row of _scale_columns' view (1024 entries of an 8-wide
# block), and the fewest rows a block needs for the view: from 1024 to 2047
# rows the view and the plain broadcast broke even at widths 8 to 256.
_LONG_ROWS = 128
_LONG_VIEW_MIN_ROWS = 2048


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: diagonal alpha, off-diagonal beta.

    ``steps`` is the achieved step count; it can be smaller than requested
    when the iteration broke down early.
    """

    alpha: np.ndarray
    beta: np.ndarray
    steps: int


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: ascending Ritz nodes with nonnegative weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def _reorthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass, repeated once if cancellation was severe."""
    norm_before = np.linalg.norm(w)
    w = w - basis.T @ (basis @ w)
    if np.linalg.norm(w) < 0.5 * norm_before:
        w = w - basis.T @ (basis @ w)
    return w


def lanczos_tridiagonalize(
    op: LinearOperator,
    q0: np.ndarray,
    s: int,
    reorth: bool | None = None,
) -> Tridiagonal:
    """Run up to s Lanczos steps on op from the unit start vector q0.

    ``reorth=None`` enables full reorthogonalization whenever s <= 100.
    Requested steps beyond op.dim are clamped (the recurrence cannot produce
    more than dim orthonormal vectors). The iteration stops early at
    breakdown, by the rule of ``lanczos_block``: the residual norm falls to
    1e-12 times the largest row |alpha_k| + beta_{k-1} so far.
    """
    if s < 1:
        raise ValueError(f"step budget must be >= 1, got {s}")
    n = op.dim
    q0 = np.asarray(q0, dtype=np.float64)
    if q0.shape != (n,):
        raise ValueError(f"start vector has shape {q0.shape}, expected ({n},)")
    if abs(np.linalg.norm(q0) - 1.0) > 1e-12:
        raise ValueError("start vector must have unit norm")
    s = min(s, n)
    if reorth is None:
        reorth = s <= _FULL_REORTH_MAX_STEPS

    alphas = np.empty(s)
    betas = np.empty(max(s - 1, 0))
    if reorth:
        basis = np.empty((s, n))
        basis[0] = q0

    q_prev = np.zeros(n)
    q = q0
    beta_prev = scale = 0.0
    steps = 0
    for i in range(s):
        w = op.apply(q)
        alpha = float(np.dot(q, w))
        alphas[i] = alpha
        steps = i + 1
        if i == s - 1:
            break
        w = w - alpha * q - beta_prev * q_prev
        if reorth:
            w = _reorthogonalize(w, basis[: i + 1])
        beta = float(np.linalg.norm(w))
        scale = max(scale, abs(alpha) + beta_prev)
        if beta <= _BREAKDOWN_REL_TOL * scale:
            break
        betas[i] = beta
        q_prev, q, beta_prev = q, w / beta, beta
        if reorth:
            basis[i + 1] = q

    return Tridiagonal(
        alpha=alphas[:steps].copy(), beta=betas[: steps - 1].copy(), steps=steps
    )


def quadrature_rule(tri: Tridiagonal) -> QuadratureRule:
    """Gauss rule from a tridiagonal: eigenvalues as nodes, squared first
    eigenvector components as weights.

    Raises
    ------
    TridiagonalEigenError
        If the symmetric tridiagonal eigensolver fails to converge or
        refuses a non-finite entry.
    """
    # imported on first use: the estimator path never needs it
    import scipy.linalg

    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(tri.alpha, tri.beta)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        raise TridiagonalEigenError(
            f"tridiagonal eigensolver failed: {exc}", alpha=tri.alpha, beta=tri.beta
        ) from exc
    return QuadratureRule(nodes=vals, weights=vecs[0, :] ** 2)


@dataclass(frozen=True)
class BlockTridiagonal:
    """Stacked tridiagonals of a block Lanczos run, one row per column.

    Row j holds column j's diagonal ``alpha[j, :steps[j]]`` and off-diagonal
    ``beta[j, :steps[j] - 1]``; entries past a column's breakdown are zero.
    """

    alpha: np.ndarray
    beta: np.ndarray
    steps: np.ndarray


def _column_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot of each column of the (n, W) block x with the same column of
    y, as float64.

    The block is summed in its dtype over chunks of _DOT_CHUNK rows, in one
    einsum over all whole chunks and one over the rest, and the chunk sums
    are added in float64: a plain float32 sum over a million rows moved
    ER(1M)'s heat trace by 2.8 standard errors. The chunks are fixed, so the
    sum's order depends on neither the thread count nor the other columns.
    A block of fewer than _DOT_CHUNK rows, as every float64 block of the
    estimator is, has no whole chunk: its dots are one einsum's, returned
    as float64 without the chunk einsum, sum and add, which took a third of
    the call's 24 us on a (300, 104) block.
    """
    n, width = x.shape
    whole = n - n % _DOT_CHUNK
    rest = np.einsum("ij,ij->j", x[whole:], y[whole:])
    if not whole:
        return rest.astype(np.float64, copy=False)
    chunks = np.einsum("cij,cij->cj", x[:whole].reshape(-1, _DOT_CHUNK, width),
                       y[:whole].reshape(-1, _DOT_CHUNK, width))
    return chunks.sum(axis=0, dtype=np.float64) + rest


def _scale_columns(ufunc, x: np.ndarray, c: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """ufunc(x, c, out=out) for an (n, W) block x and its W column coefficients c.

    numpy broadcasts c with one inner-loop call per row of x, which on a
    narrow block costs more than the arithmetic: a (20000, 8) float32
    multiply by 8 coefficients took 3-4x as long as a same-shape one. So a
    contiguous block of at least _LONG_VIEW_MIN_ROWS rows is scaled as
    (n // _LONG_ROWS, _LONG_ROWS * W) long rows against np.tile(c,
    _LONG_ROWS), and its last n % _LONG_ROWS rows by the plain broadcast.
    Each element is still one rounding of the same two operands, so no bit
    changes. Shorter blocks keep the plain broadcast: on the estimator's
    wide float64 blocks of 120-500 rows the view was 2-7% slower.
    """
    if out is None:
        out = np.empty_like(x)
    n, width = x.shape
    viewed = n >= _LONG_VIEW_MIN_ROWS and x.flags.c_contiguous and out.flags.c_contiguous
    whole = n - n % _LONG_ROWS if viewed else 0
    if whole:
        shape = (whole // _LONG_ROWS, _LONG_ROWS * width)
        tiled = np.repeat(c[None], _LONG_ROWS, axis=0).reshape(-1)  # np.tile's, 6x faster
        ufunc(x[:whole].reshape(shape), tiled, out=out[:whole].reshape(shape))
    ufunc(x[whole:], c, out=out[whole:])
    return out


def lanczos_block(op: LinearOperator, start: list[np.ndarray], s: int) -> BlockTridiagonal:
    """Run up to s Lanczos steps on every column of the (n, W) start block,
    handed over in the one-element list start, which this function empties.

    Columns must have unit norm, or be zero: a zero column breaks down at its
    first step with the one-node rule at 0. Each column follows the plain
    three-term recurrence of ``lanczos_tridiagonalize(reorth=False)``, with
    the two subtractions in the other order, and stops on its own at
    breakdown, when its residual norm beta_i falls to tol times the largest
    row |alpha_k| + beta_{k-1} (k <= i) of its own tridiagonal; later steps
    leave its tridiagonal untouched. Requested steps beyond op.dim are
    clamped. Every step is one op.apply on the whole block and updates in
    place, so at most three (n, W) arrays live: the two latest Lanczos
    blocks and the new product. The start buffer is handed over: the
    recurrence overwrites it and frees it once rotated out, so a caller
    holds no other reference to it. Kept by the caller, it is a fourth
    block: the probe threads on ER(200k) traced 4.26 (n, W) blocks each
    while their caller kept the start buffer and its unpacked signs, and
    3.01 with both handed over or freed.

    A float32 start block keeps every (n, W) array in float32, half the
    bytes of a float64 one, and op.apply gets float32 blocks; alpha, beta
    and the step counts stay float64, and the update coefficients are cast
    to float32. tol is 1e-12 for a float64 block and 1e-4 for a float32
    one: a float32 residual stays near 1e-5 of the row at an invariant
    subspace (a union of K2 or C6), where a float64 one falls below 1e-12.
    A column's steps depend on nothing but its own recurrence.
    """
    if s < 1:
        raise ValueError(f"step budget must be >= 1, got {s}")
    q = start.pop()
    n, width = q.shape
    s = min(s, n)
    dtype = q.dtype
    tol = _SINGLE_BREAKDOWN_REL_TOL if dtype == np.float32 else _BREAKDOWN_REL_TOL
    alpha = np.zeros((width, s))
    # column i + 1 holds beta_i; column 0 is beta_{-1} = 0, which lets step 0
    # run the general update against a zero block
    beta = np.zeros((width, s))
    steps = np.full(width, s)
    active = np.ones(width, dtype=bool)
    scale = np.zeros(width)

    q_prev = np.zeros_like(q)
    for i in range(s):
        w = op.apply(q)
        a = _column_dots(q, w)
        alpha[:, i] = a
        if i == s - 1:
            break
        # q_prev is dead after this step: its buffer takes both products
        w -= _scale_columns(np.multiply, q_prev, beta[:, i].astype(dtype), out=q_prev)
        w -= _scale_columns(np.multiply, q, a.astype(dtype), out=q_prev)
        b = np.sqrt(_column_dots(w, w))
        scale = np.maximum(scale, np.abs(a) + beta[:, i])
        broke = active & (b <= tol * scale)
        steps[broke] = i + 1
        active &= ~broke
        if not active.any():
            break
        b[~active] = 0.0
        beta[:, i + 1] = b
        _scale_columns(np.divide, w, np.where(active, b, 1.0).astype(dtype), out=w)
        w[:, ~active] = 0.0
        q_prev, q = q, w
    return BlockTridiagonal(alpha=alpha, beta=beta[:, 1:], steps=steps)


def block_quadrature_rules(tri: BlockTridiagonal) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rules of every stacked tridiagonal, as (W, s) node and weight arrays.

    Row j carries column j's ascending nodes and weights in its first
    ``steps[j]`` entries; the rest repeat its last node with weight 0, so a
    finite integrand stays finite over the whole array.

    Raises
    ------
    TridiagonalEigenError
        If the batched symmetric eigensolver fails to converge.
    """
    width, s = tri.alpha.shape
    nodes = np.empty((width, s))
    weights = np.zeros((width, s))
    for k in np.unique(tri.steps):
        rows = np.flatnonzero(tri.steps == k)
        diag = np.arange(k)
        mats = np.zeros((rows.size, k, k))
        mats[:, diag, diag] = tri.alpha[rows, :k]
        mats[:, diag[1:], diag[:-1]] = tri.beta[rows, : k - 1]
        mats[:, diag[:-1], diag[1:]] = tri.beta[rows, : k - 1]
        try:
            vals, vecs = np.linalg.eigh(mats)
        except np.linalg.LinAlgError as exc:
            raise TridiagonalEigenError(
                f"tridiagonal eigensolver failed: {exc}",
                alpha=tri.alpha[rows, :k], beta=tri.beta[rows, : k - 1],
            ) from exc
        nodes[rows, :k] = vals
        nodes[rows, k:] = vals[:, -1:]
        weights[rows, :k] = vecs[:, 0, :] ** 2
    return nodes, weights


def extremal_eigenvalues(op: LinearOperator, k: int, end: str) -> np.ndarray:
    """k eigenvalues from one end of the spectrum, ascending.

    Runs ARPACK's implicitly restarted Lanczos, as
    ``scipy.sparse.linalg.eigsh`` does and with its bits, from a start
    vector drawn from a fixed seed sequence; a random restart draws from
    a second fixed sequence, so results are deterministic. ARPACK is
    reached through ``_scipy.arpack_eigenvalues``: its compiled module
    driven as ``eigsh`` drives it, or ``eigsh`` itself where scipy lacks
    that module. k = dim, which ARPACK refuses, takes the dense route,
    through ``_scipy.eigvalsh``.

    A Krylov method sees one copy of an eigenvalue per start vector, so a
    repeated eigenvalue at the requested end may come back fewer times than
    it occurs: callers that know such an eigenspace deflate it first, as
    ``netlsd_linear`` does with the Laplacian kernel. It does not deflate
    the normalized Laplacian's eigenvalue 2 (one per bipartite component),
    so its largest end may hold fewer copies of 2 than the spectrum does.
    On a graph of many small identical components the whole end can be
    missed: the Krylov space of 30 disjoint K2 is invariant after two
    steps, and the smallest eigenvalue comes back as 2, not 0.

    Raises
    ------
    ConvergenceError
        If ARPACK does not converge; carries the converged estimates.
    RuntimeError
        scipy's ``ArpackError``, with eigsh's message, if ARPACK fails
        otherwise.

    Either is raised by ``eigsh``: where the driver fails, ``eigsh``
    replays the same iteration, from the same start vector and restart
    sequence, and reports the failure, so a failure loads
    ``scipy.sparse``.
    """
    if end not in ("smallest", "largest"):
        raise ValueError(f"end must be 'smallest' or 'largest', got {end!r}")
    n = op.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k == n:
        # scipy.linalg.eigvalsh's call, on the Fortran copy that it makes
        return _scipy.eigvalsh(np.asfortranarray(np.asarray_chkfinite(op.apply(np.eye(n)))))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0x5EC7, spawn_key=(n, k)))
    v0 = rng.standard_normal(n)
    if not np.any(op.apply(v0)):
        return np.zeros(k)  # the zero operator (edgeless graph): ARPACK stops at once
    restart_seed = np.random.SeedSequence(entropy=0x5EC7, spawn_key=(n, k, 1))
    which = "LA" if end == "largest" else "SA"
    return np.sort(_scipy.arpack_eigenvalues(op.apply, n, k, which, v0, restart_seed))


def lanczos_error_bound(t: float, s: int) -> float:
    """Worst-case heat-trace quadrature error after s Lanczos steps at time t.

    Below s = sqrt(2t) no guarantee exists and +inf is returned. Both
    branches decrease in s.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s < math.sqrt(2.0 * t):
        return math.inf
    if s <= t:
        return 20.0 * math.exp(-(s * s) / (2.5 * t))
    return 40.0 / t * math.exp(-0.5 * t) * (0.5 * math.e * t / s) ** s
