"""Stochastic trace estimation of matrix functions via Lanczos quadrature.

tr(f(M)) is estimated by averaging per-probe Gauss quadrature sums: each
random probe vector is normalized, run through the Lanczos recurrence, and
the resulting rule integrates f over the probe's spectral measure. With
unit-length probes the estimate carries an explicit factor n, so the final
value is n times the mean per-probe sum. Probe seeds derive from
numpy.random.SeedSequence(seed, spawn_key=(probe_index,)), which makes
results independent of scheduling and reproducible probe by probe.

Probes run as columns of zero-padded blocks through ``lanczos_block``: one
block operator application per Lanczos step, no reorthogonalization, and
one batched eigendecomposition for the Gauss rules of each block, run by
the block's thread. A column's arithmetic does not depend on the block
around it, so a probe's numbers change with neither n_v, the block layout
nor the thread count. That holds only because every block is zero-padded
to at least ``BLOCK_WIDTH`` columns: a one-column block runs other numpy
kernels. ``lanczos_block`` on ER(300) and ER(5000) gave a column the same
alpha and beta bits at widths 2 to 256 but other bits at width 1, and
blocks without padding changed descriptor bytes (``vnge_slq`` on ER(2048)
at n_v = 1 and 9, whose last block holds one probe). The probes fill the
fewest blocks of one width, a multiple of ``BLOCK_WIDTH``, that a cap
allows: ``MAX_BLOCK_WIDTH`` below ``MIN_PARALLEL_DIM`` rows, so up to that
many probes run as one block, and ``BLOCK_WIDTH`` from it on. The
calling thread and ``threads - 1`` helper threads each take the next
block not yet started (the compiled sparse product releases the GIL: two
threads ran ``vnge_slq`` at n=20k 1.2-1.8x faster than one on a 2-core
Xeon), and the blocks' rules are gathered in probe order. slq_trace is
slq_trace_grid at one point: f is applied to the (n_v, s) node array for
tiles of grid points at once, and each tile is integrated with one einsum.

On operators of ``MIN_PARALLEL_DIM`` rows or more the blocks are float32,
with float64 alpha and beta, column dots summed over fixed chunks of
rows and a looser breakdown tolerance (``lanczos.lanczos_block``); below
it every bit is float64, as the small-graph tests and digests pin. A
float32 column also keeps its arithmetic whatever block and thread it runs
in, so the determinism above holds on both sides of the switch. Above it,
a probe's numbers differ from its float64 ones: on ER graphs of 2048-5000
vertices by at most 0.01 standard errors, and by 0.19 at large t for the
heat trace of 1024 disjoint edges (the eigenvalue-0 node moves by about
6e-6).

The one-block path takes its raw probes from a probe bank, one per
process (``_probe_bank``): row i is probe i drawn at MIN_PARALLEL_DIM - 1
entries, and an n-vertex graph uses the first n. The first n values of a
longer ``integers(0, 2)`` or ``standard_normal`` draw equal an n-long
draw, so a corpus of small graphs draws its probes once instead of once
per graph, with the same bits. The bank holds at most MAX_BLOCK_WIDTH x
(MIN_PARALLEL_DIM - 1) floats, 4.2 MB (1.6 MB at n_v=100), and only the
latest (seed, distribution, n_v) is kept.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lanczos import BlockTridiagonal, block_quadrature_rules, lanczos_block
from .operators import LinearOperator

__all__ = ["SlqConfig", "SlqEstimate", "slq_trace", "slq_trace_grid"]

_DISTRIBUTIONS = ("rademacher", "gaussian")

# Probes per Lanczos block on operators of at least MIN_PARALLEL_DIM rows,
# and the unit blocks below it are padded to. Wider blocks gave no gain
# per column there (an (n, 16) product took twice an (n, 8) one).
BLOCK_WIDTH = 8
# Smallest operator that probes run in BLOCK_WIDTH blocks for. Below it a
# Lanczos step is mostly interpreter work that holds the GIL: on a 2-core
# Xeon, two workers took 1.5x as long as one on ER graphs of 100-500
# vertices, broke even near 2000, and were 1.4-1.8x faster from 3000 to
# 10000 vertices. So smaller operators run up to MAX_BLOCK_WIDTH probes in
# one block, one product and one set of vector updates per step. The probe
# bank's rows have MIN_PARALLEL_DIM - 1 entries, which must stay at or below
# 8192 (see _probe_block). From it on, blocks are float32, as a step is
# bound by memory traffic. Below it they stay float64: float32 there was
# about 15% faster per corpus graph, but it lost results that are exact on
# small graphs, such as K2's entropy of 0 and per-probe quadratic forms.
MIN_PARALLEL_DIM = 2048
# Widest block below MIN_PARALLEL_DIM. A block keeps three (n, width)
# arrays alive, so the cap bounds memory whatever n_v is: vnge_slq at
# n = 2047 peaks near 17 MiB, where one block of 4000 probes took 251 MiB.
MAX_BLOCK_WIDTH = 256
# Node values per tile of slq_trace_grid: 32 grid points at n_v=100, s=10.
# A bound keeps the (k, n_v, s) temporaries small whatever the grid size.
_TILE_VALUES = 32_768


@dataclass(frozen=True)
class SlqConfig:
    """Estimator parameters: probe count, Lanczos steps, probe law, seed."""

    n_v: int = 100
    s: int = 10
    distribution: str = "rademacher"
    seed: int = 0

    def __post_init__(self):
        if self.n_v < 1:
            raise ValueError(f"n_v must be >= 1, got {self.n_v}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {_DISTRIBUTIONS}, got {self.distribution!r}"
            )


@dataclass(frozen=True)
class SlqEstimate:
    """Trace estimate with per-probe detail.

    ``per_vector`` holds the unit-probe quadrature sums before the dimension
    scaling; ``value`` equals dim * mean(per_vector). ``std_error`` is the
    sample standard deviation of the scaled per-probe estimates divided by
    sqrt(n_v) (0.0 when n_v == 1).
    """

    value: float
    per_vector: np.ndarray
    std_error: float


def _draw_probe(seed: int, index: int, n: int, distribution: str) -> np.ndarray:
    """Probe index's n raw entries, drawn from its own seed sequence."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    if distribution == "rademacher":
        return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    return rng.standard_normal(n)


@functools.lru_cache(maxsize=1)
def _probe_bank(seed: int, distribution: str, n_v: int) -> np.ndarray:
    """Read-only (n_v, MIN_PARALLEL_DIM - 1) array whose row i is probe i
    drawn at the largest dimension that runs as one block; only the latest
    configuration is kept."""
    bank = np.empty((n_v, MIN_PARALLEL_DIM - 1))
    for i in range(n_v):
        bank[i] = _draw_probe(seed, i, MIN_PARALLEL_DIM - 1, distribution)
    bank.flags.writeable = False
    return bank


def _probe_block(
    op: LinearOperator, cfg: SlqConfig, first: int, width: int = BLOCK_WIDTH
) -> BlockTridiagonal:
    """Lanczos run of probes first .. first + width - 1, zero-padded past
    the last probe. The padding keeps every block at least BLOCK_WIDTH
    columns wide: a probe run alone in a one-column block gets other bits
    than in a wider one (see the module docstring).

    Below MIN_PARALLEL_DIM, with at most MAX_BLOCK_WIDTH probes, the raw
    probes are the first op.dim columns of the process's probe bank
    (``_probe_bank``): the first n values of a longer ``integers(0, 2)`` or
    ``standard_normal`` draw equal an n-long draw, and the row einsum sums
    each probe as the per-probe one does, so the block holds the same bits
    either way. That holds only up to 8192 entries, the size of numpy's
    einsum buffer: at 8193 the two sums differ (numpy 2.4.6), so the bank's
    rows, MIN_PARALLEL_DIM - 1 entries, must not outgrow it. The bank takes
    at most 4.2 MB. Larger operators draw probe
    by probe: stacking their draws was slower (an 8-probe block took 3.8
    instead of 2.7 ms at n=20k on a 2-core Xeon). The bank is copied, never
    used as the block, because lanczos_block overwrites its start.

    From MIN_PARALLEL_DIM rows on, the block is float32: each probe is
    drawn and normalized in float64 as below it, then rounded, and
    lanczos_block runs in float32 with float64 reductions.
    """
    dtype = np.float64 if op.dim < MIN_PARALLEL_DIM else np.float32
    block = np.zeros((op.dim, width), dtype)
    last = min(first + width, cfg.n_v)
    if op.dim < MIN_PARALLEL_DIM and cfg.n_v <= MAX_BLOCK_WIDTH:
        raw = _probe_bank(cfg.seed, cfg.distribution, cfg.n_v)[first:last, : op.dim]
        norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
        block[:, : last - first] = (raw / norms[:, None]).T
    else:
        # not np.linalg.norm: its BLAS dot starts OpenBLAS threads above 10k
        # entries, which then spin on the cores the workers need
        for j, index in enumerate(range(first, last)):
            v = _draw_probe(cfg.seed, index, op.dim, cfg.distribution)
            block[:, j] = v / np.sqrt(np.einsum("i,i->", v, v))
    return lanczos_block(op, block, cfg.s)


def _probe_rules(
    op: LinearOperator, cfg: SlqConfig, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Clamped (n_v, s) Gauss nodes and weights of every probe, in probe order.

    The probes fill the fewest blocks that the cap allows (see the module
    docstring), all of one width padded to a multiple of BLOCK_WIDTH: a
    one-column block would give its probe other bits than the wider block
    it runs in for other n_v.
    """
    cap = MAX_BLOCK_WIDTH if op.dim < MIN_PARALLEL_DIM else BLOCK_WIDTH
    count = -(-cfg.n_v // cap)
    width = -(-cfg.n_v // (count * BLOCK_WIDTH)) * BLOCK_WIDTH
    firsts = range(0, cfg.n_v, width)
    # The calling thread runs blocks next to threads - 1 helpers, each thread
    # taking the next block not yet started: an idle calling thread would
    # cost one more thread's block scratch, which each thread frees into its
    # own malloc arena for no other thread to reuse (about 30 MB at n=100k).
    # Every block runs, and the lowest failing block's error is raised.
    rules, errors, taken = [None] * len(firsts), {}, iter(range(len(firsts)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                index = next(taken, None)
            if index is None:
                return
            try:
                rules[index] = block_quadrature_rules(_probe_block(op, cfg, firsts[index], width))
            except Exception as exc:
                errors[index] = exc

    helpers = [threading.Thread(target=work) for _ in range(min(threads, len(firsts)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    nodes, weights = (np.concatenate(part)[: cfg.n_v] for part in zip(*rules))
    lo, hi = op.interval
    return np.clip(nodes, lo, hi), weights


def _integrate(
    nodes: np.ndarray, weights: np.ndarray, n: int, values: np.ndarray
) -> list[SlqEstimate]:
    """One estimate per leading index of the (k, n_v, s) values of f at the nodes."""
    finite = np.isfinite(values)
    if not finite.all():
        probe = int(np.flatnonzero(~finite.all(axis=2))[0]) % len(nodes)
        raise ValueError(
            f"f returned a non-finite value at quadrature nodes {nodes[probe]!r}"
        )
    per_vector = np.einsum("ij,tij->ti", weights, values)
    n_v = len(nodes)
    value = n * (per_vector.sum(axis=1) / n_v)
    if n_v > 1:
        std_error = np.std(n * per_vector, axis=1, ddof=1) / np.sqrt(n_v)
    else:
        std_error = np.zeros(len(values))
    return [
        SlqEstimate(value=float(v), per_vector=p, std_error=float(e))
        for v, p, e in zip(value, per_vector, std_error)
    ]


def slq_trace(
    op: LinearOperator,
    f: Callable[[np.ndarray], np.ndarray],
    cfg: SlqConfig,
    *,
    threads: int = 1,
) -> SlqEstimate:
    """Estimate tr(f(op)) with cfg.n_v probes of cfg.s Lanczos steps each.

    f receives the (n_v, s) array of quadrature nodes and must act
    elementwise. Nodes are clamped to op.interval before f is applied, so
    functions like x*ln(x) never see slightly negative Ritz values; a rule
    shortened by breakdown pads its row with zero-weight copies of its last
    node. Deterministic for a fixed cfg regardless of ``threads``: blocks
    are gathered in ascending probe order. This is slq_trace_grid at one
    point, with f for every point.
    """
    return slq_trace_grid(op, lambda t: f, (0.0,), cfg, threads=threads)[0]


def slq_trace_grid(
    op: LinearOperator,
    f_family: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
    grid: Sequence[float],
    cfg: SlqConfig,
    *,
    threads: int = 1,
) -> list[SlqEstimate]:
    """slq_trace for every grid point, reusing every probe's quadrature rule.

    f_family is called with a (k, 1, 1) array of consecutive grid points and
    must return an f that broadcasts it against the (n_v, s) node array to
    (k, n_v, s) values, as ``lambda x: np.exp(-t * x)`` does; values that
    do not depend on the points are broadcast over them. Grid points go
    in tiles of at most about 32k node values, each integrated at once.
    Each point's estimate has the bits of a grid of that point alone, as
    slq_trace(op, f_family(t), cfg) computes it: the rules depend only on
    cfg, f acts elementwise, and every point is summed in the same order.
    """
    nodes, weights = _probe_rules(op, cfg, threads)
    ts = np.asarray(grid, dtype=np.float64).reshape(-1, 1, 1)
    tile = max(1, _TILE_VALUES // nodes.size)
    estimates = []
    for start in range(0, len(ts), tile):
        t = ts[start : start + tile]
        values = np.asarray(f_family(t)(nodes), dtype=np.float64)
        estimates += _integrate(nodes, weights, op.dim,
                                np.broadcast_to(values, (len(t),) + nodes.shape))
    return estimates
