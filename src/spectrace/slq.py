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

Every probe is a Rademacher probe: its entries are independent random
signs, which give the trace estimate the least variance (Hutchinson 1989;
Avron & Toledo, JACM 2011). A normalized sign probe is exactly
+-1/sqrt(n), so a probe is kept as its packed signs, one bit per entry,
and a block's columns are unpacked and scaled from them. Up to
MAX_BLOCK_WIDTH probes come from a sign bank, one per process
(``_sign_bank``), which keeps only the latest (seed, n_v, length), with
each probe's signs drawn at max(n, MIN_PARALLEL_DIM - 1) entries. An
n-vertex graph reads the first n signs of each row: the first n values of
a longer ``integers(0, 2)`` draw equal an n-long draw. So every graph below
MIN_PARALLEL_DIM shares one bank of n_v x 256 bytes (25.6 KB at n_v=100),
and a corpus of small graphs draws its probes once instead of once per
graph; from MIN_PARALLEL_DIM on the bank takes n_v x ceil(n / 8) bytes
(250 KB at n_v=100 and n=20k, 12.5 MB at n=1M). Each block draws its own
probes the first time it runs, so a series of graphs of one size, as
``snapshots`` walks, draws every probe once, and the first graph's draws
still spread over the threads. With more than MAX_BLOCK_WIDTH probes each
block draws and packs its own probes every time it runs.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lanczos import BlockTridiagonal, block_quadrature_rules, lanczos_block
from .operators import LinearOperator

__all__ = ["SlqConfig", "SlqEstimate", "slq_trace", "slq_trace_grid"]

# Probes per Lanczos block on operators of at least MIN_PARALLEL_DIM rows,
# and the unit blocks below it are padded to. Wider blocks gave no gain
# per column there (an (n, 16) product took twice an (n, 8) one).
BLOCK_WIDTH = 8
# Smallest operator that probes run in BLOCK_WIDTH blocks for. Below it a
# Lanczos step is mostly interpreter work that holds the GIL: on a 2-core
# Xeon, two workers took 1.5x as long as one on ER graphs of 100-500
# vertices, broke even near 2000, and were 1.4-1.8x faster from 3000 to
# 10000 vertices. So smaller operators run up to MAX_BLOCK_WIDTH probes in
# one block, one product and one set of vector updates per step. From it
# on, blocks are float32, as a step is bound by memory traffic. Below it
# they stay float64: float32 there was about 15% faster per corpus graph,
# but it lost results that are exact on small graphs, such as K2's entropy
# of 0 and per-probe quadratic forms.
MIN_PARALLEL_DIM = 2048
# Widest block below MIN_PARALLEL_DIM. A block keeps three (n, width)
# arrays alive, so the cap bounds memory whatever n_v is: vnge_slq at
# n = 2047 peaks at 12.4-12.9 MiB traced for n_v = 256 to 4000, where one
# block of 4000 probes took 251 MiB.
MAX_BLOCK_WIDTH = 256
# Node values per tile of slq_trace_grid: 32 grid points at n_v=100, s=10.
# A bound keeps the (k, n_v, s) temporaries small whatever the grid size.
_TILE_VALUES = 32_768


def _integer(name: str, value) -> int:
    """value as a Python int, numpy integers included; TypeError naming the
    field for any other value, such as 2.5 or 3.0."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SlqConfig:
    """Estimator parameters: probe count, Lanczos steps, probe law, seed.

    The integer fields are stored as Python ints, so a configuration built
    from numpy integers serializes as one built from ints does. The probe
    law has one value, "rademacher", which descriptors record in their
    params."""

    n_v: int = 100
    s: int = 10
    distribution: str = "rademacher"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_v", "s", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n_v < 1:
            raise ValueError(f"n_v must be >= 1, got {self.n_v}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.distribution != "rademacher":
            raise ValueError(f"distribution must be 'rademacher', got {self.distribution!r}")


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


def _draw_probe(seed: int, index: int, n: int) -> np.ndarray:
    """Probe index's n sign bits, drawn from its own seed sequence: the int64
    bits of ``integers(0, 2)``, whose signs 2 * bit - 1 are packed without a
    float copy."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    return rng.integers(0, 2, size=n)


@functools.lru_cache(maxsize=1)
def _sign_bank(seed: int, n_v: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed signs of n_v Rademacher probes of length entries, n_v x
    ceil(length / 8) bytes, and which rows are drawn yet; the blocks fill
    the rows as they first need them. Only the latest configuration is
    kept."""
    return np.zeros((n_v, -(-length // 8)), np.uint8), np.zeros(n_v, bool)


# Serializes _sign_bank's cache misses: two threads missing at once would
# each fill a bank of their own, and only one of them would be kept.
_SIGN_BANK_LOCK = threading.Lock()


def _probe_block(
    op: LinearOperator, cfg: SlqConfig, first: int, width: int = BLOCK_WIDTH
) -> BlockTridiagonal:
    """Lanczos run of probes first .. first + width - 1, zero-padded past
    the last probe. The padding keeps every block at least BLOCK_WIDTH
    columns wide: a probe run alone in a one-column block gets other bits
    than in a wider one (see the module docstring).

    From MIN_PARALLEL_DIM rows on, the block is float32, and lanczos_block
    runs in float32 with float64 reductions; below it the block is float64.
    Each probe's packed signs come from the sign bank (``_sign_bank``) when
    there are at most MAX_BLOCK_WIDTH probes, and are drawn for this block
    otherwise. Its column is +-1/sqrt(n) rounded to the block's dtype: the
    bits of the per-probe draw mapped to +-1, normalized in float64 and
    rounded, since the draw's v.v is exactly n.
    """
    dtype = np.float64 if op.dim < MIN_PARALLEL_DIM else np.float32
    block = np.zeros((op.dim, width), dtype)
    last = min(first + width, cfg.n_v)
    if cfg.n_v <= MAX_BLOCK_WIDTH:
        length = max(op.dim, MIN_PARALLEL_DIM - 1)
        with _SIGN_BANK_LOCK:
            signs, drawn = _sign_bank(cfg.seed, cfg.n_v, length)
        for index in range(first, last):
            if not drawn[index]:
                # packed straight from the draw, which is freed at once
                signs[index] = np.packbits(_draw_probe(cfg.seed, index, length))
                drawn[index] = True
        packed = signs[first:last]
    else:
        packed = np.array([np.packbits(_draw_probe(cfg.seed, index, op.dim))
                           for index in range(first, last)])
    # v.v is exactly n, so every normalized entry is +-1/sqrt(n) rounded,
    # r or -r; 2r * bit - r is that, exactly, and ran 5x faster than
    # np.where(bits, r, -r) on an (n, 8) block
    r = dtype(1.0 / np.sqrt(op.dim))
    probes = block[:, : last - first]
    bits = np.unpackbits(packed, axis=1, count=op.dim)
    np.multiply(bits.T, 2 * r, out=probes, dtype=dtype)
    probes -= r
    del probes, bits, packed
    # handed over: lanczos_block frees the block once its recurrence is done with it
    start = [block]
    del block
    return lanczos_block(op, start, cfg.s)


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
