"""Stochastic trace estimation of matrix functions via Lanczos quadrature.

tr(f(M)) is estimated by averaging per-probe Gauss quadrature sums: each
random probe vector is normalized, run through the Lanczos recurrence, and
the resulting rule integrates f over the probe's spectral measure. With
unit-length probes the estimate carries an explicit factor n, so the final
value is n times the mean per-probe sum. Probe seeds derive from
numpy.random.SeedSequence(seed, spawn_key=(probe_index,)), which makes
results independent of scheduling and reproducible probe by probe.

Probes run in blocks of ``BLOCK_WIDTH`` columns through ``lanczos_block``:
one block operator application per Lanczos step, no reorthogonalization,
and one batched eigendecomposition for all Gauss rules. The last block is
zero-padded to the full width, so every probe sits in the same column of an
identically shaped block whatever n_v or the worker count, and its numbers
never change with either. On operators of at least ``MIN_PARALLEL_DIM``
rows, blocks are spread over worker threads (the sparse product releases
the GIL) and gathered in probe order. f is then applied once per grid
point to the whole (n_v, s) node array and integrated with one einsum.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lanczos import BlockTridiagonal, block_quadrature_rules, lanczos_block
from .operators import LinearOperator

__all__ = ["SlqConfig", "SlqEstimate", "slq_trace", "slq_trace_grid"]

_DISTRIBUTIONS = ("rademacher", "gaussian")

# Probes per Lanczos block. Fixed, so that a probe's numbers depend on
# neither n_v nor the worker count.
BLOCK_WIDTH = 8
# Smallest operator that blocks are spread over worker threads for. Below
# it a Lanczos step is mostly interpreter work that holds the GIL, and a
# second worker only contends for it: on a 2-core Xeon, two workers took
# 1.5x as long as one on ER graphs of 100-500 vertices, broke even near
# 2000, and were 1.4-1.8x faster from 3000 to 10000 vertices.
MIN_PARALLEL_DIM = 2048


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


def _draw_probe(rng: np.random.Generator, n: int, distribution: str) -> np.ndarray:
    if distribution == "rademacher":
        return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    return rng.standard_normal(n)


def _probe_block(op: LinearOperator, cfg: SlqConfig, first: int) -> BlockTridiagonal:
    """Lanczos run of probes first .. first + BLOCK_WIDTH - 1, zero-padded
    past the last probe."""
    block = np.zeros((op.dim, BLOCK_WIDTH))
    for j, index in enumerate(range(first, min(first + BLOCK_WIDTH, cfg.n_v))):
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
        v = _draw_probe(np.random.default_rng(seq), op.dim, cfg.distribution)
        # not np.linalg.norm: its BLAS dot starts OpenBLAS threads above 10k
        # entries, which then spin on the cores the workers need
        block[:, j] = v / np.sqrt(np.einsum("i,i->", v, v))
    return lanczos_block(op, block, cfg.s)


def _probe_rules(
    op: LinearOperator, cfg: SlqConfig, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Clamped (n_v, s) Gauss nodes and weights of every probe, in probe order."""
    firsts = range(0, cfg.n_v, BLOCK_WIDTH)
    workers = min(threads, len(firsts)) if op.dim >= MIN_PARALLEL_DIM else 1
    if workers <= 1:
        blocks = [_probe_block(op, cfg, first) for first in firsts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(lambda first: _probe_block(op, cfg, first), firsts))
    tri = BlockTridiagonal(
        alpha=np.concatenate([b.alpha for b in blocks])[: cfg.n_v],
        beta=np.concatenate([b.beta for b in blocks])[: cfg.n_v],
        steps=np.concatenate([b.steps for b in blocks])[: cfg.n_v],
    )
    nodes, weights = block_quadrature_rules(tri)
    lo, hi = op.interval
    return np.clip(nodes, lo, hi), weights


def _integrate(
    nodes: np.ndarray,
    weights: np.ndarray,
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    control_variate: tuple[Sequence[float], float] | None = None,
) -> SlqEstimate:
    values = np.asarray(f(nodes), dtype=np.float64)
    if control_variate is not None:
        (c0, c1, c2), exact = control_variate
        values = values - (c0 + c1 * nodes + c2 * nodes * nodes)
    finite = np.isfinite(values)
    if not finite.all():
        probe = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ValueError(
            f"f returned a non-finite value at quadrature nodes {nodes[probe]!r}"
        )
    per_vector = np.einsum("ij,ij->i", weights, values)
    n_v = per_vector.size
    value = n * (float(per_vector.sum()) / n_v)
    if control_variate is not None:
        value += exact
    if n_v > 1:
        std_error = float(np.std(n * per_vector, ddof=1)) / np.sqrt(n_v)
    else:
        std_error = 0.0
    return SlqEstimate(value=value, per_vector=per_vector, std_error=std_error)


def slq_trace(
    op: LinearOperator,
    f: Callable[[np.ndarray], np.ndarray],
    cfg: SlqConfig,
    *,
    threads: int = 1,
    control_variate: tuple[Sequence[float], float] | None = None,
) -> SlqEstimate:
    """Estimate tr(f(op)) with cfg.n_v probes of cfg.s Lanczos steps each.

    f receives the (n_v, s) array of quadrature nodes and must act
    elementwise. Nodes are clamped to op.interval before f is applied, so
    functions like x*ln(x) never see slightly negative Ritz values; a rule
    shortened by breakdown pads its row with zero-weight copies of its last
    node. Deterministic for a fixed cfg regardless of ``threads``: blocks
    are gathered in ascending probe order.

    ``control_variate`` is an experimental variance-reduction hook: a pair
    ``((c0, c1, c2), exact_trace)`` subtracts the quadratic c0 + c1*x + c2*x^2
    from f at the nodes and adds back its exact trace, which the caller must
    supply (e.g. from the closed-form trace identities). Off by default.
    """
    nodes, weights = _probe_rules(op, cfg, threads)
    return _integrate(nodes, weights, op.dim, f, control_variate)


def slq_trace_grid(
    op: LinearOperator,
    f_family: Callable[[float], Callable[[np.ndarray], np.ndarray]],
    grid: Sequence[float],
    cfg: SlqConfig,
    *,
    threads: int = 1,
) -> list[SlqEstimate]:
    """slq_trace for every grid point, reusing every probe's quadrature rule.

    Bit-identical to calling slq_trace(op, f_family(t), cfg) per point: the
    rules depend only on cfg, and each point integrates through the same
    code path, one f call and one einsum over the whole node array.
    """
    nodes, weights = _probe_rules(op, cfg, threads)
    return [_integrate(nodes, weights, op.dim, f_family(t)) for t in grid]
