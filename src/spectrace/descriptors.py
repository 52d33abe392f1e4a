"""Spectral graph descriptors: heat-trace signatures and von Neumann entropy.

The heat-trace signature samples h_t = sum_i exp(-t * lambda_i) over the
normalized Laplacian spectrum on a logarithmic time grid (default 256 points
in [1e-2, 1e2]). Von Neumann entropy is -sum_i lambda_i ln(lambda_i) over the
spectrum of the density matrix L / tr(L), with 0 ln 0 = 0. Each descriptor is
available through several routes:

exact     dense eigendecomposition (reference; capped graph size)
slq       stochastic Lanczos quadrature on the implicit operator
taylor    second-order trace identities (closed form, no spectrum)
linear    exact extremal eigenvalues, linearly interpolated interior
finger    entropy only: taylor quadratic times a log spectral-scale factor

The entropy taylor expansion is also available exactly as commonly printed
(``variant="printed"``), which mixes a first-order term into the quadratic
normalizer and can go negative; the default ``"corrected"`` form
Q = 1 - tr(L^2)/tr(L)^2 is consistent and exact on a single edge.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import IO

import numpy as np

from .graphs import Graph
from .lanczos import extremal_eigenvalues
from .operators import (
    LinearOperator, OperatorKind, degrees, dense_spectrum, make_operator, trace,
    trace_squared,
)
from .slq import SlqConfig, slq_trace, slq_trace_grid

__all__ = [
    "TimeGrid",
    "HeatTraceDescriptor",
    "EntropyValue",
    "netlsd_exact",
    "netlsd_slq",
    "netlsd_taylor",
    "netlsd_linear",
    "vnge_exact",
    "vnge_slq",
    "vnge_taylor",
    "vnge_finger",
    "descriptor_distance",
    "relative_error",
    "descriptor_to_json",
    "descriptor_from_json",
]


@dataclass(frozen=True)
class TimeGrid:
    """Logarithmically spaced heat-kernel time points."""

    t_min: float = 1e-2
    t_max: float = 1e2
    count: int = 256
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.count == 1:
            # degenerate single-point grid, used for pointwise comparisons
            if not 0 < self.t_min == self.t_max:
                raise ValueError("a single-point grid needs 0 < t_min == t_max")
            values = np.array([self.t_min])
        else:
            if not 0 < self.t_min < self.t_max:
                raise ValueError(
                    f"need 0 < t_min < t_max, got t_min={self.t_min}, t_max={self.t_max}"
                )
            values = np.geomspace(self.t_min, self.t_max, self.count)
            values[0] = self.t_min
            values[-1] = self.t_max
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class HeatTraceDescriptor:
    """Heat-trace vector h_t over a time grid, tagged with its method."""

    grid: TimeGrid
    values: np.ndarray
    method: str
    params: dict
    graph_hash: str
    std_errors: np.ndarray | None = None


@dataclass(frozen=True)
class EntropyValue:
    """Scalar von Neumann graph entropy, tagged with its method."""

    value: float
    method: str
    params: dict
    graph_hash: str
    std_error: float | None = None


def _heat_trace(eigenvalues: np.ndarray, grid: TimeGrid) -> np.ndarray:
    lam = np.maximum(eigenvalues, 0.0)
    return np.exp(-np.outer(grid.values, lam)).sum(axis=1)


def netlsd_exact(g: Graph, grid: TimeGrid | None = None) -> HeatTraceDescriptor:
    """Heat trace from the full normalized Laplacian spectrum."""
    grid = grid or TimeGrid()
    eigs = dense_spectrum(g, OperatorKind.NORMALIZED_LAPLACIAN)
    return HeatTraceDescriptor(
        grid=grid,
        values=_heat_trace(eigs, grid),
        method="exact",
        params={},
        graph_hash=g.content_hash(),
    )


def netlsd_slq(
    g: Graph, grid: TimeGrid | None = None, cfg: SlqConfig | None = None,
    *, threads: int = 1,
) -> HeatTraceDescriptor:
    """Heat trace estimated by stochastic Lanczos quadrature."""
    grid = grid or TimeGrid()
    cfg = cfg or SlqConfig()
    op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)

    def f_family(t: float):
        return lambda x: np.exp(-t * x)

    estimates = slq_trace_grid(op, f_family, grid.values, cfg, threads=threads)
    return HeatTraceDescriptor(
        grid=grid,
        values=np.array([e.value for e in estimates]),
        method="slq",
        params=asdict(cfg),
        graph_hash=g.content_hash(),
        std_errors=np.array([e.std_error for e in estimates]),
    )


def netlsd_taylor(g: Graph, grid: TimeGrid | None = None) -> HeatTraceDescriptor:
    """Second-order heat-trace expansion n - t tr + (t^2/2) tr^2 from trace
    identities; reasonable only for small t."""
    grid = grid or TimeGrid()
    tr1 = trace(g, OperatorKind.NORMALIZED_LAPLACIAN)
    tr2 = trace_squared(g, OperatorKind.NORMALIZED_LAPLACIAN)
    t = grid.values
    return HeatTraceDescriptor(
        grid=grid,
        values=g.n - t * tr1 + 0.5 * t * t * tr2,
        method="taylor",
        params={},
        graph_hash=g.content_hash(),
    )


def _kernel_deflated(g: Graph, op: LinearOperator) -> tuple[LinearOperator, int]:
    """The normalized Laplacian op with its kernel moved to eigenvalue 2, and
    the kernel's dimension.

    The kernel holds one unit vector u per connected component: sqrt(d) on
    the component, or e_i for an isolated vertex i. An iterative solver finds
    at best one copy of the repeated eigenvalue 0, so the kernel is removed
    exactly: adding 2 u u^T for every u puts these eigenvalues at the top of
    the spectral interval [0, 2].
    """
    # imported on first use: only the linear baseline gets here, and the
    # import, which loads scipy.sparse too, takes about 0.4 s and 30 MB of
    # RSS on a 2-core Xeon
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix((g.weights, g.col_indices, g.row_offsets), shape=(g.n, g.n))
    count, labels = connected_components(adj, directed=False)
    d = degrees(g)
    u = np.where(d > 0, np.sqrt(d), 1.0)
    u /= np.sqrt(np.bincount(labels, weights=u * u))[labels]

    def apply(x: np.ndarray) -> np.ndarray:
        return op.apply(x) + 2.0 * u * np.bincount(labels, weights=u * x, minlength=count)[labels]

    return LinearOperator(dim=g.n, apply=apply, interval=op.interval), count


def netlsd_linear(
    g: Graph, grid: TimeGrid | None = None, k: int = 300
) -> HeatTraceDescriptor:
    """Heat trace from k exact eigenvalues at each end of the spectrum with a
    linearly interpolated interior. The smallest end is one 0 per connected
    component, then the smallest eigenvalues of the kernel-deflated operator
    (``_kernel_deflated``). The largest end is not deflated: eigenvalue 2
    occurs once per bipartite component, and ``extremal_eigenvalues`` may
    return fewer copies of it than that. Falls back to the dense route when
    2k >= n."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grid = grid or TimeGrid()
    if 2 * k >= g.n:
        exact = netlsd_exact(g, grid)
        return HeatTraceDescriptor(
            grid=grid,
            values=exact.values,
            method="linear",
            params={"k": k, "fallback": "exact"},
            graph_hash=g.content_hash(),
        )
    op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
    deflated, zeros = _kernel_deflated(g, op)
    low = np.zeros(k)
    if zeros < k:
        low[zeros:] = extremal_eigenvalues(deflated, k - zeros, "smallest")
    high = extremal_eigenvalues(op, k, "largest")
    interior_count = g.n - 2 * k
    step = (high[0] - low[-1]) / (interior_count + 1)
    interior = low[-1] + step * np.arange(1, interior_count + 1)
    eigs = np.concatenate([low, interior, high])
    return HeatTraceDescriptor(
        grid=grid,
        values=_heat_trace(eigs, grid),
        method="linear",
        params={"k": k},
        graph_hash=g.content_hash(),
    )


def _entropy_from_spectrum(eigs: np.ndarray) -> float:
    lam = np.clip(eigs, 0.0, 1.0)
    pos = lam > 0
    # 0.0 - x, not -x: a zero entropy is 0.0, not -0.0, and any other value
    # is the same float either way
    return 0.0 - float(np.sum(lam[pos] * np.log(lam[pos])))


def vnge_exact(g: Graph) -> EntropyValue:
    """Entropy from the full density-matrix spectrum."""
    eigs = dense_spectrum(g, OperatorKind.DENSITY)
    return EntropyValue(
        value=_entropy_from_spectrum(eigs),
        method="exact",
        params={},
        graph_hash=g.content_hash(),
    )


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def vnge_slq(g: Graph, cfg: SlqConfig | None = None, *, threads: int = 1) -> EntropyValue:
    """Entropy estimated as -tr(P ln P) by stochastic Lanczos quadrature."""
    cfg = cfg or SlqConfig()
    op = make_operator(g, OperatorKind.DENSITY)
    est = slq_trace(op, _xlogx, cfg, threads=threads)
    return EntropyValue(
        value=0.0 - est.value,
        method="slq",
        params=asdict(cfg),
        graph_hash=g.content_hash(),
        std_error=est.std_error,
    )


def vnge_taylor(g: Graph, variant: str = "corrected") -> EntropyValue:
    """Quadratic entropy expansion from trace identities.

    ``corrected`` (default) is Q = 1 - tr(L^2)/tr(L)^2. ``printed`` evaluates
    the commonly printed form 1 - (tr(L) + 2 tr(L^2))/tr(L)^2 verbatim, which
    mixes orders and can be negative; it is kept for fidelity comparisons.
    """
    if variant not in ("corrected", "printed"):
        raise ValueError(f"variant must be 'corrected' or 'printed', got {variant!r}")
    if g.m == 0:
        raise ValueError("entropy undefined for a graph without edges")
    if variant == "corrected":
        value = 1.0 - trace_squared(g, OperatorKind.DENSITY)
    else:
        tr_l = trace(g, OperatorKind.LAPLACIAN)
        tr_l2 = trace_squared(g, OperatorKind.LAPLACIAN)
        value = 1.0 - (tr_l + 2.0 * tr_l2) / (tr_l * tr_l)
    return EntropyValue(
        value=value,
        method="taylor",
        params={"variant": variant},
        graph_hash=g.content_hash(),
    )


def vnge_finger(g: Graph, variant: str = "hat") -> EntropyValue:
    """Entropy approximation -Q ln(scale): the taylor quadratic Q times the
    log of a spectral scale.

    ``hat`` uses the true largest density-matrix eigenvalue (one Lanczos
    solve); ``bar`` its degree upper bound 2 max_deg / tr(L). The bound never
    exceeds 1 on simple graphs, so the log argument stays valid; a bound of
    exactly 1 (single dominating edge) gives entropy 0.
    """
    if variant not in ("hat", "bar"):
        raise ValueError(f"variant must be 'hat' or 'bar', got {variant!r}")
    if g.m == 0:
        raise ValueError("entropy undefined for a graph without edges")
    q = 1.0 - trace_squared(g, OperatorKind.DENSITY)
    if variant == "hat":
        op = make_operator(g, OperatorKind.DENSITY)
        lam_max = float(extremal_eigenvalues(op, 1, "largest")[-1])
        scale = lam_max
    else:
        d = degrees(g)
        scale = 2.0 * float(d.max()) / trace(g, OperatorKind.LAPLACIAN)
    if scale <= 0:
        raise ValueError(f"nonpositive spectral scale {scale} for log")
    return EntropyValue(
        value=0.0 - float(q * np.log(scale)),
        method="finger",
        params={"variant": variant},
        graph_hash=g.content_hash(),
    )


def descriptor_distance(
    a: HeatTraceDescriptor | EntropyValue, b: HeatTraceDescriptor | EntropyValue
) -> float:
    """Euclidean distance between heat traces, absolute difference between
    entropies. Heat-trace operands must share the same time grid."""
    if isinstance(a, HeatTraceDescriptor) and isinstance(b, HeatTraceDescriptor):
        if not np.array_equal(a.grid.values, b.grid.values):
            raise ValueError("heat-trace descriptors have mismatched time grids")
        return float(np.linalg.norm(a.values - b.values))
    if isinstance(a, EntropyValue) and isinstance(b, EntropyValue):
        return float(abs(a.value - b.value))
    raise ValueError(
        f"cannot compare descriptors of different types: {type(a).__name__} vs {type(b).__name__}"
    )


def relative_error(
    approx: HeatTraceDescriptor | EntropyValue,
    reference: HeatTraceDescriptor | EntropyValue,
) -> float:
    """Relative l2 error of approx against reference."""
    if isinstance(reference, HeatTraceDescriptor):
        ref_norm = float(np.linalg.norm(reference.values))
    else:
        ref_norm = abs(reference.value)
    if ref_norm == 0:
        raise ValueError("reference descriptor has zero norm")
    return descriptor_distance(approx, reference) / ref_norm


def descriptor_to_json(
    desc: HeatTraceDescriptor | EntropyValue, stream: IO[str] | None = None
) -> str:
    """Serialize a descriptor to the self-describing JSON object
    {kind, method, params, grid?, values | value, seed?, graph_hash}."""
    obj: dict = {"method": desc.method, "params": dict(desc.params)}
    if isinstance(desc, HeatTraceDescriptor):
        obj["kind"] = "netlsd"
        obj["grid"] = {
            "t_min": desc.grid.t_min,
            "t_max": desc.grid.t_max,
            "count": desc.grid.count,
        }
        obj["values"] = [float(v) for v in desc.values]
    else:
        obj["kind"] = "vnge"
        obj["value"] = float(desc.value)
    if "seed" in desc.params:
        obj["seed"] = desc.params["seed"]
    obj["graph_hash"] = desc.graph_hash
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def descriptor_from_json(text: str) -> HeatTraceDescriptor | EntropyValue:
    """Inverse of descriptor_to_json."""
    obj = json.loads(text)
    if obj["kind"] == "netlsd":
        grid = TimeGrid(
            t_min=obj["grid"]["t_min"],
            t_max=obj["grid"]["t_max"],
            count=obj["grid"]["count"],
        )
        return HeatTraceDescriptor(
            grid=grid,
            values=np.asarray(obj["values"], dtype=np.float64),
            method=obj["method"],
            params=obj["params"],
            graph_hash=obj["graph_hash"],
        )
    if obj["kind"] == "vnge":
        return EntropyValue(
            value=float(obj["value"]),
            method=obj["method"],
            params=obj["params"],
            graph_hash=obj["graph_hash"],
        )
    raise ValueError(f"unknown descriptor kind {obj.get('kind')!r}")
