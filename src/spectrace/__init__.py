"""Spectral graph descriptors via stochastic Lanczos quadrature.

Heat-trace signatures and von Neumann graph entropy on implicit sparse
operators, with exact references, closed-form baselines, and benchmark
harnesses.
"""

from .graphs import Graph, SnapshotSeries, erdos_renyi, load_snapshots, parse_edge_list
from .operators import (
    LinearOperator,
    OperatorKind,
    degrees,
    dense_spectrum,
    make_operator,
    trace,
    trace_squared,
)
from .lanczos import (
    QuadratureRule,
    Tridiagonal,
    extremal_eigenvalues,
    lanczos_error_bound,
    lanczos_tridiagonalize,
    quadrature_rule,
)
from .slq import SlqConfig, SlqEstimate, slq_trace, slq_trace_grid
from .descriptors import (
    EntropyValue,
    HeatTraceDescriptor,
    TimeGrid,
    descriptor_distance,
    descriptor_from_json,
    descriptor_to_json,
    netlsd_exact,
    netlsd_linear,
    netlsd_slq,
    netlsd_taylor,
    relative_error,
    vnge_exact,
    vnge_finger,
    vnge_slq,
    vnge_taylor,
)
from .bench import (
    ClassificationResult,
    ErrorRow,
    SnapshotRow,
    error_benchmark,
    knn_accuracy,
    snapshot_distance_series,
)

__version__ = "0.1.0"
