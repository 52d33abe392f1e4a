"""Command-line interface for reproducible descriptor and benchmark runs.

Subcommands: descriptor, compare, bench-error, classify, snapshots, generate.
Descriptor runs emit JSON; benchmark runs emit CSV with the resolved
configuration echoed on a leading ``#`` comment line. Exit codes: 0 success,
1 usage error, 2 data error. All randomness is seeded, so identical argv and
inputs give byte-identical outputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from . import bench, descriptors as dsc
from .errors import ConvergenceError, EdgeListError, TridiagonalEigenError
from .graphs import Graph, erdos_renyi, load_snapshots, parse_edge_list, write_edge_list
from .slq import SlqConfig


class _Parser(argparse.ArgumentParser):
    """argparse that shows defaults, takes no abbreviated flags and exits 1
    on usage errors (2 is reserved for data errors).

    Without abbreviations, bench-error's --methods cannot swallow a stray
    --method, and a new flag never changes what an existing argv means.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--separator", default=None,
                   help="field separator (None: any whitespace)")
    p.add_argument("--comment-prefix", default="#",
                   help="lines starting with this are skipped")
    p.add_argument("--weighted", action="store_true",
                   help="expect a third weight field per edge line")


def _add_descriptor_options(p: argparse.ArgumentParser, method: bool = True) -> None:
    """Estimator options; --method only where the subcommand reads it
    (bench-error takes --methods instead)."""
    p.add_argument("--kind", choices=("netlsd", "vnge"), required=True,
                   help="descriptor family")
    if method:
        p.add_argument("--method", default="slq", help="computation route: " + "; ".join(
            f"{kind}: {', '.join(methods)}" for kind, methods in bench.METHODS.items()))
    p.add_argument("--nv", type=_positive_int, default=100, help="probe vectors")
    p.add_argument("--steps", type=_positive_int, default=10,
                   help="Lanczos steps per probe")
    p.add_argument("--distribution", choices=("rademacher", "gaussian"),
                   default="rademacher", help="probe distribution")
    p.add_argument("--seed", type=int, default=0, help="estimator master seed")
    p.add_argument("--t-min", type=float, default=1e-2, help="first heat time")
    p.add_argument("--t-max", type=float, default=1e2, help="last heat time")
    p.add_argument("--grid-points", type=_positive_int, default=256,
                   help="heat time count")
    p.add_argument("--k", type=_positive_int, default=300,
                   help="extremal eigenvalues per end for --method linear")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _float_where(ok, wanted: str):
    """argparse type: a float for which ok holds (NaN fails every comparison)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {value}")
        return value

    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker threads over probe blocks; results never depend on it")


def _open(path: str, mode: str):
    """The file at path, or stdin or stdout for '-', which stays open on exit."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin if mode == "r" else sys.stdout)
    return open(path, mode, encoding="utf-8")


def _load_graph(path: str, args) -> Graph:
    with _open(path, "r") as fh:
        return parse_edge_list(
            fh,
            separator=args.separator,
            comment_prefix=args.comment_prefix,
            weighted=args.weighted,
        )


def _resolved(args, keys) -> str:
    parts = [f"{key}={getattr(args, key.replace('-', '_'))}" for key in keys]
    return "# spectrace " + args.subcommand + " " + " ".join(parts) + "\n"


def _cfg(args) -> SlqConfig:
    return SlqConfig(n_v=args.nv, s=args.steps, distribution=args.distribution,
                     seed=args.seed)


def _compute(g, args):
    return bench.compute_descriptor(
        g, args.kind, args.method, args.grid, _cfg(args), args.k, args.threads
    )


def _cmd_descriptor(args) -> int:
    g = _load_graph(args.input, args)
    desc = _compute(g, args)
    with _open(args.output, "w") as out:
        dsc.descriptor_to_json(desc, out)
    return 0


def _cmd_compare(args) -> int:
    ga = _load_graph(args.a, args)
    gb = _load_graph(args.b, args)
    da = _compute(ga, args)
    db = _compute(gb, args)
    print(f"{dsc.descriptor_distance(da, db)!r}")
    return 0


def _cmd_bench_error(args) -> int:
    graphs = [(Path(p).name, _load_graph(p, args)) for p in args.inputs]
    rows = bench.error_benchmark(
        graphs, args.kind, args.methods.split(","), grid=args.grid, cfg=_cfg(args),
        k=args.k, threads=args.threads,
    )
    with _open(args.output, "w") as out:
        out.write(_resolved(args, ["kind", "methods", "nv", "steps", "seed", "k"]))
        bench.write_error_csv(rows, out)
    return 0


def _cmd_classify(args) -> int:
    paths, labels = [], []
    with open(args.manifest, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise EdgeListError(f"manifest expects 'path,label': {line!r}", lineno)
            paths.append(fields[0].strip())
            labels.append(fields[1].strip())
    base = Path(args.manifest).parent
    features = []
    for p in paths:
        full = p if os.path.isabs(p) else str(base / p)
        features.append(_compute(_load_graph(full, args), args))
    result = bench.knn_accuracy(
        features, labels, train_frac=args.train_frac, repeats=args.repeats,
        seed=args.split_seed,
    )
    with _open(args.output, "w") as out:
        out.write(_resolved(args, ["kind", "method", "nv", "steps", "seed",
                                   "train_frac", "repeats", "split_seed"]))
        bench.write_classification_csv(
            Path(args.manifest).stem, args.kind, args.method, result, out
        )
    return 0


def _cmd_snapshots(args) -> int:
    with open(args.events, "r", encoding="utf-8") as fh:
        series = load_snapshots(fh, args.granularity)
    rows = bench.snapshot_distance_series(
        series, args.kind, args.method, grid=args.grid, cfg=_cfg(args), k=args.k,
        threads=args.threads,
    )
    with _open(args.output, "w") as out:
        out.write(_resolved(args, ["kind", "method", "nv", "steps", "seed",
                                   "granularity"]))
        bench.write_snapshot_csv(rows, out)
    return 0


def _cmd_generate(args) -> int:
    if not 0 <= args.avg_degree <= args.n - 1:
        args.parser.error(f"argument --avg-degree: must lie in [0, {args.n - 1}] "
                          f"for --n {args.n}, got {args.avg_degree}")
    g = erdos_renyi(args.n, args.avg_degree, args.seed)
    with _open(args.output, "w") as out:
        write_edge_list(g, out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="spectrace",
                     description="Spectral graph descriptors and benchmarks.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("descriptor", help="compute one descriptor as JSON")
    p.add_argument("--input", required=True, help="edge-list path, '-' for stdin")
    p.add_argument("--output", default="-", help="output path (default stdout)")
    _add_graph_options(p)
    _add_descriptor_options(p)
    _add_common(p)
    p.set_defaults(func=_cmd_descriptor)

    p = sub.add_parser("compare", help="distance between two graphs' descriptors")
    p.add_argument("--a", required=True, help="first edge-list path")
    p.add_argument("--b", required=True, help="second edge-list path")
    _add_graph_options(p)
    _add_descriptor_options(p)
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench-error", help="relative-error table vs exact")
    p.add_argument("--inputs", nargs="+", required=True, help="edge-list paths")
    p.add_argument("--methods", default="slq,taylor", help="comma-separated methods")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    _add_graph_options(p)
    _add_descriptor_options(p, method=False)
    _add_common(p)
    p.set_defaults(func=_cmd_bench_error)

    p = sub.add_parser("classify", help="1-NN accuracy from a 'path,label' manifest")
    p.add_argument("--manifest", required=True, help="CSV of 'path,label' rows")
    p.add_argument("--train-frac", type=_float_where(lambda x: 0 < x < 1, "in (0, 1)"),
                   default=0.8, help="training fraction")
    p.add_argument("--repeats", type=_positive_int, default=1000, help="random splits")
    p.add_argument("--split-seed", type=int, default=0, help="split RNG seed")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    _add_graph_options(p)
    _add_descriptor_options(p)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("snapshots", help="descriptor drift over an event stream")
    p.add_argument("--events", required=True, help="'t op src dst' event file")
    p.add_argument("--granularity", type=_float_where(lambda x: x > 0, "> 0"),
                   required=True, help="bucket width")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    _add_graph_options(p)
    _add_descriptor_options(p)
    _add_common(p)
    p.set_defaults(func=_cmd_snapshots)

    p = sub.add_parser("generate", help="write a synthetic benchmark graph")
    p.add_argument("model", choices=("er",), help="generator family")
    p.add_argument("--n", type=_positive_int, required=True, help="vertex count")
    p.add_argument("--avg-degree", type=float, required=True, help="expected degree")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    # usage errors found after parsing print the subcommand's usage
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def _check_methods(args) -> None:
    """Exit 1 unless every requested method is one of --kind's, before any
    input is read."""
    if not hasattr(args, "kind"):
        return
    if hasattr(args, "methods"):
        requested = [("--methods", name) for name in args.methods.split(",")]
    else:
        requested = [("--method", args.method)]
    known = bench.METHODS[args.kind]
    for flag, name in requested:
        if name not in known:
            args.parser.error(f"argument {flag}: {name!r} is not a {args.kind} method "
                              f"(choose from {', '.join(known)})")


def _resolve_grid(args) -> None:
    """Set args.grid from the heat-time flags, or exit 1 before any input is
    read if they make no grid."""
    if not hasattr(args, "t_min"):
        return
    try:
        args.grid = dsc.TimeGrid(t_min=args.t_min, t_max=args.t_max,
                                 count=args.grid_points)
    except ValueError as exc:
        args.parser.error(f"arguments --t-min, --t-max, --grid-points: {exc}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _check_methods(args)
    _resolve_grid(args)
    try:
        return args.func(args)
    except (EdgeListError, ConvergenceError, TridiagonalEigenError, ValueError,
            OSError, MemoryError) as exc:
        print(f"spectrace: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
