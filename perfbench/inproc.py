"""Work the benchmark runs inside one spectrace interpreter.

Run as ``python3 perfbench/inproc.py MODE ARGS...`` from a checkout; the
checkout's ``src`` is put first on ``sys.path`` and the import is refused if
spectrace resolves anywhere else. Modes:

corpus DIR SEED COUNT        write a classification corpus (a set-up step)
panel                        accuracy of slq against exact on the fixed panel
trace WORKLOAD SCALE WORK SEED
                             set the inputs up in WORK, traced; run one cycle
                             through the library, then through cli.main
                             untraced and traced, and compare the outputs

panel and trace print one JSON object on the last line of stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spectrace as st  # noqa: E402
import spectrace.cli  # noqa: E402,F401

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

if Path(st.__file__).resolve().parent != ROOT / "src" / "spectrace":
    raise SystemExit(f"spectrace imported from {st.__file__}, not from {ROOT / 'src'}")


def environment() -> dict:
    import platform
    import subprocess

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    defaults = st.cli.build_parser().parse_args(["descriptor", "--input", "-", "--kind", "vnge"])
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        llc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": defaults.threads,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", "n/a"),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "llc_bytes": llc,
    }


def run_step(step: wl.Step) -> None:
    """One set-up step in this interpreter: CLI steps through cli.main."""
    if step.kind == "cli":
        if st.cli.main(list(step.args)) != 0:
            raise RuntimeError(f"set-up step failed: spectrace {' '.join(step.args)}")
    elif step.kind == "corpus":
        directory, seed, count = step.args
        wl.write_corpus(Path(directory), seed, count, st.graphs)
    elif step.kind == "events":
        path, *rest = step.args
        wl.write_events(Path(path), *rest)
    else:
        raise ValueError(f"unknown set-up step {step.kind!r}")


def panel() -> dict:
    """Max relative error of slq against exact, and 1-NN accuracy, on a
    labelled corpus drawn with a fixed seed."""
    errors = {"netlsd": 0.0, "vnge": 0.0}
    features = {"netlsd": [], "vnge": []}
    labels = []
    for _, n, degree, graph_seed in wl.corpus_plan(wl.PANEL_SEED, wl.PANEL_GRAPHS):
        g = st.erdos_renyi(n, degree, graph_seed)
        labels.append(wl.corpus_label(degree))
        for kind, approx, exact in (("netlsd", st.netlsd_slq, st.netlsd_exact),
                                    ("vnge", st.vnge_slq, st.vnge_exact)):
            est = approx(g)
            errors[kind] = max(errors[kind], st.relative_error(est, exact(g)))
            features[kind].append(est)
    out = {f"{kind}_rel_err": err for kind, err in errors.items()}
    for kind, feats in features.items():
        out[f"knn_acc_{kind}"] = st.bench.knn_accuracy(feats, labels).mean_accuracy
    return out


def library_output(argv: list[str]) -> tuple[int, str]:
    """What the CLI invocation ``argv`` should write, computed by calling the
    library directly with the configuration the CLI parser resolves."""
    args = st.cli.build_parser().parse_args(argv)
    grid = st.TimeGrid(t_min=args.t_min, t_max=args.t_max, count=args.grid_points)
    cfg = st.SlqConfig(n_v=args.nv, s=args.steps, distribution=args.distribution,
                       seed=args.seed)

    def load(path):
        with open(path, encoding="utf-8") as fh:
            return st.parse_edge_list(fh)

    def compute(g):
        return st.bench.compute_descriptor(g, args.kind, args.method, grid, cfg, args.k,
                                           args.threads)

    buf = io.StringIO()
    try:
        if args.subcommand == "descriptor":
            return 0, st.descriptor_to_json(compute(load(args.input)))
        if args.subcommand == "classify":
            base = Path(args.manifest).parent
            rows = [line.strip().split(",") for line in
                    Path(args.manifest).read_text(encoding="utf-8").splitlines()]
            features = [compute(load(base / path)) for path, _ in rows]
            result = st.bench.knn_accuracy(features, [label for _, label in rows],
                                           train_frac=args.train_frac,
                                           repeats=args.repeats, seed=args.split_seed)
            st.bench.write_classification_csv(Path(args.manifest).stem, args.kind,
                                              args.method, result, buf)
        elif args.subcommand == "snapshots":
            with open(args.events, encoding="utf-8") as fh:
                series = st.load_snapshots(fh, args.granularity)
            rows = st.bench.snapshot_distance_series(series, args.kind, args.method,
                                                     grid=grid, cfg=cfg, k=args.k,
                                                     threads=args.threads)
            st.bench.write_snapshot_csv(rows, buf)
        elif args.subcommand == "bench-error":
            graphs = [(Path(p).name, load(p)) for p in args.inputs]
            rows = st.bench.error_benchmark(graphs, args.kind, args.methods.split(","),
                                            grid=grid, cfg=cfg, k=args.k,
                                            threads=args.threads)
            st.bench.write_error_csv(rows, buf)
        else:
            raise ValueError(f"no library route for {args.subcommand!r}")
    except (st.errors.ConvergenceError, st.errors.TridiagonalEigenError) as exc:
        return 2, str(exc)
    return 0, buf.getvalue()


def trace(name: str, scale_name: str, work: Path, seed: int) -> dict:
    scale = wl.TINY if scale_name == "tiny" else wl.FULL
    workload = wl.workloads(scale)[name]
    # each distinct invocation once
    cycle = list({inv.key: inv for inv in workload.cycle(work)}.values())
    problems: list[str] = []

    # The inputs are written here, traced, for the busy times of the
    # generator and the writer; the cycle below reads them.
    setup_tracer = tracing.Tracer()
    tracing.install(setup_tracer, st)
    try:
        for step in workload.steps(work, seed):
            run_step(step)
    finally:
        setup_tracer.restore()

    # The library pass also completes lazy imports, which would otherwise
    # land in the untraced wall or in some layer's self time.
    library = [library_output(list(inv.argv)) for inv in cycle]

    def cli_pass(tracer: tracing.Tracer | None) -> tuple[list[int], float]:
        codes = []
        start = time.perf_counter()
        for inv in cycle:
            with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                codes.append(st.cli.main(list(inv.argv)))
        return codes, time.perf_counter() - start

    _, untraced_wall = cli_pass(None)
    cycle_tracer = tracing.Tracer()
    tracing.install(cycle_tracer, st)
    try:
        codes, traced_wall = cli_pass(cycle_tracer)
    finally:
        cycle_tracer.restore()
    leftovers = tracing.leftover_wrappers(st)
    if leftovers:
        problems.append("wrappers left installed: " + ", ".join(leftovers))

    failed = 0
    for inv, code, (lib_code, lib_text) in zip(cycle, codes, library):
        if code != 0:
            # a clean failure counts as failed; incorrect only if the
            # library succeeded where the CLI did not
            failed += 1
            if lib_code == 0:
                problems.append(f"{inv.key}: CLI exited {code}, library succeeded")
            continue
        text = Path(inv.output).read_text(encoding="utf-8")
        problem = inv.check(text)
        if problem:
            failed += 1
            problems.append(f"{inv.key}: {problem}")
        elif lib_code != 0 or inv.normalize(text) != inv.normalize(lib_text):
            failed += 1
            problems.append(f"{inv.key}: CLI output differs from the library's")

    metrics = tracing.layer_metrics(cycle_tracer, traced_wall)
    # The set-up is traced apart from the cycle, whose wall time its spans
    # are not part of.
    setup = tracing.layer_metrics(setup_tracer, 0.0)
    for key in ("graphs.erdos_renyi.busy_s", "graphs.write_edge_list.busy_s"):
        metrics[key] = setup[key]
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    spans_path = ROOT / ".perfbench_work" / f"spans-{name}.json"
    spans_path.write_text(json.dumps(
        [[s.name, s.start, s.end, s.parent, s.thread] for s in cycle_tracer.spans]))
    return {
        "metrics": metrics,
        "absent": sorted(set(cycle_tracer.absent) | set(setup_tracer.absent)),
        "attempted": len(cycle),
        "failed": failed,
        "problems": problems,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "environment": environment(),
    }


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "corpus":
        wl.write_corpus(Path(rest[0]), int(rest[1]), int(rest[2]), st.graphs)
        return 0
    if mode == "panel":
        result = panel()
        result["environment"] = environment()
    elif mode == "trace":
        result = trace(rest[0], rest[1], Path(rest[2]), int(rest[3]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
