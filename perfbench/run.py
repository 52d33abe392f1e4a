"""spectrace benchmark: closed-loop CLI workloads and a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` sets the workload's inputs up from the seed (three times, to
time set-up), then runs the workload's cycle of ``python -m spectrace.cli``
invocations as a closed loop with one client, whole cycles until S seconds
have passed, checking every output. An untraced accuracy pass follows. The
last stdout line is JSON with the end-to-end metrics.

``--trace 1`` times interpreter start plus ``import spectrace.cli`` in
child processes; then one interpreter sets the inputs up once, traced, and
runs one cycle three times: through the library, through
``spectrace.cli.main`` untraced, and through ``spectrace.cli.main`` with
wrappers around each layer's functions. The last stdout line is JSON with
the per-layer metrics. Human-readable tables precede it.

``--workload all`` runs every workload in turn and ends with one JSON
object keyed by workload name.

The benchmark builds nothing: it imports spectrace from the checkout's
``src`` and exits non-zero without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 3
STARTUP_REPS = 3
# A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "desc_per_s": "1/s",
    "desc_s_p50": "s",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "netlsd_rel_err": "ratio",
    "vnge_rel_err": "ratio",
    "knn_acc_netlsd": "ratio",
    "knn_acc_vnge": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed invocation)."""


@dataclass(frozen=True)
class Sample:
    key: str
    seconds: float
    exit_code: int
    units: int
    rss_kb: int
    problem: str | None = None  # an output that failed its check
    error: str = ""  # last stderr line of a non-zero exit

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.problem is None

    @property
    def latency(self) -> float:
        """Wall time of a successful invocation; +inf for a failed one."""
        return self.seconds if self.ok else math.inf


def tail_percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile, or None unless ``TAIL_MIN_BEYOND`` samples
    lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < TAIL_MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def summarize(samples: list[Sample], wall: float) -> dict[str, float | None]:
    """End-to-end loop metrics; failed invocations count as +inf latency."""
    latencies = [s.latency for s in samples]
    failed = sum(not s.ok for s in samples)
    return {
        "attempted": len(samples),
        "failed": failed,
        "fail_frac": failed / len(samples),
        "success_frac": 1.0 - failed / len(samples),
        "desc_per_s": sum(s.units for s in samples if s.ok) / wall,
        "desc_s_p50": statistics.median(latencies),
        "desc_s_p90": tail_percentile(latencies, 0.9),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024.0,
    }


# -- child processes --------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, int, int]:
    """Run argv to completion; (wall seconds, exit code, peak RSS in KiB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def spectrace_argv(args) -> list[str]:
    return [sys.executable, "-m", "spectrace.cli", *args]


def inproc(args: list[str]) -> dict:
    """Run perfbench/inproc.py; the JSON on its last stdout line, if any."""
    proc = subprocess.run([sys.executable, str(HERE / "inproc.py"), *args], cwd=ROOT,
                          env=child_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchmarkError(f"inproc {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_steps(steps: list[wl.Step], work: Path) -> None:
    for step in steps:
        if step.kind == "cli":
            _, code, _ = spawn(spectrace_argv(step.args), work / "setup.log")
            if code != 0:
                raise BenchmarkError(f"set-up failed: spectrace {' '.join(step.args)}: "
                                     + (work / "setup.log").read_text(errors="replace"))
        elif step.kind == "corpus":
            directory, seed, count = step.args
            inproc(["corpus", directory, str(seed), str(count)])
        elif step.kind == "events":
            path, *rest = step.args
            wl.write_events(Path(path), *rest)
        else:
            raise BenchmarkError(f"unknown set-up step {step.kind!r}")


def set_up(workload: wl.Workload, work: Path, seed: int, reps: int) -> list[float]:
    """Build the inputs ``reps`` times from scratch; the wall time of each."""
    times = []
    for _ in range(reps):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        run_steps(workload.steps(work, seed), work)
        times.append(time.perf_counter() - start)
    return times


# -- closed loop ------------------------------------------------------------

def closed_loop(cycle: list[wl.Invocation], seconds: float, work: Path) -> tuple[list[Sample], float]:
    """Whole cycles of invocations, one at a time, until ``seconds`` passed.

    Each output must pass its check and, when an invocation repeats, equal
    its first output after normalization.
    """
    samples: list[Sample] = []
    first: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        for inv in cycle:
            Path(inv.output).unlink(missing_ok=True)
            log = work / f"{inv.key}.log"
            wall, code, rss = spawn(spectrace_argv(inv.argv), log)
            problem, error = None, ""
            if code == 0:
                text = Path(inv.output).read_text(encoding="utf-8")
                problem = inv.check(text)
                norm = inv.normalize(text)
                if problem is None and first.setdefault(inv.key, norm) != norm:
                    problem = "output differs from the first repetition"
            else:
                lines = log.read_text(errors="replace").strip().splitlines()
                error = lines[-1] if lines else ""
            samples.append(Sample(inv.key, wall, code, inv.units, rss, problem, error))
        if time.perf_counter() - start >= seconds:
            return samples, time.perf_counter() - start


# -- report -----------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def environment_lines(env: dict) -> list[str]:
    return ["environment: " + ", ".join(f"{k}={_fmt(v)}" for k, v in env.items())]


def layer_table(workload: wl.Workload, metrics: dict, absent: list[str]) -> list[str]:
    wall = metrics["trace.traced_wall_s"]
    lines = [f"per-layer self time, {workload.name} (traced in-process wall "
             f"{wall:.3f} s; untraced {metrics['trace.untraced_wall_s']:.3f} s, so "
             f"tracing overhead {metrics['trace.overhead_s']:+.3f} s)",
             f"  {'layer':<12} {'self_s':>9} {'share':>7}  should move"]
    for layer in tracing.LAYERS:
        lines.append(f"  {layer:<12} {metrics[layer + '.layer_self_s']:>9.3f} "
                     f"{metrics[layer + '.self_share']:>7.1%}  {workload.moves[layer]}")
    total = sum(metrics[layer + ".layer_self_s"] for layer in tracing.LAYERS)
    lines.append(f"  {'sum':<12} {total:>9.3f} {total / wall if wall else 0:>7.1%}  "
                 f"(union {metrics['trace.accounted_s']:.3f} s)")
    if absent:
        lines.append("  absent (reported as 0): " + ", ".join(absent))
    return lines


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".self_share", ".busy_over_wall")):
        return "ratio"
    if name.endswith(".clamp_max"):
        return "1"
    return "count"


# -- one run ----------------------------------------------------------------

def run_trace0(workload, seed, seconds, work, report) -> dict:
    setup = set_up(workload, work, seed, SETUP_REPS)
    samples, wall = closed_loop(workload.cycle(work), seconds, work)
    loop = summarize(samples, wall)
    start = time.perf_counter()
    panel = inproc(["panel"])
    panel_wall = time.perf_counter() - start
    report += environment_lines(panel.pop("environment"))
    report.append(f"closed loop, 1 client: {loop['attempted']} invocations in {wall:.3f} s")
    by_key: dict[str, list[Sample]] = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s)
    for key, group in by_key.items():
        times = ", ".join(f"{s.seconds:.3f}" + ("" if s.ok else
                          f" (exit {s.exit_code}: {s.problem or s.error})") for s in group)
        report.append(f"  {key}: {times}")
    p90 = loop["desc_s_p90"]
    report.append(f"  desc_s_p90: " + (f"{p90:.6g} s" if p90 is not None else
                  f"omitted, {loop['attempted']} samples leave fewer than 10 beyond p90"))
    report.append(f"  fail_frac: {loop['fail_frac']:.6g} "
                  f"({loop['failed']} of {loop['attempted']})")
    metrics = {
        "desc_per_s": loop["desc_per_s"],
        "desc_s_p50": loop["desc_s_p50"],
        "success_frac": loop["success_frac"],
        "peak_rss_mb": loop["peak_rss_mb"],
        "setup_s": statistics.median(setup),
        **{k: panel[k] for k in ("netlsd_rel_err", "vnge_rel_err",
                                 "knn_acc_netlsd", "knn_acc_vnge")},
    }
    report.append(f"setup: {', '.join(f'{t:.3f}' for t in setup)} s; "
                  f"untimed accuracy pass: {panel_wall:.3f} s")
    report.append(f"end-to-end metrics, {workload.name} "
                  f"(p50 over {loop['attempted']} samples; accuracy on the fixed "
                  f"{wl.PANEL_GRAPHS}-graph panel):")
    for name, value in metrics.items():
        report.append(f"  {name} = {_fmt(value)} {END_TO_END_UNITS[name]}")
    problems = [f"{s.key}: {s.problem}" for s in samples if s.problem]
    report += [f"CHECK FAILED {p}" for p in problems]
    return {"correct": not problems, "attempted": loop["attempted"],
            "failed": loop["failed"],
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def run_trace1(workload, seed, scale_name, work, report) -> dict:
    # inproc.py sets the inputs up in ``work`` itself, traced
    work.mkdir(parents=True)
    startup = [spawn([sys.executable, "-c", "import spectrace.cli"], work / "startup.log")
               for _ in range(STARTUP_REPS)]
    if any(code != 0 for _, code, _ in startup):
        raise BenchmarkError("import spectrace.cli failed: "
                             + (work / "startup.log").read_text(errors="replace"))
    traced = inproc(["trace", workload.name, scale_name, str(work), str(seed)])
    report += environment_lines(traced["environment"])
    metrics = traced["metrics"]
    metrics["cli.startup_s"] = statistics.median(wall for wall, _, _ in startup)
    report += layer_table(workload, metrics, traced["absent"])
    report.append(f"  in-process wall not covered by any span: "
                  f"{metrics['trace.traced_wall_s'] - metrics['trace.accounted_s']:.6f} s")
    report.append("  operators.matvec.flops and .bytes are computed from CSR sizes, not "
                  f"measured; the last-level cache holds {traced['environment']['llc_bytes']} "
                  "bytes, so no bandwidth figure is claimed")
    report.append(f"spans written to {traced['spans_file']}")
    report.append("per-layer metrics:")
    for name, value in metrics.items():
        report.append(f"  {name} = {_fmt(value)} {per_layer_units(name)}")
    report += [f"CHECK FAILED {p}" for p in traced["problems"]]
    return {"correct": not traced["problems"], "attempted": traced["attempted"], "failed": traced["failed"],
            "metrics": {k: {"value": v, "unit": per_layer_units(k)} for k, v in metrics.items()}}


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: wl.Scale = wl.FULL) -> tuple[dict, list[str]]:
    """One benchmark run; (result object, report lines)."""
    if not (ROOT / "src" / "spectrace" / "cli.py").is_file():
        raise BenchmarkError(f"no spectrace sources under {ROOT / 'src'}")
    workload = wl.workloads(scale)[name]
    scale_name = "tiny" if scale == wl.TINY else "full"
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    report = [f"workload {name}: {workload.why}"]
    try:
        if trace:
            result = run_trace1(workload, seed, scale_name, work, report)
        else:
            result = run_trace0(workload, seed, seconds, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(wl.workloads()), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(wl.workloads()) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], report = run(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
