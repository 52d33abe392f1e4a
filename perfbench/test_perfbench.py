"""Tests of the benchmark's own logic; run with
``python3 -m pytest perfbench/test_perfbench.py``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def sample(seconds, code=0, problem=None, units=1):
    return run.Sample("k", seconds, code, units, 1024, problem)


def test_failed_invocation_is_inf_latency_and_counts_in_fail_frac():
    samples = [sample(1.0), sample(2.0), sample(0.5, code=2),
               sample(0.7, problem="netlsd increases in t")]
    loop = run.summarize(samples, wall=4.2)
    assert [s.latency for s in samples] == [1.0, 2.0, math.inf, math.inf]
    assert loop["failed"] == 2 and loop["attempted"] == 4
    assert loop["fail_frac"] == 0.5 and loop["success_frac"] == 0.5
    assert loop["desc_s_p50"] == math.inf  # median of 1, 2, inf, inf
    assert loop["desc_per_s"] == pytest.approx(2 / 4.2)
    assert run.summarize(samples[:3], wall=1.0)["desc_s_p50"] == 2.0


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(i) for i in range(99)], 0.9) is None
    assert run.tail_percentile([float(i) for i in range(100)], 0.9) == 89.0
    assert run.summarize([sample(1.0)] * 50, wall=50.0)["desc_s_p90"] is None


def test_self_time_is_span_minus_union_of_overlapping_children():
    t = tracing.Tracer()
    t.spans = [
        tracing.Span("slq.slq_trace_grid", 0.0, 10.0, None, 1),
        tracing.Span("lanczos.tridiagonalize", 1.0, 5.0, 0, 2),  # worker thread A
        tracing.Span("lanczos.tridiagonalize", 3.0, 7.0, 0, 3),  # worker thread B
        tracing.Span("operators.matvec", 2.0, 4.0, 1, 2),
    ]
    assert tracing.self_intervals(t.spans[0], t.spans[1:3]) == [(0.0, 1.0), (7.0, 10.0)]
    m = tracing.layer_metrics(t, wall=10.0)
    assert m["slq.self_s"] == pytest.approx(4.0)  # 10 - |[1, 7]|, not 10 - 8
    # thread A's span loses [2, 4] to its matvec; B keeps [3, 7]: union [1, 2] + [3, 7]
    assert m["lanczos.tridiagonalize.self_s"] == pytest.approx(5.0)
    assert m["lanczos.tridiagonalize.busy_s"] == pytest.approx(8.0)
    assert m["slq.busy_over_wall"] == pytest.approx(0.8)
    assert m["trace.accounted_s"] == pytest.approx(10.0)


def test_worker_thread_spans_attach_to_the_open_slq_span():
    t = tracing.Tracer()
    with t.span("slq.slq_trace", adopt=True):
        worker = threading.Thread(target=_open_close, args=(t, "lanczos.tridiagonalize"))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    with t.span("cli.main"):
        pass
    assert [s.parent for s in t.spans] == [None, 0, None]
    assert t.spans[1].thread != t.spans[0].thread


def _open_close(t, name):
    with t.span(name):
        pass


def _wrapped_sites(st):
    return [(st.cli, "parse_edge_list"), (st.cli, "load_snapshots"),
            (st.slq, "lanczos_tridiagonalize"), (st.slq, "quadrature_rule"),
            (st.descriptors, "make_operator"), (st.descriptors, "slq_trace_grid"),
            (st.descriptors, "netlsd_slq"), (st.bench, "knn_accuracy"),
            (st.graphs.Graph, "content_hash")]


def test_wrappers_are_restored_and_counters_recorded():
    import spectrace as st
    import spectrace.cli  # noqa: F401

    before = {(id(o), a): getattr(o, a) for o, a in _wrapped_sites(st)}
    t = tracing.Tracer()
    tracing.install(t, st)
    try:
        assert all(getattr(o, a) is not before[(id(o), a)] for o, a in _wrapped_sites(st))
        assert "spectrace.slq.lanczos_tridiagonalize" in tracing.leftover_wrappers(st)
        g = st.erdos_renyi(60, 4.0, 0)
        st.bench.compute_descriptor(g, "netlsd", "slq", st.TimeGrid(count=8),
                                    st.SlqConfig(n_v=4, s=5), 300, 2)
    finally:
        t.restore()
    assert all(getattr(o, a) is before[(id(o), a)] for o, a in _wrapped_sites(st))
    assert tracing.leftover_wrappers(st) == [] and t.absent == []
    m = tracing.layer_metrics(t, wall=1.0)
    assert m["slq.quadrature_evals"] == 4 * 8
    assert m["lanczos.tridiagonalize.calls"] == 4
    assert m["operators.matvec.calls"] == m["lanczos.steps.total"] == 20
    assert m["descriptors.calls"] == 1


def test_missing_call_site_is_reported_absent(monkeypatch):
    import spectrace as st
    import spectrace.cli  # noqa: F401

    monkeypatch.delattr(st.slq, "lanczos_tridiagonalize")
    t = tracing.Tracer()
    tracing.install(t, st)
    t.restore()
    assert "lanczos.tridiagonalize" in t.absent
    assert not hasattr(st.slq, "lanczos_tridiagonalize")
    assert tracing.layer_metrics(t, wall=1.0)["lanczos.tridiagonalize.calls"] == 0


def test_closed_loop_counts_a_failing_invocation(tmp_path):
    out = str(tmp_path / "out.json")
    argv = ("descriptor", "--input", str(tmp_path / "missing.tsv"), "--kind", "vnge",
            "--output", out)
    inv = wl.Invocation("missing", argv, out, 1, wl.check_vnge(10))
    samples, wall = run.closed_loop([inv], 0.0, tmp_path)
    assert len(samples) == 1 and samples[0].exit_code == 2
    assert "No such file" in samples[0].error
    assert run.summarize(samples, wall)["fail_frac"] == 1.0


def test_output_checks():
    grid = {"t_min": 0.01, "t_max": 100.0, "count": 3}
    netlsd = wl.check_netlsd(10)
    assert netlsd(json.dumps({"kind": "netlsd", "grid": grid, "values": [9.0, 5.0, 1.0]})) is None
    assert "increases" in netlsd(json.dumps({"kind": "netlsd", "grid": grid,
                                             "values": [9.0, 9.5, 1.0]}))
    assert "exceeds" in netlsd(json.dumps({"kind": "netlsd", "grid": grid,
                                           "values": [11.0, 5.0, 1.0]}))
    assert wl.check_vnge(10)(json.dumps({"kind": "vnge", "value": 2.0})) is None
    assert "outside" in wl.check_vnge(10)(json.dumps({"kind": "vnge", "value": 2.4}))
    rows = wl.check_rows(2, ("index", "distance"), ("distance",))
    assert rows("# echo\nindex,distance\n0,0.0\n1,0.5\n") is None
    assert "expected 2 rows" in rows("index,distance\n0,0.0\n")
    assert wl.drop_seconds("# x\ng,slq,vnge,0.1,0.25\n") == "g,slq,vnge,0.1\n"
    vnge_table = next(inv for inv in wl.workloads(wl.TINY)["baselines"].cycle(Path("w"))
                      if inv.key.startswith("vnge"))
    errors = ["0.01", "0.02", "np.float64(0.3)", "np.float64(0.4)"]
    table = "graph,method,kind,rel_error,seconds\n" + "".join(
        f"g,{m},vnge,{e},0.1\n" for m, e in zip(wl.VNGE_METHODS, errors))
    assert vnge_table.check(table) is None
    assert "rel_error is not finite" in vnge_table.check(table.replace("0.02", "nan"))
    assert "not a number" in vnge_table.check(table.replace("0.02", "skipped"))


def test_benchmark_json_names_what_the_runs_report():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(wl.workloads())
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in BENCHMARK["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]] and m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(wl.workloads(wl.TINY)))
def test_tiny_workload_end_to_end(name):
    result, report = run.run(name, seed=3, seconds=0.0, trace=False, scale=wl.TINY)
    assert result["correct"], report
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(wl.workloads(wl.TINY)))
def test_tiny_workload_traced(name):
    result, report = run.run(name, seed=3, seconds=0.0, trace=True, scale=wl.TINY)
    assert result["correct"], report
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # the union of self intervals covers the traced wall time
    assert m["trace.accounted_s"] == pytest.approx(m["trace.traced_wall_s"], abs=1e-3)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "baselines",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
