"""Command-line surface: subcommands, exit codes, byte determinism."""

import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectrace
from spectrace import _scipy, bench, erdos_renyi, operators
from spectrace.cli import build_parser, main

from conftest import read_table


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.tsv"
    path.write_text("0 1\n")
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.tsv"
    path.write_text("0 1\n1 2\n")
    return str(path)


MISSING = "/nonexistent/x.tsv"
# Each subcommand's arguments before one flag under test; a repeated flag
# takes its last value.
USAGE_PREFIX = {
    "descriptor": ["descriptor", "--input", MISSING, "--kind", "netlsd"],
    "generate": ["generate", "er", "--n", "5", "--avg-degree", "4"],
    "snapshots": ["snapshots", "--events", MISSING, "--kind", "vnge", "--granularity", "1"],
    "classify": ["classify", "--manifest", MISSING, "--kind", "vnge"],
}


def _usage_case(subcommand, flag, value, id=None, before=()):
    """One usage-error case; ``before`` holds flags placed ahead of the one under test."""
    return pytest.param(subcommand, flag, value, list(before), id=id or f"{flag}-{value}")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDescriptor:
    def test_k2_vnge_exact_is_zero(self, capsys, k2_file, tmp_path):
        out_path = tmp_path / "desc.json"
        code, _, _ = run(capsys, "descriptor", "--input", k2_file, "--kind", "vnge",
                         "--method", "exact", "--output", str(out_path))
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["kind"] == "vnge"
        assert abs(obj["value"]) < 1e-12
        assert obj["method"] == "exact"

    @pytest.mark.parametrize("method", ["exact", "finger-hat", "finger-bar"])
    def test_k2_zero_entropy_is_positive_zero(self, capsys, k2_file, method):
        code, out, _ = run(capsys, "descriptor", "--input", k2_file, "--kind", "vnge",
                           "--method", method)
        assert code == 0
        assert '"value": 0.0\n' in out

    def test_netlsd_json_to_stdout(self, capsys, p3_file):
        code, out, _ = run(capsys, "descriptor", "--input", p3_file, "--kind",
                           "netlsd", "--method", "slq", "--grid-points", "8",
                           "--t-min", "0.1", "--t-max", "10")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["values"]) == 8
        assert obj["seed"] == 0
        assert obj["params"]["n_v"] == 100

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
        code, out, _ = run(capsys, "descriptor", "--input", "-", "--kind", "vnge",
                           "--method", "exact")
        assert code == 0
        assert json.loads(out)["kind"] == "vnge"


class TestCompare:
    def test_same_graph_zero(self, capsys, p3_file):
        code, out, _ = run(capsys, "compare", "--a", p3_file, "--b", p3_file,
                           "--kind", "netlsd", "--method", "exact")
        assert code == 0
        assert float(out.strip()) == 0.0


class TestGenerate:
    def test_complete_graph(self, capsys, tmp_path):
        out_path = tmp_path / "k5.tsv"
        code, _, _ = run(capsys, "generate", "er", "--n", "5", "--avg-degree", "4",
                         "--seed", "1", "--output", str(out_path))
        assert code == 0
        lines = [l for l in out_path.read_text().splitlines() if l.strip()]
        assert len(lines) == 10

    def test_deterministic_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for p in paths:
            code, _, _ = run(capsys, "generate", "er", "--n", "50", "--avg-degree",
                             "5", "--seed", "3", "--output", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestBenchError:
    def test_csv_output(self, capsys, p3_file, tmp_path):
        out_path = tmp_path / "err.csv"
        code, _, _ = run(capsys, "bench-error", "--inputs", p3_file, "--kind",
                         "vnge", "--methods", "slq,taylor", "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# spectrace bench-error ")
        assert lines[1] == "graph,method,kind,rel_error,seconds"
        assert len(lines) == 4

    def test_unknown_method_is_usage_error(self, capsys, p3_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["bench-error", "--inputs", p3_file, "--kind", "vnge",
                  "--methods", "magic"])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "--methods" in err and "magic" in err

    @pytest.mark.parametrize("argv", [
        ["descriptor", "--input", "/nonexistent/x.tsv", "--kind", "netlsd",
         "--method", "finger-hat"],
        ["bench-error", "--inputs", "/nonexistent/x.tsv", "--kind", "netlsd",
         "--methods", "slq,finger-bar"],
    ], ids=["descriptor", "bench-error"])
    def test_kind_method_mismatch_is_usage_error_before_input(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert argv[-2] in err and "finger-" in err
        assert "nonexistent" not in err

    def test_method_flag_is_usage_error(self, capsys):
        # bench-error reads --methods only: a stray --method is refused, not
        # taken as an abbreviation of --methods
        with pytest.raises(SystemExit) as exc_info:
            main(["bench-error", "--inputs", "/nonexistent/x.tsv", "--kind", "vnge",
                  "--methods", "exact", "--method", "taylor"])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "--method taylor" in err and "nonexistent" not in err


class TestSnapshots:
    def test_csv_output(self, capsys, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("0 add 0 1\n1 add 2 3\n")
        out_path = tmp_path / "snap.csv"
        code, _, _ = run(capsys, "snapshots", "--events", str(events),
                         "--granularity", "1", "--kind", "vnge", "--method",
                         "exact", "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1] == "index,distance,added,removed"
        assert lines[2] == "0,0.0,1,0"

    def test_weighted_is_usage_error(self, capsys, tmp_path):
        # event lines carry no weight, so snapshots has no --weighted
        events = tmp_path / "events.txt"
        events.write_text("0 add 0 1\n")
        with pytest.raises(SystemExit) as exc_info:
            main(["snapshots", "--events", str(events), "--granularity", "1",
                  "--kind", "vnge", "--method", "exact", "--weighted"])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("usage: spectrace snapshots ")
        assert "unrecognized arguments: --weighted" in err

    def test_comment_prefix_is_read(self, capsys, tmp_path):
        # a commented stream gives the CSV of the same stream without comments
        stream = "{c} header\n0 add 0 1\n{c} between\n1 add 2 3\n2 add 1 2\n"
        outputs = []
        for prefix, text in [("#", stream.replace("{c}", "#")),
                             ("#", "0 add 0 1\n1 add 2 3\n2 add 1 2\n"),
                             ("%", stream.replace("{c}", "%"))]:
            events = tmp_path / f"events{len(outputs)}.txt"
            events.write_text(text)
            code, out, _ = run(capsys, "snapshots", "--events", str(events),
                               "--granularity", "1", "--kind", "vnge", "--method",
                               "exact", "--comment-prefix", prefix)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].splitlines()) == 5

    @staticmethod
    def _distances(capsys, tmp_path, text, method):
        events = tmp_path / "events.txt"
        events.write_text(text)
        code, out, err = run(capsys, "snapshots", "--events", str(events), "--granularity",
                             "1", "--kind", "vnge", "--method", method)
        assert code == 0 and err == ""
        return [line.split(",")[1] for line in out.splitlines()[2:]]

    @pytest.mark.parametrize("method", ["slq", "taylor", "exact"])
    def test_snapshot_without_edges_has_nan_distance(self, capsys, tmp_path, method):
        # bucket 1 deletes the only edge, which leaves the entropy undefined
        distances = self._distances(capsys, tmp_path, "0 add 0 1\n1 del 0 1\n2 add 1 2\n",
                                    method)
        assert distances[0] == "0.0" and distances[1] == "nan"
        assert math.isfinite(float(distances[2]))

    def test_first_snapshot_without_edges_makes_every_distance_nan(self, capsys, tmp_path):
        # the delete of an absent edge leaves bucket 0 without edges
        distances = self._distances(capsys, tmp_path, "0 del 0 1\n1 add 0 1\n2 add 1 2\n",
                                    "exact")
        assert distances == ["nan", "nan", "nan"]

    def test_other_descriptor_errors_still_fail(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("spectrace.operators.DENSE_SPECTRUM_CAP", 2)
        events = tmp_path / "events.txt"
        events.write_text("0 add 0 1\n1 del 0 1\n2 add 1 2\n")
        code, out, err = run(capsys, "snapshots", "--events", str(events), "--granularity",
                             "1", "--kind", "vnge", "--method", "exact")
        assert code == 2 and out == ""
        assert "dense spectrum refused: n=3 exceeds cap 2" in err

    def test_span_beyond_bucket_limit_is_data_error(self, capsys, tmp_path):
        # the quotient 1e300 / 1e-10 is infinite, so no bucket number exists
        events = tmp_path / "events.txt"
        events.write_text("0 add 0 1\n1e300 add 1 2\n")
        code, out, err = run(capsys, "snapshots", "--events", str(events),
                             "--granularity", "1e-10", "--kind", "vnge")
        assert code == 2 and out == ""
        assert "inf buckets" in err and "BUCKET_LIMIT" in err


class TestByteOrderMark:
    """An input that starts with a UTF-8 byte-order mark, read from a file or
    from stdin, gives the output of its copy without one."""

    CASES = {
        "edge-list": ({"g.tsv": "0 1\n1 2\n"},
                      ["descriptor", "--input", "g.tsv", "--kind", "vnge"]),
        "commented-edge-list": ({"g.tsv": "# header\n0 1\n1 2\n"},
                                ["descriptor", "--input", "g.tsv", "--kind", "vnge"]),
        "events": ({"events.txt": "0 add 0 1\n1 add 2 3\n"},
                   ["snapshots", "--events", "events.txt", "--granularity", "1",
                    "--kind", "vnge"]),
        "commented-events": ({"events.txt": "# header\n0 add 0 1\n1 add 2 3\n"},
                             ["snapshots", "--events", "events.txt", "--granularity", "1",
                              "--kind", "vnge"]),
        "manifest": ({"data.csv": "# path,label\na0.tsv,a\na1.tsv,a\nb0.tsv,b\nb1.tsv,b\n",
                      "a0.tsv": "0 1\n", "a1.tsv": "0 1\n1 2\n0 2\n",
                      "b0.tsv": "0 1\n1 2\n", "b1.tsv": "0 1\n1 2\n2 3\n"},
                     ["classify", "--manifest", "data.csv", "--kind", "vnge",
                      "--repeats", "5"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_output_as_without_mark(self, capsys, monkeypatch, tmp_path, case):
        files, argv = self.CASES[case]
        first = next(iter(files))  # the input the subcommand's flag names
        for source in ("file", "stdin"):
            outputs = []
            for mark in ("", "\ufeff"):
                folder = tmp_path / source / ("marked" if mark else "plain")
                folder.mkdir(parents=True)
                for name, text in files.items():
                    (folder / name).write_text(mark + text, encoding="utf-8")
                paths = {name: str(folder / name) for name in files}
                if source == "stdin":
                    # a manifest on stdin resolves its graph paths against
                    # the working directory
                    monkeypatch.chdir(folder)
                    monkeypatch.setattr("sys.stdin", io.StringIO(mark + files[first]))
                    paths[first] = "-"
                code, out, err = run(capsys, *[paths.get(a, a)
                                               for a in argv + ["--method", "exact"]])
                assert code == 0 and err == "", source
                outputs.append(out)
            assert outputs[0] == outputs[1] != "", source
        assert (tmp_path / "file" / "marked" / first).read_bytes()[:3] == b"\xef\xbb\xbf"


class TestCsvNames:
    """A graph or manifest name that holds a comma or a quote comes back
    unchanged, in its own column, when a table is read as the benchmark
    reads it."""

    def test_bench_error_graph_name(self, capsys, tmp_path):
        graph, out = tmp_path / 'a,"b".tsv', tmp_path / "error.csv"
        graph.write_text("0 1\n1 2\n")
        code, _, err = run(capsys, "bench-error", "--inputs", str(graph), "--kind", "vnge",
                           "--methods", "exact,taylor", "--output", str(out))
        assert code == 0 and err == ""
        assert [row["graph"] for row in read_table(out.read_text())] == [graph.name] * 2

    def test_classify_manifest_name(self, capsys, tmp_path):
        for name, text in [("a0.tsv", "0 1\n"), ("a1.tsv", "0 1\n1 2\n0 2\n"),
                           ("b0.tsv", "0 1\n1 2\n"), ("b1.tsv", "0 1\n1 2\n2 3\n")]:
            (tmp_path / name).write_text(text)
        manifest, out = tmp_path / "m,1.csv", tmp_path / "acc.csv"
        manifest.write_text("a0.tsv,a\na1.tsv,a\nb0.tsv,b\nb1.tsv,b\n")
        code, _, err = run(capsys, "classify", "--manifest", str(manifest), "--kind", "vnge",
                           "--method", "exact", "--repeats", "5", "--output", str(out))
        assert code == 0 and err == ""
        [row] = read_table(out.read_text())
        assert row["dataset"] == "m,1"


class TestClassify:
    def test_manifest_flow(self, capsys, tmp_path):
        for name, text in [("a0.tsv", "0 1\n"), ("a1.tsv", "0 1\n1 2\n0 2\n"),
                           ("b0.tsv", "0 1\n1 2\n"), ("b1.tsv", "0 1\n1 2\n2 3\n")]:
            (tmp_path / name).write_text(text)
        manifest = tmp_path / "data.csv"
        manifest.write_text("a0.tsv,a\na1.tsv,a\nb0.tsv,b\nb1.tsv,b\n")
        out_path = tmp_path / "acc.csv"
        code, _, _ = run(capsys, "classify", "--manifest", str(manifest), "--kind",
                         "vnge", "--method", "exact", "--repeats", "50",
                         "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1] == "dataset,kind,method,mean_acc,std,repeats"
        assert lines[2].startswith("data,vnge,exact,")


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        assert "descriptor" in capsys.readouterr().out

    def test_subcommand_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["descriptor", "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--nv", "--steps", "--seed", "--t-min", "--t-max",
                     "--grid-points", "--k", "--threads"):
            assert flag in out
        assert "default: 100" in out  # n_v
        assert "default: 256" in out  # grid points

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["descriptor", "--nope"])
        assert exc_info.value.code == 1

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 1

    @pytest.mark.parametrize("subcommand, flag, value, before", [
        _usage_case("descriptor", "--threads", "0", id="0"),
        _usage_case("descriptor", "--threads", "-1", id="-1"),
        _usage_case("descriptor", "--nv", "0"),
        _usage_case("descriptor", "--steps", "0"),
        _usage_case("descriptor", "--grid-points", "0"),
        _usage_case("descriptor", "--k", "0"),
        _usage_case("descriptor", "--k", "-5"),
        _usage_case("generate", "--n", "0"),
        _usage_case("snapshots", "--granularity", "0"),
        _usage_case("snapshots", "--granularity", "-1"),
        _usage_case("snapshots", "--granularity", "nan"),
        _usage_case("snapshots", "--separator", ","),
        _usage_case("descriptor", "--comment-prefix", "", id="empty-comment-prefix"),
        _usage_case("snapshots", "--comment-prefix", "", id="snapshots-empty-comment-prefix"),
        _usage_case("descriptor", "--separator", "", id="empty-separator"),
        _usage_case("classify", "--train-frac", "0"),
        _usage_case("classify", "--train-frac", "1"),
        _usage_case("classify", "--train-frac", "1.5"),
        _usage_case("classify", "--train-frac", "nan"),
        _usage_case("generate", "--avg-degree", "-1"),
        _usage_case("generate", "--avg-degree", "4.5"),
        _usage_case("generate", "--avg-degree", "nan"),
        _usage_case("descriptor", "--seed", "-1"),
        _usage_case("generate", "--seed", "-3"),
        _usage_case("classify", "--split-seed", "-1"),
        _usage_case("descriptor", "--t-max", "inf"),
        _usage_case("snapshots", "--t-max", "inf", id="snapshots-netlsd-t-max-inf",
                    before=["--kind", "netlsd"]),
        _usage_case("descriptor", "--t-min", "inf", id="one-point-inf",
                    before=["--t-max", "inf", "--grid-points", "1"]),
    ])
    def test_nonpositive_threads_is_usage_error(self, capsys, subcommand, flag, value,
                                                before):
        # flag values that make no run exit 1 before any input is read, and
        # print the subcommand's usage
        with pytest.raises(SystemExit) as exc_info:
            main(USAGE_PREFIX[subcommand] + before + [flag, value])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith(f"usage: spectrace {subcommand} ")
        assert flag in err and "nonexistent" not in err

    @pytest.mark.parametrize("flags", [
        ["--t-min", "0"],
        ["--nv", "0"],
        ["--method", "finger-hat"],
    ], ids=["t-min", "nv", "method"])
    def test_usage_error_prints_subcommand_usage(self, capsys, flags):
        with pytest.raises(SystemExit) as exc_info:
            main(["descriptor", "--input", MISSING, "--kind", "netlsd"] + flags)
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("usage: spectrace descriptor ")
        assert "spectrace descriptor: error: argument" in err and flags[0] in err

    @pytest.mark.parametrize("subcommand", ["descriptor", "bench-error"])
    @pytest.mark.parametrize("flags", [
        ["--grid-points", "1", "--t-min", "1", "--t-max", "2"],
        ["--t-min", "0"],
        ["--t-max", "0.01"],
        ["--t-min", "5", "--t-max", "1"],
    ], ids=["one-point", "t-min-zero", "t-max-equal", "t-max-below"])
    def test_bad_grid_is_usage_error_before_input(self, capsys, subcommand, flags):
        with pytest.raises(SystemExit) as exc_info:
            main([subcommand, "--inputs" if subcommand == "bench-error" else "--input",
                  "/nonexistent/x.tsv", "--kind", "netlsd"] + flags)
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "--t-min" in err and "t_max" in err
        assert "nonexistent" not in err

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_nonpositive_repeats_is_usage_error(self, capsys, tmp_path, repeats):
        manifest = tmp_path / "data.csv"
        manifest.write_text("")
        with pytest.raises(SystemExit) as exc_info:
            main(["classify", "--manifest", str(manifest), "--kind", "vnge",
                  "--repeats", repeats])
        assert exc_info.value.code == 1
        assert "--repeats" in capsys.readouterr().err

    def test_empty_manifest_is_data_error(self, capsys, tmp_path):
        manifest = tmp_path / "data.csv"
        manifest.write_text("# no graphs\n")
        code, out, err = run(capsys, "classify", "--manifest", str(manifest),
                             "--kind", "vnge", "--method", "exact")
        assert code == 2
        assert out == ""
        assert "no features" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "descriptor", "--input", "/nonexistent/x.tsv",
                           "--kind", "vnge", "--method", "exact")
        assert code == 2
        assert "error" in err

    def test_malformed_input_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0 1 2 3 4\n")
        code, _, err = run(capsys, "descriptor", "--input", str(bad), "--kind",
                           "vnge", "--method", "exact")
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("line", ["0 4000000000", f"0 {2**63 + 5}"])
    def test_vertex_id_above_cap_is_data_error(self, tmp_path, line):
        bad = tmp_path / "big.tsv"
        bad.write_text(line + "\n")
        src = str(Path(spectrace.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "spectrace.cli", "descriptor", "--input", str(bad),
             "--kind", "vnge", "--method", "exact"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "line 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("method", ["taylor", "slq", "exact", "finger-hat", "finger-bar"])
    def test_denormal_weights_are_data_error(self, capsys, tmp_path, method):
        # tr(L) = 3e-323: 1 / tr(L) overflows and tr(L)^2 underflows to 0
        graph = tmp_path / "g.tsv"
        graph.write_text("0 1 5e-324\n1 2 5e-324\n2 0 5e-324\n")
        code, out, err = run(capsys, "descriptor", "--input", str(graph), "--kind", "vnge",
                             "--weighted", "--method", method)
        assert code == 2 and out == ""
        assert err.strip() == ("spectrace: error: density matrix undefined: "
                               "tr(L)=3e-323 is too small to normalize")

    @pytest.mark.parametrize("kind, method", [
        (kind, method) for kind in ("netlsd", "vnge") for method in bench.METHODS[kind]])
    def test_overflowing_weights_are_data_error(self, capsys, tmp_path, kind, method):
        # P3's middle degree sums to inf; a triangle of weight 1e200 has a
        # tr(L) of 6e200, whose square overflows
        graph = tmp_path / "g.tsv"
        graph.write_text("0 1 1e308\n1 2 1e308\n")
        argv = ["descriptor", "--input", str(graph), "--kind", kind, "--weighted",
                "--method", method, "--grid-points", "8", "--k", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.strip() == ("spectrace: error: weighted degree of vertex 1 is inf: "
                               "its edge weights sum past the float range")
        graph.write_text("0 1 1e200\n1 2 1e200\n2 0 1e200\n")
        code, out, err = run(capsys, *argv)
        if kind == "vnge":
            assert code == 2 and out == ""
            assert err.strip() == ("spectrace: error: density matrix undefined: "
                                   "tr(L)=6e+200 is too large to normalize")
        else:
            assert code == 0 and err == ""
            assert all(math.isfinite(v) for v in json.loads(out)["values"])

    def test_memory_error_is_data_error(self, capsys, monkeypatch, p3_file):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("spectrace.cli.parse_edge_list", exhausted)
        code, _, err = run(capsys, "descriptor", "--input", p3_file, "--kind",
                           "vnge", "--method", "exact")
        assert code == 2
        assert "MemoryError" in err

    def test_unmappable_dense_array_is_data_error(self, capsys, monkeypatch, p3_file):
        def enomem(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(operators.mmap, "mmap", enomem)
        with pytest.raises(MemoryError):
            operators.dense_spectrum(erdos_renyi(30, 4, 0), operators.OperatorKind.LAPLACIAN)
        code, out, err = run(capsys, "descriptor", "--input", p3_file, "--kind", "netlsd",
                             "--method", "exact")
        assert code == 2 and out == ""
        assert err.strip() == (f"spectrace: error: dense spectrum of n=3 cannot map 72 bytes: "
                               f"[Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}")


def test_estimator_never_imports_scipy_linalg():
    # only the exact and baseline routes need scipy.linalg; importing it
    # cost every CLI start about 70 ms and 8 MB of RSS
    src = str(Path(spectrace.__file__).resolve().parents[1])
    code = ("import sys, spectrace.cli\n"
            "from spectrace import erdos_renyi, netlsd_slq, vnge_slq\n"
            "g = erdos_renyi(300, 4, 1)\n"
            "netlsd_slq(g), vnge_slq(g)\n"
            "print('scipy.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def test_exact_descriptors_never_import_scipy_linalg(tmp_path):
    # dense_spectrum loads LAPACK's extension by file: importing
    # scipy.linalg added 22 MB to a bench-error child's peak
    src = str(Path(spectrace.__file__).resolve().parents[1])
    code = """
import sys
from spectrace.cli import main
folder = sys.argv[1]
assert main(['generate', 'er', '--n', '300', '--avg-degree', '4',
             '--output', f'{folder}/g.tsv']) == 0
for kind in ('netlsd', 'vnge'):
    assert main(['descriptor', '--input', f'{folder}/g.tsv', '--kind', kind,
                 '--method', 'exact', '--output', f'{folder}/{kind}.json']) == 0
print(sorted(name for name in sys.modules if name.startswith('scipy')))
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"
    for kind in ("netlsd", "vnge"):
        assert json.loads((tmp_path / f"{kind}.json").read_text())["method"] == "exact"


def test_descriptor_routes_never_import_scipy_sparse(tmp_path):
    # the operators' products run in scipy's compiled COO kernel, loaded by
    # file on every supported scipy, and the baselines' ARPACK likewise;
    # importing scipy.sparse costs about 0.2 s
    src = str(Path(spectrace.__file__).resolve().parents[1])
    for name, text in [("a0.tsv", "0 1\n1 2\n"), ("a1.tsv", "0 1\n1 2\n0 2\n"),
                       ("b0.tsv", "0 1\n1 2\n2 3\n"), ("b1.tsv", "0 1\n1 2\n2 3\n3 0\n")]:
        (tmp_path / name).write_text(text)
    (tmp_path / "data.csv").write_text("a0.tsv,a\na1.tsv,a\nb0.tsv,b\nb1.tsv,b\n")
    (tmp_path / "events.txt").write_text("0 add 0 1\n1 add 1 2\n2 add 2 0\n")
    code = """
import sys
from spectrace.cli import main
folder = sys.argv[1]
def loaded(*argv, name=None):
    assert not argv or main([*argv, '--output', f'{folder}/{name or argv[0]}.out']) == 0
    return 'scipy.sparse' in sys.modules
print(loaded())
print(loaded('generate', 'er', '--n', '300', '--avg-degree', '4'))
graph = f'{folder}/generate.out'
for kind in ('netlsd', 'vnge'):
    for method in ('taylor', 'exact'):
        print(loaded('descriptor', '--input', graph, '--kind', kind, '--method', method))
print(loaded('descriptor', '--input', graph, '--kind', 'netlsd'))
print(loaded('descriptor', '--input', graph, '--kind', 'vnge'))
print(loaded('classify', '--manifest', f'{folder}/data.csv', '--kind', 'vnge',
             '--method', 'slq', '--repeats', '5'))
print(loaded('snapshots', '--events', f'{folder}/events.txt', '--granularity', '1',
             '--kind', 'vnge', '--method', 'slq'))
print(loaded('bench-error', '--inputs', graph, '--kind', 'netlsd', '--methods',
             'slq,taylor,linear', '--k', '5'))
print(loaded('bench-error', '--inputs', graph, '--kind', 'vnge', '--methods',
             'finger-hat,finger-bar'))
print(loaded('descriptor', '--input', graph, '--kind', 'vnge', '--method', 'finger-hat',
             name='finger'))
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    # the baselines reach ARPACK by file where its _arpacklib has the
    # driver's routines, and through eigsh, with scipy.sparse, where not
    baselines = str(_scipy._private(_scipy._ARPACKLIB, "dsaupd_wrap", "dseupd_wrap") is None)
    assert proc.stdout.split() == ["False"] * 10 + [baselines] * 3
    desc = json.loads((tmp_path / "descriptor.out").read_text())
    assert desc["method"] == "slq" and desc["value"] > 0
    finger = json.loads((tmp_path / "finger.out").read_text())
    assert finger["method"] == "finger" and finger["params"] == {"variant": "hat"}
    assert (tmp_path / "classify.out").read_text().splitlines()[2].startswith("data,vnge,slq,")
    assert (tmp_path / "snapshots.out").read_text().splitlines()[2] == "0,0.0,1,0"


class TestDashOutput:
    """'-' names stdout for --output and stdin for an edge-list input."""

    @staticmethod
    def _argv(subcommand, tmp_path, p3_file):
        if subcommand == "descriptor":
            return ["descriptor", "--input", p3_file, "--kind", "netlsd",
                    "--grid-points", "8"]
        if subcommand == "bench-error":
            return ["bench-error", "--inputs", p3_file, "--kind", "vnge",
                    "--methods", "exact,slq,taylor"]
        if subcommand == "classify":
            for name, text in [("a0.tsv", "0 1\n"), ("a1.tsv", "0 1\n1 2\n0 2\n"),
                               ("b0.tsv", "0 1\n1 2\n"), ("b1.tsv", "0 1\n1 2\n2 3\n")]:
                (tmp_path / name).write_text(text)
            manifest = tmp_path / "data.csv"
            manifest.write_text("a0.tsv,a\na1.tsv,a\nb0.tsv,b\nb1.tsv,b\n")
            return ["classify", "--manifest", str(manifest), "--kind", "vnge",
                    "--method", "exact", "--repeats", "20"]
        if subcommand == "snapshots":
            events = tmp_path / "events.txt"
            events.write_text("0 add 0 1\n1 add 1 2\n2 del 0 1\n")
            return ["snapshots", "--events", str(events), "--granularity", "1",
                    "--kind", "vnge", "--method", "exact"]
        return ["generate", "er", "--n", "20", "--avg-degree", "3", "--seed", "2"]

    @pytest.mark.parametrize("subcommand", ["descriptor", "bench-error", "classify",
                                            "snapshots", "generate"])
    def test_file_and_stdout_bytes_match(self, capsys, tmp_path, p3_file, subcommand):
        argv = self._argv(subcommand, tmp_path, p3_file)
        out_path = tmp_path / "out"
        code, _, _ = run(capsys, *argv, "--output", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, *argv, "--output", "-")
        assert code == 0
        assert not sys.stdout.closed
        expected = out_path.read_text()
        if subcommand == "bench-error":
            # the seconds column is a wall time
            def drop_seconds(text):
                return [line.rsplit(",", 1)[0] for line in text.splitlines()]

            out, expected = drop_seconds(out), drop_seconds(expected)
        assert out == expected
        assert len(out) > 0

    @pytest.mark.parametrize("subcommand,flag", [("snapshots", "--events"),
                                                 ("classify", "--manifest")])
    def test_events_and_manifest_read_stdin(self, capsys, monkeypatch, tmp_path, p3_file,
                                            subcommand, flag):
        import io
        argv = self._argv(subcommand, tmp_path, p3_file)
        code, from_file, _ = run(capsys, *argv)
        assert code == 0
        at = argv.index(flag) + 1
        path = Path(argv[at])
        argv[at] = "-"
        # a manifest on stdin resolves relative graph paths against the
        # working directory
        monkeypatch.chdir(path.parent)
        monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
        code, from_stdin, _ = run(capsys, *argv)
        assert code == 0
        if subcommand == "classify":
            # the dataset column is the manifest's file name, '-' for stdin
            from_file = from_file.replace(f"\n{path.stem},", "\n-,")
        assert from_stdin == from_file

    def test_compare_reads_stdin(self, capsys, monkeypatch, p3_file, k2_file):
        import io
        argv = ["compare", "--b", k2_file, "--kind", "netlsd", "--method", "exact"]
        code, from_file, _ = run(capsys, *argv, "--a", p3_file)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
        code, from_stdin, _ = run(capsys, *argv, "--a", "-")
        assert code == 0
        assert from_stdin == from_file
        assert float(from_stdin) > 0.0


class TestThreadsDefault:
    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
    def test_default_is_the_cpus_this_process_may_run_on(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        args = build_parser().parse_args(["generate", "er", "--n", "5", "--avg-degree", "1"])
        assert args.threads == len(cpus)


class TestByteDeterminism:
    def test_descriptor_runs_identical_across_threads(self, capsys, p3_file, tmp_path):
        outputs = []
        for i, threads in enumerate(("1", "4")):
            out_path = tmp_path / f"d{i}.json"
            code, _, _ = run(capsys, "descriptor", "--input", p3_file, "--kind",
                             "netlsd", "--method", "slq", "--grid-points", "16",
                             "--threads", threads, "--output", str(out_path))
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]


class TestPlainNumbers:
    def test_rel_error_and_distance_parse_as_floats(self, capsys, p3_file, tmp_path):
        out_path = tmp_path / "err.csv"
        code, _, _ = run(capsys, "bench-error", "--inputs", p3_file, "--kind", "vnge",
                         "--methods", "slq,taylor,finger-hat,finger-bar",
                         "--output", str(out_path))
        assert code == 0
        rows = out_path.read_text().splitlines()[2:]
        assert len(rows) == 4
        for row in rows:
            float(row.split(",")[3])
        code, out, _ = run(capsys, "compare", "--a", p3_file, "--b", p3_file,
                           "--kind", "vnge", "--method", "finger-hat")
        assert code == 0
        assert float(out) == 0.0
