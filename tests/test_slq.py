"""Stochastic Lanczos quadrature trace estimator."""

import collections
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import spectrace
from spectrace import slq
from spectrace.descriptors import TimeGrid, descriptor_to_json, netlsd_slq, vnge_slq
from spectrace.graphs import erdos_renyi
from spectrace.lanczos import (
    BlockTridiagonal,
    block_quadrature_rules,
    lanczos_block,
    lanczos_tridiagonalize,
    quadrature_rule,
)
from spectrace.operators import LinearOperator, OperatorKind, make_operator, trace_squared
from spectrace.slq import (
    BLOCK_WIDTH,
    MAX_BLOCK_WIDTH,
    MIN_PARALLEL_DIM,
    SlqConfig,
    _probe_block,
    _probe_rules,
    _sign_bank,
    slq_trace,
    slq_trace_grid,
)

from conftest import (
    disjoint_edges,
    empty_graph,
    explicit_operator,
    graph_from_edges,
    pad_vertices,
    patch_private,
)


class TestConfig:
    def test_defaults(self):
        cfg = SlqConfig()
        assert cfg.n_v == 100 and cfg.s == 10
        assert cfg.distribution == "rademacher"

    def test_validation(self):
        with pytest.raises(ValueError):
            SlqConfig(n_v=0)
        with pytest.raises(ValueError):
            SlqConfig(s=0)
        with pytest.raises(ValueError):
            SlqConfig(distribution="uniform")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SlqConfig(seed=-1)

    def test_one_probe_law(self):
        with pytest.raises(ValueError,
                           match="distribution must be 'rademacher', got 'gaussian'"):
            SlqConfig(distribution="gaussian")

    @pytest.mark.parametrize("field", ["n_v", "s", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3"],
                             ids=["2.5", "3.0", "float64", "str"])
    def test_integer_fields_refuse_other_values(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            SlqConfig(**{field: value})

    def test_numpy_integers_are_stored_as_python_ints(self):
        cfg = SlqConfig(n_v=np.int64(3), s=np.int32(2), seed=np.uint64(7))
        assert [type(v) for v in (cfg.n_v, cfg.s, cfg.seed)] == [int, int, int]
        assert cfg == SlqConfig(n_v=3, s=2, seed=7)
        with pytest.raises(ValueError, match="n_v must be >= 1"):
            SlqConfig(n_v=np.int8(0))


class TestSlqTrace:
    def test_identity_operator(self):
        op = explicit_operator(np.eye(5))
        est = slq_trace(op, lambda x: x, SlqConfig(n_v=16, s=3, seed=1))
        assert est.value == pytest.approx(5.0, abs=1e-12)
        assert est.per_vector.shape == (16,)

    def test_diag_rademacher_near_exact(self):
        # quadratic form of a diagonal matrix is constant over sign vectors
        op = explicit_operator(np.diag([1.0, 2.0, 3.0, 4.0]))
        est = slq_trace(op, lambda x: x, SlqConfig(n_v=64, s=4, seed=0))
        assert est.value == pytest.approx(10.0, abs=1e-9)

    def test_per_probe_quadratic_form_exact(self, p3):
        # degree-2 integrand with s=2 steps: every probe integrates exactly
        op = make_operator(p3, OperatorKind.NORMALIZED_LAPLACIAN)
        cfg = SlqConfig(n_v=32, s=2, seed=5)
        est = slq_trace(op, lambda x: x * x, cfg)
        for i in range(cfg.n_v):
            seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,))
            v = np.random.default_rng(seq).integers(0, 2, size=3) * 2.0 - 1.0
            q0 = v / np.linalg.norm(v)
            direct = float(np.dot(op.apply(q0), op.apply(q0)))
            assert est.per_vector[i] == pytest.approx(direct, rel=1e-8)
        tr2 = trace_squared(p3, OperatorKind.NORMALIZED_LAPLACIAN)
        assert abs(est.value - tr2) <= 6 * est.std_error + 1e-9

    def test_seed_determinism(self, k3):
        op = make_operator(k3, OperatorKind.NORMALIZED_LAPLACIAN)
        cfg = SlqConfig(n_v=20, s=5, seed=123)
        a = slq_trace(op, np.exp, cfg)
        b = slq_trace(op, np.exp, cfg)
        assert a.value == b.value
        assert np.array_equal(a.per_vector, b.per_vector)

    def test_value_is_scaled_per_vector_mean(self, k3):
        op = make_operator(k3, OperatorKind.NORMALIZED_LAPLACIAN)
        est = slq_trace(op, np.exp, SlqConfig(n_v=13, s=4, seed=2))
        assert est.value == op.dim * (est.per_vector.sum() / 13)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n_v", [1, BLOCK_WIDTH + 1, 97])
    def test_probe_prefix_property(self, n_v, threads):
        # a partial last block is zero-padded, so probe i never sees n_v
        g = erdos_renyi(MIN_PARALLEL_DIM, 6, seed=1)
        op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        full = slq_trace(op, np.exp, SlqConfig(n_v=100, s=8, seed=9))
        part = slq_trace(op, np.exp, SlqConfig(n_v=n_v, s=8, seed=9), threads=threads)
        assert np.array_equal(full.per_vector[:n_v], part.per_vector)

    @pytest.mark.parametrize("n_v", [1, BLOCK_WIDTH + 1, 97, 100])
    def test_threads_do_not_change_result(self, n_v):
        op = make_operator(erdos_renyi(MIN_PARALLEL_DIM, 6, seed=2), OperatorKind.DENSITY)
        cfg = SlqConfig(n_v=n_v, s=8, seed=3)
        seq = slq_trace(op, np.exp, cfg, threads=1)
        # 13 blocks at most: 14 threads are more than any case has blocks
        for threads in (2, 3, 14):
            par = slq_trace(op, np.exp, cfg, threads=threads)
            assert seq.value == par.value
            assert np.array_equal(seq.per_vector, par.per_vector)

    def test_unbiased_on_explicit_matrix(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((30, 30))
        mat = (mat + mat.T) / 2
        op = explicit_operator(mat)
        true_trace = float(np.trace(mat))
        values, errors = [], []
        for seed in range(200):
            est = slq_trace(op, lambda x: x, SlqConfig(n_v=20, s=4, seed=seed))
            values.append(est.value)
            errors.append(est.std_error)
        mean = np.mean(values)
        combined_se = np.sqrt(np.sum(np.square(errors))) / len(values)
        assert abs(mean - true_trace) <= 4 * combined_se

    def test_nonfinite_f_raises(self, p3):
        op = make_operator(p3, OperatorKind.NORMALIZED_LAPLACIAN)
        with pytest.raises(ValueError, match="non-finite"):
            slq_trace(op, lambda x: np.full_like(x, np.nan),
                      SlqConfig(n_v=4, s=4, seed=0))

    def test_nonfinite_f_on_grid_names_the_probe(self):
        # one (t, probe) pair past the first tile goes non-finite: the error
        # names that probe's nodes, as the per-point loop did
        op = make_operator(erdos_renyi(60, 4, seed=3), OperatorKind.NORMALIZED_LAPLACIAN)
        cfg = SlqConfig(n_v=100, s=10, seed=1)
        grid = TimeGrid().values
        nodes, _ = _probe_rules(op, cfg, 1)
        bad_t, bad = grid[40], nodes[37]

        def f_family(t):
            return lambda x: np.where((t == bad_t) & (x == bad[3]), np.inf, np.exp(-t * x))

        with pytest.raises(ValueError) as info:
            slq_trace_grid(op, f_family, grid, cfg)
        assert str(info.value) == (
            f"f returned a non-finite value at quadrature nodes {bad!r}"
        )

    def test_nodes_clamped_before_f(self, k2):
        # x ln x stays finite because tiny negative Ritz values are clamped to 0
        op = make_operator(k2, OperatorKind.DENSITY)

        def xlogx(x):
            out = np.zeros_like(x)
            pos = x > 0
            out[pos] = x[pos] * np.log(x[pos])
            return out

        est = slq_trace(op, xlogx, SlqConfig(n_v=8, s=5, seed=2))
        assert abs(est.value) <= 1e-10  # density spectrum {0, 1}: f vanishes


class TestBlockScheduling:
    """The calling thread runs probe blocks next to threads - 1 helpers."""

    @staticmethod
    def _op():
        return make_operator(erdos_renyi(MIN_PARALLEL_DIM, 6, seed=2), OperatorKind.DENSITY)

    @pytest.mark.parametrize("threads,blocks", [(1, 3), (2, 2), (2, 5), (3, 4), (5, 2), (4, 1)])
    def test_threads_that_run_blocks(self, monkeypatch, threads, blocks):
        # the first blocks meet at a barrier, so each runs in its own thread
        starters = min(threads, blocks)
        barrier = threading.Barrier(starters, timeout=30)
        lock = threading.Lock()
        idents = []

        def lanczos_block(*args):
            with lock:
                idents.append(threading.get_ident())
                first_round = len(idents) <= starters
            if first_round:
                barrier.wait()
            return real(*args)

        real = slq.lanczos_block
        monkeypatch.setattr(slq, "lanczos_block", lanczos_block)
        slq_trace(self._op(), np.exp, SlqConfig(n_v=blocks * BLOCK_WIDTH, s=4), threads=threads)
        assert len(idents) == blocks
        assert threading.get_ident() in idents
        assert len(set(idents)) == starters <= threads

    @pytest.mark.parametrize("lower_in_caller", [False, True])
    def test_lowest_failing_block_raises(self, monkeypatch, lower_in_caller):
        # two threads run four blocks in two rounds, one block each per
        # round; one thread fails in the first round, the other in the second
        caller = threading.get_ident()
        barrier = threading.Barrier(2, timeout=30)
        failed = []

        def probe_block(op, cfg, first, width):
            barrier.wait()
            index = first // width
            if (threading.get_ident() == caller) == (lower_in_caller == (index < 2)):
                failed.append((index, threading.get_ident() == caller))
                raise ValueError(f"block {index}")
            return real(op, cfg, first, width)

        real = slq._probe_block
        monkeypatch.setattr(slq, "_probe_block", probe_block)
        with pytest.raises(ValueError) as info:
            slq_trace(self._op(), np.exp, SlqConfig(n_v=4 * BLOCK_WIDTH, s=4), threads=2)
        (low, low_in_caller), (high, _) = sorted(failed)
        assert low < 2 <= high and low_in_caller == lower_in_caller
        assert str(info.value) == f"block {low}"


class TestSlqTraceGrid:
    def test_single_point_matches_slq_trace(self, k3):
        op = make_operator(k3, OperatorKind.NORMALIZED_LAPLACIAN)
        cfg = SlqConfig(n_v=25, s=6, seed=11)
        t = 0.7
        grid_est = slq_trace_grid(op, lambda t_: (lambda x: np.exp(-t_ * x)), [t], cfg)
        point_est = slq_trace(op, lambda x: np.exp(-t * x), cfg)
        assert grid_est[0].value == point_est.value
        assert np.array_equal(grid_est[0].per_vector, point_est.per_vector)

    def test_grid_bit_equals_pointwise_loop(self, k3):
        # the 256-point grid on ER(300) spans several tiles, the last one short
        er300 = erdos_renyi(300, 4, seed=1)
        cases = [(k3, 10, 6, np.geomspace(0.01, 100.0, 32))]
        cases += [(er300, n_v, 10, TimeGrid().values) for n_v in (1, 2, 100, 257)]
        for g, n_v, s, grid in cases:
            op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
            cfg = SlqConfig(n_v=n_v, s=s, seed=13)
            batched = slq_trace_grid(op, lambda t: (lambda x: np.exp(-t * x)), grid, cfg)
            assert len(batched) == len(grid)
            nodes, weights = _probe_rules(op, cfg, 1)
            for t, est in zip(grid, batched):
                # the per-point integration the tiles replaced, spelled out
                per_vector = np.einsum("ij,ij->i", weights, np.exp(-t * nodes))
                value = op.dim * (float(per_vector.sum()) / n_v)
                std_error = (float(np.std(op.dim * per_vector, ddof=1)) / np.sqrt(n_v)
                             if n_v > 1 else 0.0)
                assert np.array_equal(est.per_vector, per_vector)
                assert (est.value, est.std_error) == (value, std_error)
            for t, est in list(zip(grid, batched))[:: len(grid) // 8]:
                single = slq_trace(op, lambda x: np.exp(-t * x), cfg)
                assert (single.value, single.std_error) == (est.value, est.std_error)
                assert np.array_equal(single.per_vector, est.per_vector)

    def test_k3_grid_value_at_t_zero(self, k3):
        op = make_operator(k3, OperatorKind.NORMALIZED_LAPLACIAN)
        ests = slq_trace_grid(
            op, lambda t: (lambda x: np.exp(-t * x)),
            [0.0] + list(np.geomspace(0.01, 100, 255)),
            SlqConfig(seed=0),
        )
        assert len(ests) == 256
        assert ests[0].value == pytest.approx(3.0, abs=1e-12)

    def test_empty_graph_exactly_n(self):
        g = empty_graph(7)
        op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        ests = slq_trace_grid(
            op, lambda t: (lambda x: np.exp(-t * x)),
            np.geomspace(0.01, 100, 16), SlqConfig(n_v=12, s=4, seed=1),
        )
        assert all(e.value == 7.0 for e in ests)


def _reference_per_vector(op, f, cfg):
    """Probe-by-probe loop over the single-vector reference recurrence."""
    lo, hi = op.interval
    out = np.empty(cfg.n_v)
    for i in range(cfg.n_v):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)))
        v = rng.integers(0, 2, size=op.dim) * 2.0 - 1.0
        tri = lanczos_tridiagonalize(op, v / np.linalg.norm(v), min(cfg.s, op.dim),
                                     reorth=False)
        rule = quadrature_rule(tri)
        out[i] = rule.integrate(f(np.clip(rule.nodes, lo, hi)))
    return out


class TestBlockCore:
    """The block path against the single-vector reference, to 1e-12 relative."""

    @staticmethod
    def _check(op, cfg):
        def f(x):
            return np.exp(-2.0 * x / op.interval[1])

        est = slq_trace(op, f, cfg)
        np.testing.assert_allclose(est.per_vector, _reference_per_vector(op, f, cfg),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_er300_every_kind(self, kind):
        op = make_operator(erdos_renyi(300, 10, seed=3), kind)
        self._check(op, SlqConfig(n_v=2 * BLOCK_WIDTH + 3, s=10, seed=4))

    def test_isolated_vertices(self):
        g = pad_vertices(erdos_renyi(200, 8, seed=4), 260)
        op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        self._check(op, SlqConfig(n_v=BLOCK_WIDTH + 5, s=10, seed=5))

    def test_block_with_mixed_breakdowns(self):
        # C6's Laplacian has 4 distinct eigenvalues: with s=4 some sign probes
        # exhaust their Krylov space early and others run every step
        op = make_operator(_c6(), OperatorKind.LAPLACIAN)
        cfg = SlqConfig(n_v=BLOCK_WIDTH, s=4, seed=0)
        tri = _probe_block(op, cfg, 0)
        assert tri.steps.min() < 4 and tri.steps.max() == 4
        for alpha, beta, k in zip(tri.alpha, tri.beta, tri.steps):
            assert not alpha[k:].any() and not beta[k - 1:].any()
        self._check(op, cfg)


def _concatenated_block_rules(op, cfg):
    """Rules of the BLOCK_WIDTH-wide blocks that operators of at least
    MIN_PARALLEL_DIM rows run, concatenated in probe order."""
    blocks = [_probe_block(op, cfg, first) for first in range(0, cfg.n_v, BLOCK_WIDTH)]
    tri = BlockTridiagonal(
        *(np.concatenate([getattr(b, name) for b in blocks])[: cfg.n_v]
          for name in ("alpha", "beta", "steps"))
    )
    nodes, weights = block_quadrature_rules(tri)
    return np.clip(nodes, *op.interval), weights, tri


def _c6():
    return graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


class TestOneBlock:
    """Below MIN_PARALLEL_DIM up to MAX_BLOCK_WIDTH probes run as one block:
    every probe's numbers equal those of the BLOCK_WIDTH-wide blocks, bit
    for bit."""

    @staticmethod
    def _check(op, cfg):
        assert op.dim < MIN_PARALLEL_DIM
        nodes, weights, _ = _concatenated_block_rules(op, cfg)
        got_nodes, got_weights = _probe_rules(op, cfg, 2)
        assert np.array_equal(got_nodes, nodes)
        assert np.array_equal(got_weights, weights)

    @given(n=hst.integers(2, 200), degree=hst.floats(0.5, 8.0), graph_seed=hst.integers(0, 99),
           kind=hst.sampled_from(list(OperatorKind)), n_v=hst.integers(1, 130),
           s=hst.integers(1, 12), seed=hst.integers(0, 2**32 - 1))
    @example(n=MIN_PARALLEL_DIM - 1, degree=10.0, graph_seed=2, kind=OperatorKind.DENSITY,
             n_v=130, s=10, seed=0)
    @example(n=MIN_PARALLEL_DIM - 1, degree=10.0, graph_seed=2, kind=OperatorKind.DENSITY,
             n_v=MAX_BLOCK_WIDTH + 9, s=10, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_er_width_invariance(self, n, degree, graph_seed, kind, n_v, s, seed):
        g = erdos_renyi(n, min(degree, n - 1), graph_seed)
        if g.m == 0 and kind is OperatorKind.DENSITY:
            return  # the density matrix of an edgeless graph is undefined
        self._check(make_operator(g, kind), SlqConfig(n_v=n_v, s=s, seed=seed))

    @pytest.mark.parametrize("n_v", [1, BLOCK_WIDTH, 3 * BLOCK_WIDTH + 1, 130,
                                     MAX_BLOCK_WIDTH + 1])
    def test_mixed_breakdowns(self, n_v):
        # C6 with s=4: some probes exhaust their Krylov space early
        op = make_operator(_c6(), OperatorKind.LAPLACIAN)
        cfg = SlqConfig(n_v=n_v, s=4, seed=0)
        steps = _concatenated_block_rules(op, cfg)[2].steps
        if n_v >= BLOCK_WIDTH:
            assert steps.min() < 4 and steps.max() == 4
        self._check(op, cfg)


    def test_block_width_caps_memory(self):
        # an uncapped block of 1000 probes peaked at 63 MiB here
        g = erdos_renyi(MIN_PARALLEL_DIM - 1, 10, 2)
        tracemalloc.start()
        try:
            vnge_slq(g, SlqConfig(n_v=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


def _fresh_probe(seed, index, n, distribution="rademacher"):
    """Probe index drawn at n entries, as the determinism contract defines it:
    signs as float64 +-1. distribution is a configuration's probe law, whose
    one value is Rademacher."""
    assert distribution == "rademacher"
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    return rng.integers(0, 2, size=n) * 2.0 - 1.0


def _counted_draws(monkeypatch):
    """A Counter of the probe indices that _draw_probe is called for."""
    calls = collections.Counter()
    real = slq._draw_probe

    def counting(seed, index, n):
        calls[index] += 1
        return real(seed, index, n)

    monkeypatch.setattr(slq, "_draw_probe", counting)
    return calls


def _assert_start_block(monkeypatch, n, n_v, first, width, distribution="rademacher"):
    """The block lanczos_block receives equals the per-probe draw, normalized
    in float64 and rounded to the block's dtype, bit for bit, zero-padded
    past the last probe, when the block draws its probes and when it reads
    them back; up to MAX_BLOCK_WIDTH probes are drawn once, more per block."""
    starts = []
    monkeypatch.setattr(slq, "lanczos_block", lambda op, start, s: starts.extend(start))
    calls = _counted_draws(monkeypatch)
    op = LinearOperator(dim=n, apply=None, interval=(0.0, 1.0))
    dtype = np.dtype(np.float64 if n < MIN_PARALLEL_DIM else np.float32)
    draws = 1 if n_v <= MAX_BLOCK_WIDTH else 2
    cfg = SlqConfig(n_v=n_v, distribution=distribution, seed=11)
    probes = range(first, min(first + width, n_v))
    expected = np.zeros((n, width))
    for j, index in enumerate(probes):
        v = _fresh_probe(cfg.seed, index, n, distribution)
        expected[:, j] = v / np.sqrt(np.einsum("i,i->", v, v))
    _sign_bank.cache_clear()
    _probe_block(op, cfg, first, width)
    _probe_block(op, cfg, first, width)
    assert calls == collections.Counter({index: draws for index in probes})
    assert [start.dtype for start in starts] == [dtype] * 2
    assert starts[0].tobytes() == starts[1].tobytes() == expected.astype(dtype).tobytes()


def _assert_sign_bank_memory(monkeypatch, n):
    """256 probes keep 256 x ceil(max(n, 2047) / 8) bytes; a block and one
    probe's draw, about 8 bytes per entry of int64 bits, come and go."""
    monkeypatch.setattr(slq, "lanczos_block", lambda op, start, s: None)
    cfg = SlqConfig(n_v=MAX_BLOCK_WIDTH)
    op = LinearOperator(dim=n, apply=None, interval=(0.0, 1.0))
    itemsize = 8 if n < MIN_PARALLEL_DIM else 4
    length = max(n, MIN_PARALLEL_DIM - 1)
    bank = MAX_BLOCK_WIDTH * -(-length // 8)
    _probe_block(op, SlqConfig(n_v=1), 0)  # numpy's lazy imports, untraced
    _sign_bank.cache_clear()
    tracemalloc.start()
    try:
        for first in range(0, cfg.n_v, BLOCK_WIDTH):
            _probe_block(op, cfg, first)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _sign_bank.cache_clear()
    assert kept < bank + 2**16
    assert peak < bank + BLOCK_WIDTH * itemsize * n + 16 * length


def _assert_bytes_do_not_depend_on_history(runs, order):
    """Each run, computed in this process in the given order of run indices,
    prints the bytes it prints in a new interpreter."""
    code = ("import ast, sys\n"
            "from spectrace.descriptors import descriptor_to_json, netlsd_slq, vnge_slq\n"
            "from spectrace.graphs import erdos_renyi\n"
            "from spectrace.slq import SlqConfig\n"
            "args, kwargs = ast.literal_eval(sys.argv[1])\n"
            "g, cfg = erdos_renyi(*args), SlqConfig(**kwargs)\n"
            "print(descriptor_to_json(netlsd_slq(g, cfg=cfg)))\n"
            "print(descriptor_to_json(vnge_slq(g, cfg=cfg)))\n")
    src = str(Path(spectrace.__file__).resolve().parents[1])
    fresh = [subprocess.run([sys.executable, "-c", code, repr(run)], check=True,
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src}).stdout
             for run in runs]
    for i in order:
        args, kwargs = runs[i]
        g, cfg = erdos_renyi(*args), SlqConfig(**kwargs)
        out = (descriptor_to_json(netlsd_slq(g, cfg=cfg)) + "\n"
               + descriptor_to_json(vnge_slq(g, cfg=cfg)) + "\n")
        assert out == fresh[i]


class TestProbeBank:
    """Below MIN_PARALLEL_DIM, with at most MAX_BLOCK_WIDTH probes, probes
    come from the packed sign bank as prefixes of its rows of 2047 signs;
    more probes are drawn per block. Every bit stays that of a per-probe draw
    in float64."""

    @pytest.mark.parametrize("distribution", ["rademacher"])
    @pytest.mark.parametrize("n", [1, 2, 300, MIN_PARALLEL_DIM - 1])
    @pytest.mark.parametrize("n_v,first,width", [(1, 0, BLOCK_WIDTH), (100, 0, 104),
                                                 (MAX_BLOCK_WIDTH, 8, BLOCK_WIDTH),
                                                 (100, 96, BLOCK_WIDTH),
                                                 (MAX_BLOCK_WIDTH, 0, MAX_BLOCK_WIDTH),
                                                 (MAX_BLOCK_WIDTH + 1, 0, BLOCK_WIDTH),
                                                 (300, 256, BLOCK_WIDTH)])
    def test_start_block_bits_match_per_probe(self, monkeypatch, distribution, n, n_v,
                                              first, width):
        # widths 104 and 256 are the one block that runs every probe; with
        # 257 and 300 probes each block draws its own
        _assert_start_block(monkeypatch, n, n_v, first, width, distribution)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_corpus_draws_each_probe_once(self, monkeypatch, threads):
        # graphs of mixed sizes below the switch read prefixes of one bank's
        # rows, so the whole corpus draws every probe once
        calls = _counted_draws(monkeypatch)
        _sign_bank.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (120, 300, MIN_PARALLEL_DIM - 1, 500):
                g = erdos_renyi(n, 4, 1)
                netlsd_slq(g, threads=threads)
                vnge_slq(g, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert calls == collections.Counter(range(SlqConfig().n_v))

    def test_bytes_do_not_depend_on_history(self):
        # ER(300) again after ER(2047), ER(5), another seed and another n_v;
        # then after ER(3000), where the bank's rows shrink from 3000 to 2047
        # signs, and ER(2047) after ER(2048)
        runs = [((300, 4, 1), {}), ((MIN_PARALLEL_DIM - 1, 10, 2), {}),
                ((5, 2, 0), {}), ((300, 4, 1), {"seed": 4}),
                ((300, 4, 1), {"n_v": 7}), ((3000, 6, 1), {}), ((MIN_PARALLEL_DIM, 10, 2), {})]
        _assert_bytes_do_not_depend_on_history(
            runs, (0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1))

    def test_memory_bound(self, monkeypatch):
        # 256 x 256 bytes of signs below the switch
        _assert_sign_bank_memory(monkeypatch, 300)


class TestSignBank:
    """From MIN_PARALLEL_DIM rows on, with at most MAX_BLOCK_WIDTH probes,
    probes come from one packed sign bank per process, and more probes are
    drawn per block; every bit stays that of a per-probe draw, normalized and
    rounded to float32."""

    @pytest.mark.parametrize("n", [MIN_PARALLEL_DIM, MIN_PARALLEL_DIM + 1, 3001, 20_000])
    @pytest.mark.parametrize("n_v,first", [(1, 0), (100, 0), (100, 96), (MAX_BLOCK_WIDTH, 0),
                                           (MAX_BLOCK_WIDTH, 96), (MAX_BLOCK_WIDTH + 1, 0),
                                           (300, 256)])
    def test_start_block_bits_match_per_probe(self, monkeypatch, n, n_v, first):
        _assert_start_block(monkeypatch, n, n_v, first, BLOCK_WIDTH)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_graphs_of_one_size_draw_each_probe_once(self, monkeypatch, threads):
        # more threads than cores, switching often: a bank made twice by
        # racing threads would lose rows and draw them again
        calls = _counted_draws(monkeypatch)
        _sign_bank.cache_clear()
        n = MIN_PARALLEL_DIM + 500
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for graph_seed in (1, 2):
                vnge_slq(erdos_renyi(n, 6, graph_seed), threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert calls == collections.Counter(range(SlqConfig().n_v))

    @pytest.mark.parametrize("n", [300, MIN_PARALLEL_DIM])
    def test_more_probes_than_the_bank_draw_per_block(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("sign bank consulted")

        monkeypatch.setattr(slq, "_sign_bank", refuse)
        calls = _counted_draws(monkeypatch)
        op = make_operator(erdos_renyi(n, 6, 1), OperatorKind.DENSITY)
        cfg = SlqConfig(n_v=MAX_BLOCK_WIDTH + 1, s=2)
        for _ in range(2):
            slq_trace(op, np.exp, cfg, threads=2)
        assert calls == collections.Counter({index: 2 for index in range(cfg.n_v)})

    def test_memory_bound(self, monkeypatch):
        # 256 x 2500 bytes of signs at 20k
        _assert_sign_bank_memory(monkeypatch, 20_000)

    def test_bytes_do_not_depend_on_history(self):
        # ER(3000) again after another graph of 3000 vertices, one of 2500,
        # another seed and another n_v
        runs = [((3000, 6, 1), {}), ((3000, 6, 2), {}), ((2500, 6, 1), {}),
                ((3000, 6, 1), {"seed": 4}), ((3000, 6, 1), {"n_v": 7})]
        _assert_bytes_do_not_depend_on_history(runs, (0, 1, 0, 2, 0, 3, 0, 4, 0))


class TestProbeThreadMemory:
    """Each probe thread holds what the Lanczos recurrence reads: the two
    latest blocks and the new product. The start block is handed over, so
    it is freed once the recurrence rotates it out."""

    @pytest.mark.parametrize("n_v,s", [(2 * BLOCK_WIDTH, 10), (MAX_BLOCK_WIDTH + 1, 2)],
                             ids=["bank", "per-block"])
    def test_three_blocks_per_thread(self, n_v, s):
        # traced peak of _probe_rules on ER(50k)'s density matrix, with the
        # operator's float32 values built and the sign bank drawn, in (n, 8)
        # float32 blocks per thread: 4.27-4.29 while the caller and the
        # recurrence kept the start block, 3.03 handed over
        n = 50_000
        op = make_operator(erdos_renyi(n, 10, 0), OperatorKind.DENSITY)
        cfg = SlqConfig(n_v=n_v, s=s)
        _probe_rules(op, cfg, 2)
        for threads in (1, 2):
            tracemalloc.start()
            try:
                _probe_rules(op, cfg, threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            blocks = peak / (n * BLOCK_WIDTH * 4) / threads
            assert blocks <= 3.2, (threads, blocks)


class TestGoldenBytes:
    """descriptor_to_json bytes of the default estimator, pinned to the
    per-block, per-point implementation that the one-block and tiled paths
    replaced (numpy 2.4 with OpenBLAS on x86-64).

    The digests hold on numpy's AVX-512 loops. On its AVX2 loops (for
    example under ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
    AVX512_SPR"``) both netlsd digests differ, because ``np.exp`` and
    ``np.geomspace`` return other bits there; the vnge digests hold."""

    @pytest.mark.parametrize("args,kind,digest", [
        ((300, 4, 1), "netlsd",
         "ccab9afd3e8f2f769c5e47f25d829e2949f379fb30443f71bd7ef9a8cf69fe8b"),
        ((300, 4, 1), "vnge",
         "8e169ea422a28b187b94c3c0bc8e3d0681f47e9abaa69554d372d7fa23f42c09"),
        ((MIN_PARALLEL_DIM - 1, 10, 2), "netlsd",
         "4b1c4c2ea7e4a14b5470e113614322376117f07fc6c57c15a8f690001bbe7d56"),
        ((MIN_PARALLEL_DIM - 1, 10, 2), "vnge",
         "af97fdf6c73f499139985696ff6e195818d56ff348e4725f9969dcda01498750"),
    ])
    def test_descriptor_json_digest(self, args, kind, digest):
        g = erdos_renyi(*args)
        desc = netlsd_slq(g) if kind == "netlsd" else vnge_slq(g)
        assert hashlib.sha256(descriptor_to_json(desc).encode()).hexdigest() == digest


@pytest.mark.parametrize("args", [(300, 4, 1), (MIN_PARALLEL_DIM, 10, 2)])
def test_per_column_products_keep_descriptor_bytes(args, monkeypatch):
    # in a scipy without coo_matmat_dense, make_operator runs each (n, W)
    # block column by column through coo_matvec: the descriptors, below and
    # above the float32 switch and at 1 and 2 threads, keep the block
    # kernel's bytes
    g = erdos_renyi(*args)

    def descriptors():
        return [descriptor_to_json(describe(g, threads=threads))
                for describe in (netlsd_slq, vnge_slq) for threads in (1, 2)]

    block = descriptors()
    patch_private(monkeypatch, coo_matmat_dense=None)
    assert descriptors() == block


def _c6_copies(copies, isolated):
    """copies disjoint 6-cycles, followed by isolated vertices."""
    edges = [(6 * c + i, 6 * c + (i + 1) % 6) for c in range(copies) for i in range(6)]
    return pad_vertices(graph_from_edges(6 * copies, edges), 6 * copies + isolated)


class TestSinglePrecision:
    """From MIN_PARALLEL_DIM rows on, probe blocks run in float32 with
    float64 reductions; every bit stays deterministic.

    The pinned digests hold on numpy's AVX-512 loops. On its AVX2 loops the
    netlsd digest differs (``np.exp`` and ``np.geomspace`` round otherwise
    there), and the vnge digest and every other test here hold."""

    @pytest.fixture
    def start_dtypes(self, monkeypatch):
        """The dtype of every start block that lanczos_block receives."""
        dtypes = []
        real = slq.lanczos_block

        def recording(op, start, s):
            dtypes.append(start[0].dtype)
            return real(op, start, s)

        monkeypatch.setattr(slq, "lanczos_block", recording)
        return dtypes

    @staticmethod
    def _float64_steps(op, cfg):
        """Step counts of the first block's probes in float64, as below the
        switch."""
        block = np.zeros((op.dim, BLOCK_WIDTH))
        for j in range(min(BLOCK_WIDTH, cfg.n_v)):
            v = _fresh_probe(cfg.seed, j, op.dim, cfg.distribution)
            block[:, j] = v / np.sqrt(np.einsum("i,i->", v, v))
        return lanczos_block(op, [block], cfg.s).steps

    @pytest.mark.parametrize("args", [(MIN_PARALLEL_DIM, 10, 2), (5000, 10, 0)])
    def test_threads_do_not_change_bytes(self, start_dtypes, args):
        g = erdos_renyi(*args)
        for describe in (netlsd_slq, vnge_slq):
            one, two = (descriptor_to_json(describe(g, threads=threads)) for threads in (1, 2))
            assert one == two
        assert set(start_dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("args", [(MIN_PARALLEL_DIM, 10, 2), (5000, 10, 0)])
    @pytest.mark.parametrize("kind", [OperatorKind.NORMALIZED_LAPLACIAN, OperatorKind.DENSITY])
    def test_probe_prefix_property(self, start_dtypes, args, kind):
        op = make_operator(erdos_renyi(*args), kind)
        full = slq_trace(op, np.exp, SlqConfig(n_v=100, seed=9), threads=2)
        for n_v in (1, BLOCK_WIDTH + 1, 97):
            part = slq_trace(op, np.exp, SlqConfig(n_v=n_v, seed=9))
            assert np.array_equal(full.per_vector[:n_v], part.per_vector)
        assert set(start_dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("graph,steps", [("K2x1024", 2), ("C6x400+50", 4)])
    @pytest.mark.parametrize("kind", [OperatorKind.NORMALIZED_LAPLACIAN, OperatorKind.DENSITY])
    def test_invariant_subspace_breaks_down_as_in_float64(self, start_dtypes, graph, steps,
                                                          kind):
        # K2's spectrum has 2 distinct eigenvalues and C6's 4, isolated
        # vertices adding none: float32 residuals stay near 1e-5 of the
        # spectral radius there, so only the per-row rule stops the columns
        g = disjoint_edges(1024) if graph == "K2x1024" else _c6_copies(400, 50)
        op = make_operator(g, kind)
        assert op.dim >= MIN_PARALLEL_DIM
        cfg = SlqConfig(n_v=BLOCK_WIDTH, s=10, seed=3)
        tri = _probe_block(op, cfg, 0)
        assert start_dtypes == [np.dtype(np.float32)]
        assert np.array_equal(tri.steps, self._float64_steps(op, cfg))
        assert (tri.steps == steps).all()

    @pytest.mark.parametrize("args", [(MIN_PARALLEL_DIM, 10, 2), (5000, 10, 0)])
    @pytest.mark.parametrize("kind", [OperatorKind.NORMALIZED_LAPLACIAN, OperatorKind.DENSITY])
    def test_er_probes_run_every_step(self, start_dtypes, args, kind):
        op = make_operator(erdos_renyi(*args), kind)
        cfg = SlqConfig()
        for first in range(0, cfg.n_v, BLOCK_WIDTH):
            # the last block's zero padding stops at its first step
            steps = _probe_block(op, cfg, first).steps[: cfg.n_v - first]
            assert (steps == cfg.s).all()
        assert set(start_dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("kind,digest", [
        ("netlsd", "475c0f17b5311c8227a913a58dba98fa5591cef30f25c3b5b4d9edb7791a3a9a"),
        ("vnge", "50a5c884be8bbcbe026b3cc454cdb8d5d263cca3334c92639b1aa23e6cd15f3f"),
    ])
    def test_descriptor_json_digest(self, kind, digest):
        # pinned to the float32 blocks: a change to these bytes is deliberate
        g = erdos_renyi(MIN_PARALLEL_DIM, 10, 2)
        desc = netlsd_slq(g) if kind == "netlsd" else vnge_slq(g)
        assert hashlib.sha256(descriptor_to_json(desc).encode()).hexdigest() == digest
