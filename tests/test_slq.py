"""Stochastic Lanczos quadrature trace estimator."""

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
    lanczos_tridiagonalize,
    quadrature_rule,
)
from spectrace.operators import LinearOperator, OperatorKind, make_operator, trace_squared
from spectrace.slq import (
    BLOCK_WIDTH,
    MAX_BLOCK_WIDTH,
    MIN_PARALLEL_DIM,
    SlqConfig,
    _probe_bank,
    _probe_block,
    _probe_rules,
    slq_trace,
    slq_trace_grid,
)

from conftest import empty_graph, explicit_operator, graph_from_edges, pad_vertices


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

    def test_diag_gaussian_within_error_bars(self):
        op = explicit_operator(np.diag([1.0, 2.0, 3.0, 4.0]))
        est = slq_trace(
            op, lambda x: x, SlqConfig(n_v=2000, s=4, seed=0, distribution="gaussian")
        )
        assert abs(est.value - 10.0) <= 4 * est.std_error

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

    def test_variance_ordering_rademacher_vs_gaussian(self):
        # diagonally dominant operator: sign probes kill the diagonal variance
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((20, 20)) * 0.05
        mat = (mat + mat.T) / 2 + np.diag(np.arange(1.0, 21.0))
        op = explicit_operator(mat)
        wins = []
        for seed in range(50):
            rad = slq_trace(op, lambda x: x, SlqConfig(n_v=30, s=6, seed=seed))
            gau = slq_trace(
                op, lambda x: x,
                SlqConfig(n_v=30, s=6, seed=seed, distribution="gaussian"),
            )
            wins.append(rad.std_error <= gau.std_error)
        assert np.median(wins) == 1.0

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
           s=hst.integers(1, 12), distribution=hst.sampled_from(["rademacher", "gaussian"]),
           seed=hst.integers(0, 2**32 - 1))
    @example(n=MIN_PARALLEL_DIM - 1, degree=10.0, graph_seed=2, kind=OperatorKind.DENSITY,
             n_v=130, s=10, distribution="rademacher", seed=0)
    @example(n=MIN_PARALLEL_DIM - 1, degree=10.0, graph_seed=2, kind=OperatorKind.DENSITY,
             n_v=MAX_BLOCK_WIDTH + 9, s=10, distribution="rademacher", seed=0)
    @settings(max_examples=60, deadline=None)
    def test_er_width_invariance(self, n, degree, graph_seed, kind, n_v, s, distribution,
                                 seed):
        g = erdos_renyi(n, min(degree, n - 1), graph_seed)
        if g.m == 0 and kind is OperatorKind.DENSITY:
            return  # the density matrix of an edgeless graph is undefined
        self._check(make_operator(g, kind), SlqConfig(n_v=n_v, s=s,
                                                      distribution=distribution, seed=seed))

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


def _fresh_probe(seed, index, n, distribution):
    """Probe index drawn at n entries, as the determinism contract defines it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    if distribution == "rademacher":
        return rng.integers(0, 2, size=n) * 2.0 - 1.0
    return rng.standard_normal(n)


class TestProbeBank:
    """Below MIN_PARALLEL_DIM, with at most MAX_BLOCK_WIDTH probes, probes
    come from one bank per process; every bit stays that of a fresh draw."""

    @pytest.mark.parametrize("distribution", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("seed", [0, 2**40 + 7])
    def test_rows_are_fresh_draws(self, seed, distribution):
        bank = _probe_bank(seed, distribution, 5)
        assert bank.shape == (5, MIN_PARALLEL_DIM - 1)
        for n in (1, 2, 7, 300, MIN_PARALLEL_DIM - 1):
            for i in range(5):
                assert np.array_equal(bank[i, :n], _fresh_probe(seed, i, n, distribution))

    def test_read_only(self):
        bank = _probe_bank(0, "rademacher", 3)
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 0.0

    @pytest.mark.parametrize("distribution", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("n", [1, 2, 300, MIN_PARALLEL_DIM - 1])
    @pytest.mark.parametrize("n_v,first,width", [(1, 0, BLOCK_WIDTH), (100, 0, 104),
                                                 (MAX_BLOCK_WIDTH, 8, BLOCK_WIDTH)])
    def test_start_block_bits_match_per_probe(self, monkeypatch, distribution, n, n_v,
                                              first, width):
        # the block lanczos_block receives equals the per-probe draw and
        # normalization bit for bit, zero-padded past the last probe
        starts = []
        monkeypatch.setattr(slq, "lanczos_block", lambda op, start, s: starts.append(start))
        op = LinearOperator(dim=n, apply=None, interval=(0.0, 1.0))
        cfg = SlqConfig(n_v=n_v, distribution=distribution, seed=11)
        _probe_block(op, cfg, first, width)
        expected = np.zeros((n, width))
        for j, index in enumerate(range(first, min(first + width, n_v))):
            v = _fresh_probe(cfg.seed, index, n, distribution)
            expected[:, j] = v / np.sqrt(np.einsum("i,i->", v, v))
        assert np.array_equal(starts[0], expected)

    @pytest.mark.parametrize("n,n_v", [(MIN_PARALLEL_DIM, 9), (300, MAX_BLOCK_WIDTH + 1)])
    def test_not_consulted_past_one_block(self, monkeypatch, n, n_v):
        def refuse(*args):
            raise AssertionError("probe bank consulted")

        monkeypatch.setattr(slq, "_probe_bank", refuse)
        op = make_operator(erdos_renyi(n, 6, seed=1), OperatorKind.NORMALIZED_LAPLACIAN)
        est = slq_trace(op, np.exp, SlqConfig(n_v=n_v, s=4, seed=2))
        assert est.per_vector.shape == (n_v,)

    def test_bytes_do_not_depend_on_history(self):
        # every run prints the bytes it prints in a new interpreter, whatever
        # the process computed before it: ER(300) again after ER(2047), ER(5),
        # another seed and law, and another n_v
        runs = [((300, 4, 1), {}), ((MIN_PARALLEL_DIM - 1, 10, 2), {}),
                ((5, 2, 0), {}), ((300, 4, 1), {"seed": 4, "distribution": "gaussian"}),
                ((300, 4, 1), {"n_v": 7})]
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
        for i in (0, 1, 0, 2, 0, 3, 0, 4, 0):
            args, kwargs = runs[i]
            g, cfg = erdos_renyi(*args), SlqConfig(**kwargs)
            out = (descriptor_to_json(netlsd_slq(g, cfg=cfg)) + "\n"
                   + descriptor_to_json(vnge_slq(g, cfg=cfg)) + "\n")
            assert out == fresh[i]

    def test_memory_bound(self):
        # 256 x 2047 float64 take 4.0 MiB; drawing adds one row at a time
        _probe_bank.cache_clear()
        tracemalloc.start()
        try:
            _probe_bank(0, "rademacher", MAX_BLOCK_WIDTH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _probe_bank.cache_clear()
        assert peak < MAX_BLOCK_WIDTH * (MIN_PARALLEL_DIM - 1) * 8 + 2**20


class TestGoldenBytes:
    """descriptor_to_json bytes of the default estimator, pinned to the
    per-block, per-point implementation that the one-block and tiled paths
    replaced (numpy 2.4 with OpenBLAS on x86-64)."""

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
