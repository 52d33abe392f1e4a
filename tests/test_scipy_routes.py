"""scipy's private routes (``spectrace._scipy``), each checked bit for bit
against its public twin on the installed scipy, and each fallback with the
private functions patched away."""

import contextlib
import functools
import importlib.util
import inspect
import itertools
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from spectrace import _scipy
from spectrace.descriptors import _kernel_deflated
from spectrace.errors import ConvergenceError
from spectrace.graphs import erdos_renyi
from spectrace.lanczos import extremal_eigenvalues
from spectrace.operators import OperatorKind, dense_spectrum, make_operator

from conftest import (
    algebra_csr,
    density_defined,
    disjoint_edges,
    eigsh_reference,
    patch_private,
    random_graph,
    run_fresh,
    stored_pair_graphs,
)


# whether this scipy's eigsh draws its random restarts from an rng argument
EIGSH_TAKES_RNG = "rng" in inspect.signature(scipy.sparse.linalg.eigsh).parameters


class TestCooRoute:
    """``coo_kernels`` against the product of the sparse algebra."""

    @pytest.mark.parametrize("columns", [False, True])
    def test_kernels_match_the_algebra(self, columns, monkeypatch):
        # a vector, a float64 block and a float32 block, each added into a
        # zeroed output by the kernels as a coo_matrix product does; with
        # coo_matmat_dense patched away, a block goes column by column
        if columns:
            patch_private(monkeypatch, coo_matmat_dense=None)
        matvec, matmat = _scipy.coo_kernels()
        assert (getattr(matmat, "func", None) is _scipy._by_columns) == columns
        rng = np.random.default_rng(51)
        for g in stored_pair_graphs():
            x = rng.standard_normal((g.n, 8))
            for kind in OperatorKind:
                if kind is OperatorKind.DENSITY and not density_defined(g):
                    continue
                for v in (x[:, 0].copy(), x, x.astype(np.float32)):
                    # weights of 1e300 round to inf in float32, on both sides
                    with np.errstate(over="ignore", invalid="ignore"):
                        coo = algebra_csr(g, kind).astype(v.dtype).tocoo()
                        out = np.zeros(v.shape, v.dtype)
                        if v.ndim == 1:
                            matvec(coo.nnz, coo.row, coo.col, coo.data, v, out)
                        else:
                            matmat(coo.nnz, v.shape[1], coo.row, coo.col, coo.data, v.ravel(),
                                   out)
                        assert out.tobytes() == (coo @ v).tobytes(), (g.n, kind, v.shape)

    def test_kernel_loads_by_file(self):
        # on every scipy: the extension leaves sys.modules as it found it,
        # and a later scipy.sparse import still sets its _sparsetools
        # attribute, to the module whose functions were loaded
        code = """
import sys
from spectrace import _scipy
module = _scipy._extension(_scipy._SPARSETOOLS)
kernels = (module.coo_matvec, getattr(module, "coo_matmat_dense", None))
print(sorted(name for name in sys.modules if name.startswith("scipy")))
import scipy.sparse
tools = scipy.sparse._sparsetools
print(kernels == (tools.coo_matvec, getattr(tools, "coo_matmat_dense", None)))
"""
        assert run_fresh(code) == ["[]", "True"]

    def test_kernel_loads_by_import_where_the_file_does_not(self):
        # a by-file load that fails imports the extension with scipy.sparse
        code = """
import importlib.util, sys
from spectrace import _scipy
def fail(*args, **kwargs):
    raise ImportError("extension cannot be loaded")
importlib.util.spec_from_file_location = fail
module = _scipy._extension(_scipy._SPARSETOOLS)
kernels = (module.coo_matvec, getattr(module, "coo_matmat_dense", None))
print("scipy.sparse" in sys.modules)
tools = sys.modules["scipy.sparse._sparsetools"]
print(kernels == (tools.coo_matvec, getattr(tools, "coo_matmat_dense", None)))
"""
        assert run_fresh(code) == ["True", "True"]


# the LAPACK routes of eigvalsh (see _lapack_path)
LAPACK_ROUTES = ["file", "import"]


@contextlib.contextmanager
def _lapack_path(route):
    """eigvalsh's LAPACK on one route: "file", scipy.linalg._flapack loaded
    from its file, as in a process that has not imported scipy.linalg;
    "import", the same module imported with scipy.linalg, as where the file
    cannot be loaded."""

    def fail(*args, **kwargs):
        raise ImportError("extension cannot be loaded")

    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(sys.modules, _scipy._FLAPACK, raising=False)
        # an import binds the package's attribute anew; restored on exit
        mp.setattr(scipy.linalg, "_flapack", scipy.linalg._flapack)
        if route == "import":
            mp.setattr(importlib.util, "spec_from_file_location", fail)
        _scipy._extension.cache_clear()
        try:
            module = _scipy._extension(_scipy._FLAPACK)
            assert (sys.modules.get(_scipy._FLAPACK) is module) == (route == "import")
            assert module.dsyevr is scipy.linalg._flapack.dsyevr
            yield
        finally:
            _scipy._extension.cache_clear()


class _FailingDsyevr:
    """A dsyevr that computes nothing and returns info."""

    typecode = "d"

    def __init__(self, info):
        self.info = info

    def __call__(self, a, **kwargs):
        return np.zeros(a.shape[0]), np.zeros((0, 0)), a.shape[0], np.zeros(0, np.int32), self.info


class TestLapackRoute:
    """``eigvalsh`` against ``scipy.linalg.eigvalsh(a, lower=True,
    overwrite_a=True)``."""

    @pytest.mark.parametrize("route", LAPACK_ROUTES)
    def test_dense_spectrum_keeps_its_bits_on_each_lapack_route(self, route):
        with _lapack_path(route):
            for g in stored_pair_graphs():
                for kind in OperatorKind:
                    if kind is OperatorKind.DENSITY and not density_defined(g):
                        continue
                    exact = scipy.linalg.eigvalsh(algebra_csr(g, kind).toarray(order="F"),
                                                  lower=True, overwrite_a=True)
                    assert dense_spectrum(g, kind).tobytes() == exact.tobytes(), (g.n, kind)

    def test_lapack_loads_by_file(self):
        # the extension leaves sys.modules as it found it, and a later
        # scipy.linalg import works and exposes the dsyevr that was loaded
        code = """
import sys
import numpy as np
from spectrace import _scipy
lapack = _scipy._extension(_scipy._FLAPACK)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
import scipy.linalg
print(lapack.dsyevr is scipy.linalg.get_lapack_funcs("syevr", dtype=np.float64))
print(scipy.linalg.eigvalsh([[2.0, 0.0], [0.0, 1.0]]).tolist())
"""
        assert run_fresh(code) == ["[]", "True", "[1.0, 2.0]"]

    def test_lapack_loads_by_import_where_the_file_does_not(self):
        code = """
import importlib.util, sys
from spectrace import _scipy
def fail(*args, **kwargs):
    raise ImportError("extension cannot be loaded")
importlib.util.spec_from_file_location = fail
lapack = _scipy._extension(_scipy._FLAPACK)
print("scipy.linalg" in sys.modules)
print(lapack is sys.modules["scipy.linalg._flapack"])
"""
        assert run_fresh(code) == ["True", "True"]

    @pytest.mark.parametrize("info", [1, 7, -1, -5])
    def test_lapack_failure_raises_scipys_message(self, info, monkeypatch):
        # for a standard problem: "Internal Error." or an illegal argument
        g = erdos_renyi(30, 4, 0)
        lwork = scipy.linalg.get_lapack_funcs("syevr_lwork", dtype=np.float64)
        with monkeypatch.context() as mp:
            mp.setattr(scipy.linalg._decomp, "get_lapack_funcs",
                       lambda names, arrays: (_FailingDsyevr(info), lwork))
            with pytest.raises(np.linalg.LinAlgError) as scipys:
                scipy.linalg.eigvalsh(np.eye(g.n), lower=True, overwrite_a=True)
        patch_private(monkeypatch, dsyevr=_FailingDsyevr(info))
        with pytest.raises(np.linalg.LinAlgError) as mine:
            dense_spectrum(g, OperatorKind.LAPLACIAN)
        assert str(mine.value) == str(scipys.value)


def _arpack_routines():
    """The driver's dsaupd_wrap and dseupd_wrap, or a skip where this scipy
    reaches ARPACK through eigsh only."""
    routines = _scipy._private(_scipy._ARPACKLIB, "dsaupd_wrap", "dseupd_wrap")
    if routines is None:
        pytest.skip("this scipy's ARPACK is reached through eigsh only")
    return routines


class TestArpackRoute:
    """``arpack_eigenvalues``, through ``extremal_eigenvalues``, against
    ``eigsh(..., return_eigenvectors=False)``."""

    @pytest.mark.parametrize("n,k,which", [(50, 5, "LA"), (12, 3, "SA"), (19, 9, "LA"),
                                           (3000, 50, "SA")])
    def test_driver_state_is_eigshs(self, n, k, which):
        # the state dict and arrays that eigsh builds for the same problem:
        # a scipy that changes them is caught here before any eigenvalue
        # bit moves
        from scipy.sparse.linalg._eigen import arpack

        v0 = np.random.default_rng(n).standard_normal(n)
        params = arpack._SymmetricArpackParams(n, k, "d", lambda x: x, mode=1, which=which,
                                               tol=0, v0=v0)
        if not hasattr(params, "arpack_dict"):
            pytest.skip("this scipy's ARPACK keeps no state dict")
        state, resid, *arrays = _scipy._arpack_state(n, k, which, v0)
        assert state == params.arpack_dict
        assert resid.tobytes() == params.resid.tobytes() and resid is not v0
        for mine, theirs in zip(arrays, (params.v, params.ipntr, params.workd, params.workl)):
            assert (mine.shape, mine.dtype) == (theirs.shape, theirs.dtype)

    def test_nonconvergence_carries_best_estimates_through_eigsh(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.array([0.7, 0.2]), None)

        patch_private(monkeypatch, dsaupd_wrap=None)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        rng = np.random.default_rng(10)
        g = random_graph(rng, n=60, p=0.2)
        op = make_operator(g, OperatorKind.NORMALIZED_LAPLACIAN)
        with pytest.raises(ConvergenceError) as exc_info:
            extremal_eigenvalues(op, 5, "smallest")
        assert np.array_equal(exc_info.value.best_estimates, [0.2, 0.7])

    @pytest.mark.parametrize("routine,info", [("dsaupd_wrap", -9), ("dsaupd_wrap", -9999),
                                              ("dsaupd_wrap", 3), ("dseupd_wrap", -14)])
    def test_arpack_failure_raises_scipys_message(self, routine, info, monkeypatch):
        # a nonzero info (other than dsaupd's 1) raises eigsh's ArpackError,
        # with its message for that routine
        _arpack_routines()
        arpack = _scipy._extension(_scipy._ARPACKLIB)
        real = getattr(arpack, routine)

        def failing(state, *args):
            real(state, *args)
            if routine == "dseupd_wrap" or state["ido"] == 99:
                state["info"] = info

        g = erdos_renyi(100, 4, 0)
        op = make_operator(g, OperatorKind.LAPLACIAN)
        package = sys.modules[_scipy._ARPACKLIB]
        for module in (arpack, package):
            monkeypatch.setattr(module, routine, failing)
        with pytest.raises(RuntimeError) as eigshs:
            eigsh_reference(op, 3, "largest")
        with pytest.raises(RuntimeError) as mine:
            extremal_eigenvalues(op, 3, "largest")
        assert type(mine.value) is type(eigshs.value)
        assert str(mine.value) == str(eigshs.value)
        assert str(mine.value).startswith(f"ARPACK error {info}: ")

    def test_driver_failure_is_replayed_by_eigsh(self, monkeypatch):
        # a failure injected into the driver's ARPACK only: eigsh replays
        # the problem on the package's intact ARPACK, with the same start
        # vector and restart generator, and its eigenvalues come back
        real, _ = _arpack_routines()
        # the replay draws eigsh's restarts from the driver's generator
        assert EIGSH_TAKES_RNG
        ends = []

        def unknown_error(state, *arrays):
            real(state, *arrays)
            if state["ido"] == 99:
                state["info"] = -9999
                ends.append(state["info"])

        def one_iteration(state, *arrays):
            state["maxiter"] = 1
            real(state, *arrays)
            if state["ido"] == 99:
                ends.append(state["info"])

        rng = np.random.default_rng(10)
        op = make_operator(random_graph(rng, n=60, p=0.2), OperatorKind.NORMALIZED_LAPLACIAN)
        for failing, info in ((unknown_error, -9999), (one_iteration, 1)):
            patch_private(monkeypatch, dsaupd_wrap=failing)
            for k, end in [(5, "smallest"), (20, "largest")]:
                ends.clear()
                mine = extremal_eigenvalues(op, k, end)
                assert ends == [info]
                assert mine.tobytes() == np.sort(eigsh_reference(op, k, end)).tobytes()

    def test_driver_failure_loads_scipy_sparse(self):
        # a successful call leaves scipy.sparse unloaded; a failure of the
        # driver's ARPACK loads it for eigsh's replay
        _arpack_routines()
        code = """
import sys
from spectrace import _scipy, lanczos
from spectrace.graphs import erdos_renyi
from spectrace.operators import OperatorKind, make_operator
op = make_operator(erdos_renyi(300, 4, 0), OperatorKind.LAPLACIAN)
mine = lanczos.extremal_eigenvalues(op, 5, "largest")
print("scipy.sparse" in sys.modules)
dsaupd, dseupd = _scipy._private(_scipy._ARPACKLIB, "dsaupd_wrap", "dseupd_wrap")

def failing(state, *arrays):
    dsaupd(state, *arrays)
    if state["ido"] == 99:
        state["info"] = -9999

real = _scipy._private
_scipy._private = lambda module, *names: ((failing, dseupd) if module == _scipy._ARPACKLIB
                                          else real(module, *names))
replayed = lanczos.extremal_eigenvalues(op, 5, "largest")
print("scipy.sparse" in sys.modules, replayed.tobytes() == mine.tobytes())
"""
        assert run_fresh(code) == ["False", "True True"]

    def test_driver_keeps_eigshs_bits(self):
        # the driver's eigenvalues equal eigsh's bit for bit
        rng = np.random.default_rng(3)
        weighted = random_graph(rng, n=80, p=0.1, weighted=True)
        er300 = erdos_renyi(300, 4, 1)
        deflated, _ = _kernel_deflated(
            er300, make_operator(er300, OperatorKind.NORMALIZED_LAPLACIAN))
        table = [(make_operator(g, kind), k, end)
                 for g in (erdos_renyi(300, 4, 0), erdos_renyi(2047, 10, 0))
                 for kind in (OperatorKind.LAPLACIAN, OperatorKind.NORMALIZED_LAPLACIAN)
                 for k in (1, 5) for end in ("smallest", "largest")]
        er3000 = make_operator(erdos_renyi(3000, 10, 0), OperatorKind.NORMALIZED_LAPLACIAN)
        table += [(er3000, 50, "smallest"), (er3000, 50, "largest")]
        table.append((make_operator(er300, OperatorKind.DENSITY), 1, "largest"))
        table += [(make_operator(weighted, OperatorKind.NORMALIZED_LAPLACIAN), 4, end)
                  for end in ("smallest", "largest")]
        table += [(deflated, 5, "smallest"), (deflated, 1, "smallest")]
        for op, k, end in table:
            mine = extremal_eigenvalues(op, k, end)
            assert mine.tobytes() == np.sort(eigsh_reference(op, k, end)).tobytes(), (
                op.dim, k, end)

    def test_restart_keeps_eigshs_bits(self, monkeypatch):
        # on restart cases the driver equals eigsh with the same generator;
        # at 10 disjoint K2 the smallest end is rounding noise about 0, and
        # each of six restart seeds gave eigsh other bits
        dsaupd, _ = _arpack_routines()
        restarts = []

        def counting(state, *arrays):
            dsaupd(state, *arrays)
            restarts.append(state["ido"] == 4)

        patch_private(monkeypatch, dsaupd_wrap=counting)
        table = [(30, 1, OperatorKind.LAPLACIAN), (30, 1, OperatorKind.NORMALIZED_LAPLACIAN)]
        table += itertools.product([10], (1, 3), OperatorKind)
        for c, k, kind in table:
            op = make_operator(disjoint_edges(c), kind)
            restarts.clear()
            mine = extremal_eigenvalues(op, k, "smallest")
            assert any(restarts)
            assert mine.tobytes() == np.sort(eigsh_reference(op, k, "smallest")).tobytes()

    def test_arpack_loads_by_file(self):
        # the extension and the driver leave no scipy module loaded, and a
        # later scipy.sparse.linalg import works and gives eigsh's bits
        _arpack_routines()
        code = """
import sys
import numpy as np
from spectrace import lanczos
from spectrace.graphs import erdos_renyi
from spectrace.operators import OperatorKind, make_operator
op = make_operator(erdos_renyi(300, 4, 0), OperatorKind.LAPLACIAN)
mine = lanczos.extremal_eigenvalues(op, 5, "largest")
print(sorted(name for name in sys.modules if name.startswith("scipy")))
from scipy.sparse.linalg import LinearOperator, eigsh
v0 = np.random.default_rng(np.random.SeedSequence(entropy=0x5EC7, spawn_key=(300, 5)))
vals = eigsh(LinearOperator((300, 300), matvec=op.apply, dtype=np.float64), 5, which="LA",
             v0=v0.standard_normal(300), return_eigenvectors=False)
print(np.sort(vals).tobytes() == mine.tobytes())
"""
        assert run_fresh(code) == ["[]", "True"]

    def test_arpack_without_the_driver_routines_is_eigsh(self, monkeypatch):
        # no _arpacklib (the Fortran ARPACK of older scipy), or one without
        # dsaupd_wrap and dseupd_wrap: _private gives None, and eigsh runs
        calls = []
        real = scipy.sparse.linalg.eigsh

        @functools.wraps(real)
        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
        op = make_operator(erdos_renyi(300, 4, 0), OperatorKind.LAPLACIAN)
        expected = np.sort(eigsh_reference(op, 5, "largest"))
        for name, module in [("scipy.sparse.linalg._eigen.arpack._no_such_module", None),
                             ("scipy.sparse.linalg._eigen.arpack.arpack", None)]:
            with monkeypatch.context() as mp:
                mp.setattr(_scipy, "_ARPACKLIB", name)
                try:
                    assert _scipy._private(name, "dsaupd_wrap", "dseupd_wrap") is module
                    calls.clear()
                    assert extremal_eigenvalues(op, 5, "largest").tobytes() == expected.tobytes()
                    assert len(calls) == 1 and ("rng" in calls[0]) == EIGSH_TAKES_RNG
                finally:
                    _scipy._extension.cache_clear()
