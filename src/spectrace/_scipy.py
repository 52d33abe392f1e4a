"""scipy's private entry points, each kept bit for bit equal to its public twin.

Three routes call scipy's compiled modules directly, so that the packages
around them, which cost start-up time and memory, are not imported. Each
gives its twin's bits, and each has a fallback:

==============================  ===============================  ==============================
route: private functions        public twin                      fallback, and its cost
==============================  ===============================  ==============================
``coo_kernels``:                the product of a ``coo_matrix``  the extension imported with
``_sparsetools.coo_matvec``,    with a vector or a block         ``scipy.sparse``, about 0.2 s;
``coo_matmat_dense``                                             a block column by column
``eigvalsh``:                   ``scipy.linalg.eigvalsh(a,       the extension imported with
``_flapack.dsyevr``,            lower=True, overwrite_a=True)``  ``scipy.linalg``, 22 MB of RSS
``dsyevr_lwork``
``arpack_eigenvalues``:         ``eigsh(A, k, which=which,       ``eigsh`` itself, which imports
``_arpacklib.dsaupd_wrap``,     v0=v0,                           ``scipy.sparse.linalg``: 163
``dseupd_wrap``                 return_eigenvectors=False)``     modules, 0.18-0.37 s, 33 MB
==============================  ===============================  ==============================

One loader and one rule serve all three. ``_extension`` finds a compiled
module: the package's own if the package has loaded it, else loaded from
its file, so that the package's init does not run, else imported with its
package (an editable install of scipy, for example), at the cost in the
table; None where the installed scipy has no such module. ``_private``
takes the named functions from it, or None where one is missing, and the
route then takes its fallback: a block product runs column by column
through ``coo_matvec`` in a scipy without ``coo_matmat_dense``, and ARPACK
runs through ``eigsh`` in one without ``_arpacklib``'s routines (scipy
1.10's ARPACK is the Fortran one); ``eigsh`` also replays any failure of
the driver.
``coo_matvec``, ``dsyevr`` and ``dsyevr_lwork`` are in every scipy that
this package supports. Costs were measured on a 2-core Xeon: the 22 MB in
a ``bench-error`` child on ER(3000, 10). ``tests/test_scipy_routes.py``
checks each route against its twin, and each fallback with the private
functions patched away, on the installed scipy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import inspect
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_SPARSETOOLS = "scipy.sparse._sparsetools"
_FLAPACK = "scipy.linalg._flapack"
_ARPACKLIB = "scipy.sparse.linalg._eigen.arpack._arpacklib"


def _extension_by_file(name: str):
    """The compiled scipy module ``name``, such as ``"scipy.sparse._sparsetools"``,
    loaded from its file, or None if the file cannot be found or loaded."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    *package, stem = name.split(".")[1:]
    folder = Path(scipy_spec.submodule_search_locations[0], *package)
    paths = (folder / f"{stem}{s}" for s in importlib.machinery.EXTENSION_SUFFIXES)
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        return None
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    finally:
        # the extension registers itself in sys.modules; left there
        # without its package, the package would later import it without
        # setting its own attribute for it
        sys.modules.pop(name, None)
    return module


@cache
def _extension(name: str):
    """The compiled scipy module ``name``: the package's own if the package
    has loaded it, else loaded from its file (``_extension_by_file``), else
    imported with its package; None where the installed scipy lacks it."""
    try:
        return sys.modules.get(name) or _extension_by_file(name) or importlib.import_module(name)
    except ImportError:
        return None


def _private(module: str, *names: str) -> tuple[Callable, ...] | None:
    """The functions ``names`` of scipy's compiled ``module``, looked up on
    each call, or None where the installed scipy lacks the module or any
    of them: the route then takes its fallback."""
    found = tuple(getattr(_extension(module), name, None) for name in names)
    return None if None in found else found


def _by_columns(matvec: Callable, nnz: int, width: int, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """``coo_matmat_dense(nnz, width, rows, cols, vals, x, out)`` through
    ``matvec``, one column at a time: each entry of out adds the same terms
    in the same order, so the bits are the same."""
    x = x.reshape(out.shape)
    for j in range(width):
        column = np.ascontiguousarray(out[:, j])
        matvec(nnz, rows, cols, vals, np.ascontiguousarray(x[:, j]), column)
        out[:, j] = column


def coo_kernels() -> tuple[Callable, Callable]:
    """scipy's compiled COO product kernels for a vector and for a block,
    with the signatures of ``coo_matvec`` and ``coo_matmat_dense``, which
    add ``A x`` into ``out``. In a scipy without ``coo_matmat_dense`` a
    block runs column by column through ``coo_matvec`` (``_by_columns``)."""
    kernels = _private(_SPARSETOOLS, "coo_matvec", "coo_matmat_dense")
    if kernels is None:
        (matvec,) = _private(_SPARSETOOLS, "coo_matvec")
        kernels = matvec, partial(_by_columns, matvec)
    return kernels


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of the symmetric matrix whose lower
    triangle is the (n, n) float64 Fortran-ordered array a, which LAPACK
    overwrites.

    This is the call that ``scipy.linalg.eigvalsh(a, lower=True,
    overwrite_a=True)`` makes, so the bits are the same: ``dsyevr`` with
    the workspace sizes of ``dsyevr_lwork``, converted to int as scipy
    does (``dsytrd``'s block size depends on them), and scipy's errors for
    a standard problem. Unlike scipy, it does not check that a is finite or
    that n > 0: its callers do.
    """
    dsyevr, dsyevr_lwork = _private(_FLAPACK, "dsyevr", "dsyevr_lwork")
    lwork, liwork, info = dsyevr_lwork(a.shape[0], lower=1)
    if info:
        raise ValueError(f"Internal work array size computation failed: {info}")
    w, _, _, _, info = dsyevr(a, compute_v=0, lower=1, lwork=int(lwork), liwork=int(liwork),
                              overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"Illegal value in argument {-info} of internal dsyevr"
                                    if info < -1 else "Internal Error.")
    return w


def _arpack_state(n: int, k: int, which: str, v0: np.ndarray) -> tuple:
    """``eigsh``'s initial state for dsaupd in mode 1, as ``(state, resid, v,
    ipntr, workd, workl)``: the state dict of scipy's ``_ArpackParams``
    (its ``arpack_dict``), ``resid`` a copy of v0, ``v`` of (n, max(2k + 1,
    20)) columns, whatever n is, with ncv clamped to n, ``maxiter`` 10n and
    ``tol`` 0."""
    columns = max(2 * k + 1, 20)  # eigsh's ncv, which sizes v unclamped
    ncv = min(columns, n)
    state = {
        "tol": 0, "getv0_rnorm0": 0.0, "aitr_betaj": 0.0, "aitr_rnorm1": 0.0,
        "aitr_wnorm": 0.0, "aup2_rnorm": 0.0, "ido": 0,
        "which": {"LA": 6, "SA": 7}[which], "bmat": 0, "info": 1, "iter": 0,
        "maxiter": 10 * n, "mode": 1, "n": n, "nconv": 0, "ncv": ncv,
        "nev": k, "np": 0, "shift": 1, "getv0_first": 0, "getv0_iter": 0,
        "getv0_itry": 0, "getv0_orth": 0, "aitr_iter": 0, "aitr_j": 0,
        "aitr_orth1": 0, "aitr_orth2": 0, "aitr_restart": 0, "aitr_step3": 0,
        "aitr_step4": 0, "aitr_ierr": 0, "aup2_initv": 0, "aup2_iter": 0,
        "aup2_getv0": 0, "aup2_cnorm": 0, "aup2_kplusp": 0, "aup2_nev": 0,
        "aup2_nev0": 0, "aup2_np0": 0, "aup2_numcnv": 0, "aup2_update": 0,
        "aup2_ushift": 0,
    }
    return (state, np.array(v0, dtype=np.float64), np.zeros((n, columns)),
            np.zeros(11, dtype=np.int32), np.zeros(3 * n), np.zeros(ncv * (ncv + 8)))


def _driver_eigenvalues(dsaupd: Callable, dseupd: Callable, apply: Callable, n: int, k: int,
                        which: str, v0: np.ndarray, restarts: np.random.Generator
                        ) -> np.ndarray | None:
    """k eigenvalues at one end, unsorted, from ARPACK's dsaupd and dseupd
    driven as ``eigsh`` drives them in mode 1, or None where ARPACK fails.

    The state and arrays are eigsh's (``_arpack_state``); each product
    that ARPACK requests (``ido`` 1 or 5, both y = A x in mode 1) goes
    through apply between the same slices of ``workd``. So the eigenvalues
    are eigsh's bit for bit. A random restart (``ido`` 4) draws
    ``uniform(-1, 1, n)`` from ``restarts``, as eigsh draws it from its
    ``rng``. Any nonzero ``info`` of dsaupd or dseupd, or an ``ido`` that
    mode 1 does not use, gives None: eigsh reports that failure itself.
    """
    state, resid, v, ipntr, workd, workl = _arpack_state(n, k, which, v0)
    while True:
        dsaupd(state, resid, v, ipntr, workd, workl)
        ido = state["ido"]
        if ido in (1, 5):
            workd[ipntr[1]:ipntr[1] + n] = apply(workd[ipntr[0]:ipntr[0] + n])
        elif ido == 4:
            resid[:] = restarts.uniform(low=-1.0, high=1.0, size=[n])
        elif ido == 99 and not state["info"]:
            break
        else:
            return None
    d, ncv = np.zeros(k), state["ncv"]
    dseupd(state, False, 0, np.zeros(ncv, dtype=np.int32), d, np.zeros((n, ncv), order="F"),
           0, resid, v, ipntr, workd, workl)
    return None if state["info"] else d[:state["nconv"]]


def _eigsh_eigenvalues(apply: Callable, n: int, k: int, which: str, v0: np.ndarray,
                       restarts: np.random.Generator) -> np.ndarray:
    """The same k eigenvalues from ``scipy.sparse.linalg.eigsh``; a random
    restart draws from ``restarts`` where eigsh takes an ``rng``."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    seeded = {"rng": restarts} if "rng" in inspect.signature(eigsh).parameters else {}
    matrix = LinearOperator((n, n), matvec=apply, dtype=np.float64)
    try:
        return eigsh(matrix, k, which=which, v0=v0, return_eigenvectors=False, **seeded)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"extremal eigenvalues did not converge: {exc}",
                               best_estimates=np.sort(exc.eigenvalues)) from exc


def arpack_eigenvalues(apply: Callable, n: int, k: int, which: str, v0: np.ndarray,
                       restart_seed: np.random.SeedSequence) -> np.ndarray:
    """k eigenvalues of the symmetric operator apply at one end (``which``
    "LA" or "SA"), unsorted, as ``eigsh(A, k, which=which, v0=v0,
    return_eigenvectors=False)`` returns them, with restarts drawn from
    ``restart_seed``.

    The driver (``_driver_eigenvalues``) runs ARPACK's compiled routines.
    Where scipy lacks them, or ARPACK fails, eigsh runs the same iteration,
    from the same start vector and a fresh generator on the same restart
    seed, and raises its own error: ``ConvergenceError``, with the
    converged estimates, or scipy's ``ArpackError``.
    """
    routines = _private(_ARPACKLIB, "dsaupd_wrap", "dseupd_wrap")
    vals = routines and _driver_eigenvalues(*routines, apply, n, k, which, v0,
                                            np.random.default_rng(restart_seed))
    if vals is None:
        vals = _eigsh_eigenvalues(apply, n, k, which, v0, np.random.default_rng(restart_seed))
    return vals
