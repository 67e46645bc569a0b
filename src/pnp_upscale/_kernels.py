"""scipy's two compiled kernels, loaded by file: every scipy decision of
the program.

The box solvers need pocketfft's DCT/DST (the preconditioners of
``cellcorrect.SpectralPCG``) and ``_sparsetools.dia_matvec`` (the products
of ``_fv.CompactDia``).  Their packages would load far more: ``scipy.fft``
loads ``scipy.special`` (about 0.1 s per process).  So ``load`` derives an
extension's file from its import name, through the scipy package and the
interpreter's extension suffixes, loads it by file under that name and
returns it only if its check passes.  When it returns None,
``box_transforms`` goes through ``scipy.fft`` and ``_fv`` through its numpy
product, both with the same bits.  The first box solver imports this
module, so the cell problems load neither kernel; without scipy it is a
``SolverError`` (``import_scipy``).
"""

from __future__ import annotations

import importlib.util
import os
from functools import cache, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .cellcorrect import SolverError

#: import names of scipy's compiled pocketfft and sparse-product modules
POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
SPARSETOOLS = "scipy.sparse._sparsetools"


def import_scipy(name: str):
    """The scipy module ``name``, imported when a box-grid solver first needs
    it; ``SolverError`` when scipy is not installed."""
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise SolverError(f"the box-grid solvers need {name}, but scipy cannot be "
                          f"imported: {exc}") from exc


def find_file(scipy_dir: str, name: str):
    """Path of the extension with import name ``name`` (``scipy.`` and the
    rest) in the scipy package at ``scipy_dir``, or None when there is none."""
    stem = os.path.join(scipy_dir, *name.split(".")[1:])
    for suffix in EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            return stem + suffix
    return None


def _r2r(transform, kind: int, axes, overwrite: bool = False):
    """``transform`` (pocketfft's dct or dst) of type ``kind`` over ``axes``,
    with the arguments ``scipy.fft`` passes for ``norm="ortho"``: norm code 1,
    ``out`` or a new output array (with ``overwrite``, the input array
    itself, as for ``overwrite_x=True``), one thread and the default
    orthogonalization."""
    return lambda x, out=None: transform(x, kind, axes, 1, x if overwrite else out, 1, None)


def _into(transform):
    """``transform`` writing its result into ``out`` when given, by a copy."""
    def call(x, out=None):
        if out is None:
            return transform(x)
        out[...] = transform(x)
        return out
    return call


def agrees(module) -> bool:
    """The 8-point DCT-II and DST-II of ``module`` and their inverses equal
    the dense orthonormal cosine and sine matrices to 1e-12, in 1D and over
    both axes in 2D."""
    n = 8
    k, j = np.arange(n)[:, None], np.arange(n) + 0.5
    cos = np.sqrt(2.0 / n) * np.cos(np.pi * k * j / n)
    cos[0] /= np.sqrt(2.0)
    sin = np.sqrt(2.0 / n) * np.sin(np.pi * (k + 1) * j / n)
    sin[-1] /= np.sqrt(2.0)
    x = np.cos(np.arange(n * n) ** 1.5).reshape(n, n)
    try:
        for name, mat in (("dct", cos), ("dst", sin)):
            transform = getattr(module, name)
            for axes, data, forward, inverse in (
                    ((0,), x[0], mat @ x[0], mat.T @ x[0]),
                    ((0, 1), x, mat @ x @ mat.T, mat.T @ x @ mat)):
                for kind, want in ((2, forward), (3, inverse)):
                    if not np.allclose(_r2r(transform, kind, axes)(data), want,
                                       rtol=0.0, atol=1e-12):
                        return False
    except (AttributeError, TypeError, ValueError, RuntimeError):
        return False
    return True


@cache
def load(scipy_dir: str, name: str, check):
    """The extension ``name`` loaded from its file in the scipy package at
    ``scipy_dir``, or None when the file is missing, fails to load or the
    module fails ``check``.  A later import of ``name`` gets this same module
    object back."""
    path = find_file(scipy_dir, name)
    if path is None:
        return None
    loader = ExtensionFileLoader(name, path)
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
    except ImportError:
        return None
    return module if check(module) else None


def box_transforms(name: str, ndim: int, overwrite: bool = False):
    """(forward, inverse): the orthonormal type-2 ``name`` ("dct" or "dst")
    over all ``ndim`` axes, and its inverse, the type 3.  With ``overwrite``
    each may write its result into its input array and return that, so the
    caller must own the input; without it each writes into ``out`` when
    given.  They call the kernel from ``load``, or ``scipy.fft`` when that is
    None.  Without scipy, ``SolverError``."""
    kernel = load(import_scipy("scipy").__path__[0], POCKETFFT, agrees)
    if kernel is None:
        fft = import_scipy("scipy.fft")
        return tuple(_into(partial(getattr(fft, prefix + name + "n"), type=2, norm="ortho",
                                   overwrite_x=overwrite)) for prefix in ("", "i"))
    transform, axes = getattr(kernel, name), tuple(range(ndim))
    return _r2r(transform, 2, axes, overwrite), _r2r(transform, 3, axes, overwrite)
