"""The compiled loops: one library built from every C file beside this module.

``_rl_loop.c`` holds the serial RL / RLB factorization loops
(:func:`repro.numeric.rl._compiled_body`), ``_solve.c`` the serial
triangular sweeps (:func:`repro.solve.triangular.solve_in_place`) and
``_analysis.c`` the scalar loops of the symbolic analysis
(:func:`analysis_loops`: ``md_order`` for minimum degree, ``pp_vertex`` for
the pseudo-peripheral search and every breadth-first search, ``etree_liu``,
``post_order``, ``col_counts`` and ``amalg_merge``).  All three are
compiled together with ``$CC`` (default ``cc``) on first use, into ONE
shared library named by a hash of every source, kept in
``${XDG_CACHE_HOME:-~/.cache}/repro/`` and loaded once per process.  A cached
library that cannot be loaded (a truncated file) is rebuilt once.  Where
nothing can be built, :func:`rl_loop`, :func:`solve_loop` and
:func:`analysis_loops` are ``None`` and the callers run their Python bodies,
the same bits and the same plans.

Every entry point is declared here by name and argument types.  The factor
and solve loops get their BLAS / LAPACK routines from scipy's
``cython_blas`` / ``cython_lapack`` capsules: the library the f2py wrappers
of the Python bodies call; the analysis loops take int64 and pointer
arguments only.  A ``ctypes`` call releases the interpreter lock.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shlex
import subprocess
import tempfile
import types
from pathlib import Path

import numpy as np

__all__ = ["analysis_loops", "library", "rl_loop", "solve_loop"]

_SOURCES = sorted(Path(__file__).parent.glob("*.c"))

_DTYPES = ((np.dtype(np.float64), "d"), (np.dtype(np.float32), "s"))


def _cache_dir():
    """Where built libraries are kept: ``$XDG_CACHE_HOME/repro`` (default
    ``~/.cache/repro``), or a fresh private temporary directory when that
    cannot be written."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        if os.access(path, os.W_OK | os.X_OK):
            return path
    except OSError:
        pass
    return tempfile.mkdtemp(prefix="repro-")


def library_path():
    """The cached library's path: named by a hash of every C source and the
    machine, so a changed source never loads a stale build."""
    digest = hashlib.sha256(platform.machine().encode())
    for source in _SOURCES:
        digest.update(source.name.encode() + b"\0" + source.read_bytes())
    return os.path.join(_cache_dir(), f"_native-{digest.hexdigest()[:16]}.so")


def _build(path):
    """Compile every source to ``path``: into a temporary name beside it,
    then renamed, so processes that build at once each install a whole
    library (and one that loaded the old file keeps its mapping)."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        cc = shlex.split(os.environ.get("CC") or "cc")
        command = [*cc, "-O2", "-shared", "-fPIC", "-o", tmp, *map(str, _SOURCES)]
        subprocess.run(command, check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """The library, built when the cache has none and rebuilt once when the
    cached file does not load; raises when neither works."""
    path = library_path()
    if not os.path.exists(path):
        _build(path)
        return ctypes.CDLL(path)
    try:
        return ctypes.CDLL(path)
    except OSError:
        _build(path)
        return ctypes.CDLL(path)


@functools.cache
def library():
    """The loaded library (``ctypes.CDLL``), or ``None`` when it cannot be
    built or loaded."""
    try:
        return _load()
    except (OSError, subprocess.SubprocessError):
        return None


def _capsule_pointer(module, name):
    """The C function behind ``module.__pyx_capi__[name]`` (a Cython capsule)."""
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)
    name = get_name(("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    return get_pointer(("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)


def _entries(prefix, nints, nptrs, lapack, blas):
    """``{dtype: (function, routines)}`` of the entry points ``prefix + t``
    (``t`` = ``d`` / ``s``): ``nints`` ``int64`` arguments, then ``nptrs``
    pointers, an ``int64`` result; ``routines`` the dtype's ``lapack`` then
    ``blas`` routine addresses.  ``None`` without a library."""
    lib = library()
    if lib is None:
        return None
    try:
        from scipy.linalg import cython_blas, cython_lapack

        entries = {}
        for dtype, t in _DTYPES:
            fn = getattr(lib, prefix + t)
            fn.argtypes = [ctypes.c_int64] * nints + [ctypes.c_void_p] * nptrs
            fn.restype = ctypes.c_int64
            routines = [_capsule_pointer(cython_lapack, t + name) for name in lapack]
            routines += [_capsule_pointer(cython_blas, t + name) for name in blas]
            entries[dtype] = fn, routines
    except (ImportError, AttributeError, KeyError, ValueError):
        return None
    return entries


@functools.cache
def rl_loop():
    """``_rl_loop.c``'s ``rl_loop_d`` / ``rl_loop_s`` as ``{dtype:
    (function, [?potrf, ?trsm, ?syrk, ?gemm])}``, or ``None``."""
    return _entries("rl_loop_", 1, 25, ("potrf",), ("trsm", "syrk", "gemm"))


@functools.cache
def solve_loop():
    """``_solve.c``'s ``solve_loop_d`` / ``solve_loop_s`` as ``{dtype:
    (function, [?trtrs, ?gemm])}``, or ``None``."""
    return _entries("solve_loop_", 4, 8, ("trtrs",), ("gemm",))


#: ``_analysis.c``'s entry points: ``(int64 arguments, pointer arguments)``
_ANALYSIS = {
    "md_order": (2, 5),
    "pp_vertex": (3, 8),
    "etree_liu": (1, 4),
    "post_order": (1, 5),
    "col_counts": (1, 6),
    "amalg_merge": (2, 5),
}


def _arrays_by_address(fn):
    """``fn`` called with every ndarray argument passed as its address (the
    caller keeps the arrays alive, contiguous and of the declared dtype)."""

    def call(*args):
        return fn(*(a.ctypes.data if isinstance(a, np.ndarray) else a for a in args))

    return call


@functools.cache
def analysis_loops():
    """``_analysis.c``'s entry points as a namespace of functions (ndarray
    arguments by address, an ``int64`` result), or ``None``."""
    lib = library()
    if lib is None:
        return None
    loops = {}
    try:
        for name, (nints, nptrs) in _ANALYSIS.items():
            fn = getattr(lib, name)
            fn.argtypes = [ctypes.c_int64] * nints + [ctypes.c_void_p] * nptrs
            fn.restype = ctypes.c_int64
            loops[name] = _arrays_by_address(fn)
    except AttributeError:
        return None
    return types.SimpleNamespace(**loops)
