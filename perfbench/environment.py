"""What a results file records about the machine and the code it measured.

``limit_blas_threads`` must run before numpy is first imported: BLAS reads
its thread count from the environment when it loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def limit_blas_threads() -> None:
    """Default every BLAS thread variable to one thread; explicit settings stay.

    One thread, not ``nproc``: on a shared 2-vCPU machine two OpenBLAS
    threads spread more from run to run, and slow down by orders of
    magnitude when another process competes for the CPUs.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_library() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def git_commit(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from its files; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def describe(root: Path, seed: int) -> tuple[dict, list[str]]:
    """(environment record, warnings)."""
    import numpy

    cpus = nproc()
    threads = _blas_threads()
    env = {
        "nproc": cpus,
        "blas": {**_blas_library(), "threads": threads,
                 "env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "seed": seed,
    }
    warnings = []
    requested = [int(v) for v in env["blas"]["env"].values() if v and v.isdigit()]
    if max([threads or 0, *requested]) > cpus:
        warnings.append(f"BLAS threads (loaded: {threads}, requested: {requested}) exceed "
                        f"the {cpus} usable CPUs")
    return env, warnings
