"""The machine and code a result was measured on."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import subprocess
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int):
    """Size of the level-``level`` data or unified cache of CPU 0, from sysfs."""
    units = {"K": 1024, "M": 1024 ** 2}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (int((index / "level").read_text()) != level
                    or (index / "type").read_text().strip() == "Instruction"):
                continue
            size = (index / "size").read_text().strip()
            return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            continue
    return None


def _openblas_libs() -> dict:
    """ctypes handle of every OpenBLAS loaded into this process, by library file name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({path for path in (line.split()[-1] for line in fh)
                            if "openblas" in path.lower() and ".so" in path})
    except OSError:
        return {}
    libs = {}
    for path in paths:
        try:
            libs[Path(path).name] = ctypes.CDLL(path)
        except OSError:
            continue
    return libs


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process, by library file."""
    threads = {}
    for name, lib in _openblas_libs().items():
        getters = (getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                   for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))
        fn = next((g for g in getters if g is not None), None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads[name] = fn()
    return threads


def _blas(show_config) -> dict:
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit(root: Path):
    """Commit of the checkout at ``root``, or None outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def steal_seconds():
    """Time the hypervisor has held back from this machine's CPUs, summed, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def machine_info(root: Path, m) -> dict:
    import numpy
    import scipy

    kernels = getattr(m, "_kernels", None)
    backend = getattr(kernels, "backend_name", None)
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "blas_numpy": _blas(numpy.show_config),
        "blas_scipy": _blas(scipy.show_config),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "backend": backend() if callable(backend) else "numpy",
        "git_commit": _git_commit(root),
    }
