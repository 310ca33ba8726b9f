"""Machine description and per-run noise readings, read-only from /proc and /sys."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(str(index / "size")).strip()
    return out


def _openblas_threads() -> int | None:
    """Ask the OpenBLAS library numpy loaded how many threads it will use."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    """Static facts about the host and the numeric stack; call after numpy loads."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def cpu_times() -> list[int]:
    """Aggregate jiffies from the first line of /proc/stat."""
    fields = _read("/proc/stat").splitlines()[0].split()[1:]
    return [int(x) for x in fields]


def noise_block(before: list[int], after: list[int]) -> dict:
    """Steal share of all CPU time between two cpu_times() readings, plus load."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already inside user
    steal = delta[7] if len(delta) > 7 else 0
    load = _read("/proc/loadavg").split()
    return {
        "steal_share": steal / total if total > 0 else 0.0,
        "loadavg_1m": float(load[0]) if load else None,
        "loadavg_5m": float(load[1]) if len(load) > 1 else None,
    }
