"""Provenance of a result, and the report-only cross-check against the
baseline table in ROADMAP.md."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
from pathlib import Path

import numpy as np
import scipy


_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process (numpy's and
    scipy's may differ), keyed by library file name."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in paths:
                paths.append(path)
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def l3_bytes() -> int | None:
    """Size of the last-level (index 3) cache of cpu0, from sysfs."""
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if not path.exists():
        return None
    text = path.read_text().strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
    return int(text.rstrip("KMG")) * scale


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a
    repository (the benchmark also runs from a plain copy of the tree)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(root: Path, seed: int, working_set: dict) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    l3 = l3_bytes()
    ws = dict(working_set)
    if l3:
        ws["l3_mb"] = l3 / 1e6
        ws["mask_over_l3"] = ws["mask_mb"] / ws["l3_mb"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "seed": seed,
        "working_set_mb": ws,
    }


# ROADMAP.md baseline table (acceptance config, 2 vCPU, single runs).
BASELINE_DRAW_MS = {"x6": (47.0, 50.0), "x2": (34.0, 34.0), "x12": (29.0, 29.0)}
BASELINE_TRAIN_S_PER_ROUND = 21.2 / 265


def _quartile_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 4:
        return float("inf")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _compare(name, samples, lo, hi) -> dict:
    measured = statistics.median(samples)
    nearest = min(max(measured, lo), hi)
    gap = measured / nearest - 1.0
    noise = _quartile_spread(samples)
    return {"name": name, "measured": measured, "baseline": [lo, hi],
            "gap": gap, "noise": noise, "flag": abs(gap) > noise}


def crosscheck(draw_ms: dict[str, list[float]], round_s: list[float]) -> list[dict]:
    """Per-draw ms of x6, x2, x12 and train seconds per round against the
    baseline table. ``gap`` is the relative distance to the baseline range;
    ``noise`` is the interquartile spread of this run's own samples, and
    ``flag`` marks a gap larger than that noise. Nothing gates on it."""
    out = []
    for feature, (lo, hi) in BASELINE_DRAW_MS.items():
        if draw_ms.get(feature):
            out.append(_compare(f"draw_ms.{feature}", draw_ms[feature], lo, hi))
    if round_s:
        b = BASELINE_TRAIN_S_PER_ROUND
        out.append(_compare("train_s_per_round", round_s, b, b))
    return out
