"""Timing summaries, memory probes and the environment record.

Stdlib-only (NumPy is not needed here), so the helpers are importable and
testable without the program under test.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Candidate tail percentiles, highest first.  A summary reports the highest
#: one that still has at least :data:`MIN_BEYOND` samples strictly beyond it.
PERCENTILE_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

#: Thread-count variables that BLAS/OpenMP runtimes read at load time.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def pin_blas_threads(environ=os.environ) -> None:
    """Pin every BLAS/OpenMP pool to one thread (call before importing NumPy)."""
    for name in BLAS_THREAD_VARS:
        environ[name] = "1"


def _rank(percentile: float, count: int) -> int:
    """Nearest rank, 1-based; the epsilon keeps 99.9 % of 10000 at 9990."""
    return max(1, math.ceil(percentile * count / 100.0 - 1e-9))


def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[_rank(percentile, len(ordered)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile leaving at least ``MIN_BEYOND`` samples above it.

    With nearest-rank, percentile ``p`` of ``n`` samples is the sample at rank
    ``ceil(p * n / 100)``; ``n - rank`` samples lie beyond it.  ``None`` when
    even the median has fewer than ``MIN_BEYOND`` samples beyond it.
    """
    for percentile in PERCENTILE_LADDER:
        if count - _rank(percentile, count) >= MIN_BEYOND:
            return percentile
    return None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median plus the highest well-supported tail percentile, with the count."""
    if not samples:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(samples)
    percentile = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "median": statistics.median(ordered),
        "tail_percentile": percentile,
        "tail": None if percentile is None else nearest_rank(ordered, percentile),
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Hand freed heap memory back to the kernel (glibc ``malloc_trim``), then
    lower this process's peak RSS to its current RSS (Linux ``clear_refs``
    mode 5).  :func:`peak_rss_mb` then covers only what runs after, and does
    not carry the high-water mark of an earlier, larger fit."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def uss_mb(pid: int) -> Optional[float]:
    """Private (unshared) memory of ``pid`` from ``/proc/<pid>/smaps_rollup``.

    Unlike RSS, USS does not count pages mapped from a shared-memory store in
    every process that maps them.  ``None`` when the file is unreadable.
    """
    private_kb = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    private_kb += int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return private_kb / 1024.0


def worker_pids(parent: int) -> List[int]:
    """Live direct children of ``parent`` other than multiprocessing's
    resource tracker, which exits with its parent (scans ``/proc``)."""
    workers = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(parent) \
                and b"resource_tracker" not in cmdline:
            workers.append(int(entry))
    return sorted(workers)


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (identifies a non-git checkout)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or ``unknown`` when ``root`` is not a git work tree."""
    try:
        completed = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                   cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = completed.stdout.split()
    if completed.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def environment(root: Path) -> Dict[str, object]:
    """Versions, CPU count, BLAS pins and source identity of this run."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
