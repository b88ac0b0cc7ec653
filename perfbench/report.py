"""Statistics, correctness oracle and provenance shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values) -> dict:
    """The highest ladder percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile above the median qualifies and
    the median is reported; the chosen percentile and the number of samples
    beyond it are returned next to the value either way.
    """
    data = np.asarray(values, dtype=np.float64)
    chosen = TAIL_LADDER[-1]
    for percentile in TAIL_LADDER:
        if data.size * (100.0 - percentile) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            chosen = percentile
            break
    value = float(np.percentile(data, chosen))
    return {"percentile": chosen, "value": value, "samples": int(data.size),
            "samples_beyond": int(np.sum(data > value))}


def relative_residual(matrix: sp.spmatrix, rhs: np.ndarray,
                      solution: np.ndarray) -> float:
    """``||b - A x|| / ||b||`` recomputed with scipy."""
    residual = rhs - matrix @ solution
    return float(np.linalg.norm(residual) / np.linalg.norm(rhs))


def solution_ok(matrix, rhs, solution, converged: bool, rtol: float) -> bool:
    """The correctness oracle: converged and the true residual meets rtol."""
    return bool(converged) and relative_residual(matrix, rhs, solution) <= rtol


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def provenance(root: Path, seed: int) -> dict:
    """Host, toolchain and source identity of one run."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "workload_seed": int(seed),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2:
        return None
    toplevel, commit = lines
    return commit if Path(toplevel).resolve() == root.resolve() else None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
