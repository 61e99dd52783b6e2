"""What every benchmark record says about the code and machine behind it."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

#: The WAL flush policy every workload runs under.
WAL_FLUSH_POLICY = "fsync per commit (WriteAheadLog.append writes, then fsyncs, each record)"

_BURN_STEPS = 3_000_000


def _burn(steps: int) -> float:
    """Pure-Python CPU work; returns its own duration in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(steps):
        total += i * i
    return time.perf_counter() - start


def effective_parallelism(steps: int = _BURN_STEPS) -> float:
    """Speed-up of two concurrent CPU burns over one (2.0 = two free cores).

    The burns run in two plain forked children that are waited for before
    this returns.  (A ``multiprocessing`` spawn pool would also start a
    resource-tracker process that outlives the benchmark.)
    """
    single = _burn(steps)
    children: list[int] = []
    start = time.perf_counter()
    try:
        for _ in range(2):
            pid = os.fork()
            if pid == 0:  # child: burn, then leave without running any cleanup
                try:
                    _burn(steps)
                finally:
                    os._exit(0)
            children.append(pid)
    finally:
        for pid in children:
            os.waitpid(pid, 0)
    both = time.perf_counter() - start
    return 2.0 * single / both


def source_digest(root: Path) -> str:
    """SHA-256 over the engine's source files (stands in for the commit in
    checkouts that are not git repositories)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def engine_defaults() -> dict:
    """The solver and refine settings a default-constructed engine resolves to."""
    from repro.core.engine import PackageQueryEngine
    from repro.exec.pool import default_workers

    engine = PackageQueryEngine()
    solver = engine._direct.solver
    workers = engine._sketchrefine.config.workers
    return {
        "lp_backend": solver.lp_backend.value,
        "pricing": solver.pricing.value,
        "presolve": solver.presolve,
        "warm_start_lp": solver.warm_start_lp,
        "refine_workers": workers if workers is not None else default_workers(),
    }


def provenance(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "effective_parallelism": round(effective_parallelism(), 3),
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS"),
        "engine_defaults": engine_defaults(),
        "wal_flush_policy": WAL_FLUSH_POLICY,
    }
