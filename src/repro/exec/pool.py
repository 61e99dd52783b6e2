"""The worker-pool execution layer (the parallel solve plane).

A :class:`SolvePool` is a thin, deterministic abstraction over
:class:`concurrent.futures.ProcessPoolExecutor`:

* ``workers <= 1`` is a **serial fallback** — :meth:`SolvePool.map` runs the
  function in-process, in submission order, without ever creating an
  executor.  This is the reference execution every parallel run must match
  bit-for-bit.
* ``workers > 1`` fans the items out over worker processes and returns the
  results **in submission order** regardless of completion order, so callers
  can merge deterministically.  Single-item batches stay in-process: there is
  nothing to overlap and the serial path has no IPC cost.  Whether a larger
  batch is worth shipping at all is the caller's call (SKETCHREFINE keeps
  cheap refine batches in-process, see
  ``repro.core.sketchrefine.PARALLEL_MIN_BATCH_SECONDS``).
* a crashed worker (killed process, hard exit) surfaces as a clean
  :class:`~repro.errors.SolverError` instead of a hang, and the broken
  executor is discarded so the pool is usable again afterwards.  Exceptions
  *raised* by the mapped function propagate unchanged.

Coordination stays off the hot path (the PACMAN discipline): tasks are pure
functions of their picklable payloads, workers share nothing, and the only
synchronisation is collecting results.

The default worker count comes from the ``REPRO_WORKERS`` environment
variable (``1`` — serial — when unset), so CI can exercise the parallel plane
across the whole suite by exporting ``REPRO_WORKERS=2``.

Because executors are expensive to create and idle workers are cheap to keep,
pools are usually obtained through :func:`shared_pool`, which memoizes one
:class:`SolvePool` per worker count for the whole process.  Call
:func:`shutdown_shared_pools` to reap them (also registered ``atexit``).

Worker processes are started with the ``fork`` context when the platform
offers it: the fork inherits the loaded ``numpy``/``scipy`` pages instead of
re-importing them, which keeps pool start-up in the low milliseconds.  Tasks
must not rely on any inherited *mutable* global state — the task runner in
:mod:`repro.exec.tasks` reseeds the process-global RNG per task, and the
test-suite asserts task results are independent of it.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

from repro.errors import SolverError

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable giving the default worker count for a
#: default-constructed :class:`SolvePool` (and thus for the engine).
WORKERS_ENV_VAR = "REPRO_WORKERS"


def default_workers() -> int:
    """The worker count implied by the environment (``1`` = serial)."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None or not raw.strip():
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise SolverError(
            f"invalid {WORKERS_ENV_VAR}={raw!r}: expected an integer worker count"
        ) from exc
    return max(1, value)


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap start-up, inherits loaded libraries)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class SolvePool:
    """A worker pool with a deterministic serial fallback.

    Args:
        workers: Number of worker processes; ``None`` defers to the
            ``REPRO_WORKERS`` environment variable (default ``1``).  A value
            of ``1`` (or less) never spawns processes.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = default_workers() if workers is None else max(1, int(workers))
        self._executor: ProcessPoolExecutor | None = None

    # -- introspection ---------------------------------------------------------------

    @property
    def is_parallel(self) -> bool:
        """Whether this pool runs work in worker processes."""
        return self.workers > 1

    # -- execution -------------------------------------------------------------------

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply ``fn`` to every item, returning results in submission order.

        Serial pools (and single-item batches) run in-process.  Parallel
        pools submit every item up front — more tasks than workers simply
        queue inside the executor — and collect results in order, so the
        output is independent of scheduling.  ``fn`` and the items must be
        picklable for the parallel path (module-level functions, array-backed
        payloads).
        """
        items = list(items)
        if not self.is_parallel or len(items) <= 1:
            return [fn(item) for item in items]
        executor = self._ensure_executor()
        futures = [executor.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BrokenExecutor as exc:
            # A worker died (hard exit, OOM kill, ...).  The executor is
            # unusable; discard it so the next map() starts a fresh one.
            self.close()
            raise SolverError(
                f"a solve-pool worker crashed while executing {fn.__name__} "
                f"({self.workers} workers, {len(items)} tasks)"
            ) from exc

    # -- lifecycle -------------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_mp_context()
            )
        return self._executor

    def close(self) -> None:
        """Shut the executor down (idempotent; the pool stays usable)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "SolvePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._executor is not None else "idle"
        return f"SolvePool(workers={self.workers}, {state})"


#: Process-wide pools, one per worker count.  Evaluators share these so a
#: test-suite (or a service) creating many engines does not leak one executor
#: per engine.
_shared_pools: dict[int, SolvePool] = {}


def shared_pool(workers: int | None = None) -> SolvePool:
    """The process-wide :class:`SolvePool` for ``workers`` (memoized).

    ``None`` resolves through ``REPRO_WORKERS`` first, so the returned pool
    reflects the environment at call time.
    """
    count = default_workers() if workers is None else max(1, int(workers))
    pool = _shared_pools.get(count)
    if pool is None:
        pool = SolvePool(count)
        _shared_pools[count] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Close every memoized shared pool (they respawn lazily on next use)."""
    for pool in _shared_pools.values():
        pool.close()
    _shared_pools.clear()


atexit.register(shutdown_shared_pools)
