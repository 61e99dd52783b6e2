"""LP relaxation backends and the warm-start protocol.

Branch and bound needs to repeatedly solve LP relaxations that differ only in
variable bounds.  Two backends are provided:

* ``SIMPLEX`` — the pure-NumPy bounded-variable revised simplex in
  :mod:`repro.ilp.simplex`; the default for branch-and-bound node LPs,
  because it reoptimises each child from its parent's basis, and
* ``HIGHS`` — :func:`scipy.optimize.linprog` with the HiGHS method (fast and
  robust on cold solves); the default of the one-off :func:`solve_lp`,
  :func:`solve_lp_form` and IIS solves, the branch-and-bound fallback for a
  node the simplex fails on numerically, and an independent cross-check in
  the test-suite.

Both consume the :class:`~repro.ilp.matrix_form.MatrixForm` IR directly:
sparse forms hand their ``scipy.sparse`` CSR matrices straight to HiGHS (no
densification), and the simplex assembles its working matrix once per form
and caches it on the form, so every bounds-only
:meth:`~repro.ilp.matrix_form.MatrixForm.with_bounds` view (read: every
branch-and-bound node) reuses the same copy.

Backend choice: HiGHS wins on large cold solves (compiled code, presolve);
SIMPLEX wins on *sequences* of related small solves because it supports the
basis-reuse protocol below, which SciPy's ``linprog`` interface does not
expose.  This module runs no presolve of its own: HiGHS presolves
internally, and branch and bound reduces its form once per solve with
:func:`~repro.ilp.presolve.presolve_form` before any node LP.

The warm-start protocol: an optimal SIMPLEX solve returns its final basis in
:attr:`LpResult.basis`.  A caller about to solve a *related* problem (same
constraint matrix, different bounds — e.g. a branch-and-bound child node)
wraps that basis in a :class:`WarmStart` and passes it to
:func:`solve_lp_form`.  The simplex then reoptimises with dual pivots from
the parent basis instead of solving from scratch; a stale or invalid basis is
detected and silently falls back to a cold solve
(:attr:`LpResult.warm_start_used` reports what actually happened).  The
HIGHS backend ignores warm starts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.errors import SolverError
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import IlpModel
from repro.ilp.simplex import (
    SimplexBasis,
    SimplexResult,
    SimplexStatus,
    solve_form_simplex,
)
from repro.ilp.status import Solution, SolveStats, SolverStatus


class LpBackend(enum.Enum):
    """Which LP algorithm backs the relaxation solves."""

    HIGHS = "highs"
    SIMPLEX = "simplex"


@dataclass
class WarmStart:
    """Solver state carried from one LP solve to a related one.

    Currently holds the simplex basis; only the SIMPLEX backend consumes it.
    """

    basis: SimplexBasis | None = None


@dataclass
class LpResult:
    """Result of one LP relaxation solve (always in the model's own sense).

    Attributes:
        status: Solve outcome.
        values: Optimal assignment (empty when no solution).
        objective_value: Objective in the model's sense (NaN when no solution).
        basis: Final simplex basis on optimal SIMPLEX solves, reusable as a
            :class:`WarmStart` for related problems; ``None`` for HiGHS.
        iterations: Simplex iterations spent (0 for HiGHS).
        warm_start_used: Whether a supplied warm start was actually consumed
            rather than rejected (stale basis) or ignored (HiGHS).
        refactorizations: Basis refactorisations during the solve (SIMPLEX).
        eta_peak: Longest eta file between refactorisations (SIMPLEX).
        pricing: Pricing rule that drove the solve ("" for HiGHS).
    """

    status: SolverStatus
    values: np.ndarray
    objective_value: float
    basis: SimplexBasis | None = None
    iterations: int = 0
    warm_start_used: bool = False
    refactorizations: int = 0
    eta_peak: int = 0
    pricing: str = ""


def solve_lp_form(
    form: MatrixForm,
    backend: LpBackend = LpBackend.HIGHS,
    warm_start: WarmStart | None = None,
) -> LpResult:
    """Solve the LP relaxation of a matrix-form model as given (no presolve)."""
    if backend is LpBackend.HIGHS:
        return _solve_highs(form)
    return _solve_simplex(form, warm_start)


def solve_lp(
    model: IlpModel,
    backend: LpBackend = LpBackend.HIGHS,
    warm_start: WarmStart | None = None,
) -> Solution:
    """Solve the LP relaxation of ``model`` and wrap the result as a Solution.

    Uses the model's memoized matrix form, so repeated relaxation solves of
    the same model share one export (and one simplex working matrix).
    """
    form = model.to_matrix()
    result = solve_lp_form(form, backend, warm_start)
    stats = SolveStats(
        lp_solves=1,
        simplex_iterations=result.iterations,
        warm_start_hits=1 if result.warm_start_used else 0,
        refactorizations=result.refactorizations,
        eta_peak=result.eta_peak,
        pricing_rule=result.pricing,
    )
    if not result.status.has_solution:
        return Solution(result.status, stats=stats)
    return Solution(
        status=result.status,
        values=result.values,
        objective_value=result.objective_value,
        stats=stats,
    )


def _solve_highs(form: MatrixForm) -> LpResult:
    lower, upper = form.bound_arrays()
    # HiGHS accepts scipy.sparse matrices directly; a sparse form is passed
    # through without densification.
    result = linprog(
        c=form.c,
        A_ub=form.a_ub if form.a_ub.shape[0] else None,
        b_ub=form.b_ub if form.b_ub.size else None,
        A_eq=form.a_eq if form.a_eq.shape[0] else None,
        b_eq=form.b_eq if form.b_eq.size else None,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    if result.status == 0:
        return LpResult(SolverStatus.OPTIMAL, np.asarray(result.x), form.objective_from_min(result.fun))
    if result.status == 2:
        return LpResult(SolverStatus.INFEASIBLE, np.empty(0), float("nan"))
    if result.status == 3:
        return LpResult(SolverStatus.UNBOUNDED, np.empty(0), float("nan"))
    raise SolverError(f"HiGHS LP solve failed: {result.message}")


def _solve_simplex(form: MatrixForm, warm_start: WarmStart | None = None) -> LpResult:
    basis = warm_start.basis if warm_start is not None else None
    simplex_result: SimplexResult = solve_form_simplex(form, warm_start=basis)
    if simplex_result.status is SimplexStatus.OPTIMAL:
        return LpResult(
            SolverStatus.OPTIMAL,
            simplex_result.x,
            form.objective_from_min(simplex_result.objective),
            basis=simplex_result.basis,
            iterations=simplex_result.iterations,
            warm_start_used=simplex_result.warm_started,
            refactorizations=simplex_result.refactorizations,
            eta_peak=simplex_result.eta_peak,
            pricing=simplex_result.pricing,
        )
    status_map = {
        SimplexStatus.INFEASIBLE: SolverStatus.INFEASIBLE,
        SimplexStatus.UNBOUNDED: SolverStatus.UNBOUNDED,
        # NUMERICAL_ERROR is surfaced (not raised) so branch-and-bound can
        # retry the node cold rather than aborting — or worse, pruning — the
        # subtree.
        SimplexStatus.NUMERICAL_ERROR: SolverStatus.NUMERICAL_ERROR,
    }
    mapped = status_map.get(simplex_result.status)
    if mapped is None:
        raise SolverError("simplex LP solve did not converge")
    return LpResult(
        mapped,
        np.empty(0),
        float("nan"),
        iterations=simplex_result.iterations,
        warm_start_used=simplex_result.warm_started,
        refactorizations=simplex_result.refactorizations,
        eta_peak=simplex_result.eta_peak,
        pricing=simplex_result.pricing,
    )
