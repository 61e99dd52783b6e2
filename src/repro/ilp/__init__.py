"""Linear and integer linear programming substrate.

The paper uses IBM CPLEX as a black-box ILP solver.  This subpackage provides
an equivalent black box implemented from scratch:

* :class:`~repro.ilp.model.IlpModel` — a sparse-friendly model of variables,
  linear constraints, bounds and a linear objective,
* :mod:`~repro.ilp.lp_backend` — LP relaxation solving through a pure-NumPy
  bounded-variable revised simplex that supports warm-started (dual)
  reoptimisation from an exported basis (the branch-and-bound default), or
  through SciPy's HiGHS (one-off cold solves and the numerical fallback),
* :mod:`~repro.ilp.presolve` — presolve/postsolve reductions on the matrix
  form (iterated bound propagation, fixed-variable elimination,
  redundant-row removal) with solution *and* basis mapping between the
  reduced and original spaces, run before the root LP of every solve,
* :class:`~repro.ilp.branch_and_bound.BranchAndBoundSolver` — an exact ILP
  solver (best-bound node order, most-fractional branching, a rounding
  heuristic) with basis reuse across the search tree and capacity/time
  budgets (the capacity budget emulates CPLEX running out of memory on huge
  problems, which the paper reports as DIRECT failures),
* :mod:`~repro.ilp.iis` — a simple irreducible-infeasible-set approximation
  (the paper mentions IIS as the mechanism for the "dropping partitioning
  attributes" mitigation of false infeasibility).
"""

from repro.ilp.matrix_form import DenseForm, MatrixForm
from repro.ilp.model import Constraint, ConstraintSense, IlpModel, Objective, ObjectiveSense, Variable
from repro.ilp.status import SolveStats, SolverStatus, Solution
from repro.ilp.lp_backend import LpBackend, WarmStart, solve_lp
from repro.ilp.presolve import Postsolve, PresolveResult, PresolveStats, presolve_form
from repro.ilp.simplex import SimplexBasis
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.iis import find_iis

__all__ = [
    "IlpModel",
    "MatrixForm",
    "DenseForm",
    "Variable",
    "Constraint",
    "ConstraintSense",
    "Objective",
    "ObjectiveSense",
    "Solution",
    "SolverStatus",
    "SolveStats",
    "LpBackend",
    "WarmStart",
    "SimplexBasis",
    "solve_lp",
    "presolve_form",
    "Postsolve",
    "PresolveResult",
    "PresolveStats",
    "BranchAndBoundSolver",
    "SolverLimits",
    "find_iis",
]
