"""Centralized reference solve of the stacked coupled program.

Stacks all agent blocks into one QP

    min 1/2 x' H x + c' x   s.t.  A x + B <= 0,  E x + G = 0,

with H block-diagonal and one row per coupled constraint, then solves it with
the same exact active-set machinery the agents use locally.  A Phase-1
linear program (minimize the sum of constraint violations) decides
feasibility first.  Stacked equality rows may be linearly dependent even when
every agent's local rows are independent; dependent-but-consistent rows are
reduced away and the returned multipliers are the least-squares (minimum
norm) ones, flagged as non-unique.

When every agent block has a Cholesky factor, the active-set loop solves each
working set through the Schur complement of the blocks (the range-space
method, Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 16.2);
otherwise (positive semidefinite blocks) through the dense KKT system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .exceptions import InfeasibleProblemError, SolverError
from .local_qp import LocalSubproblem, _kkt_solve, solve_kkt, verify_kkt
from .problem import AgentObjective, ProblemSpec

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class OracleSolution:
    x: np.ndarray
    value: float
    ineq_multipliers: np.ndarray
    eq_multipliers: np.ndarray
    active_set: tuple[int, ...]
    unique_multipliers: bool


def stacked_arrays(problem: ProblemSpec):
    """(H, c, constant, A, B, E, G) of the stacked program."""
    dims = problem.dims
    total = sum(dims)
    slices = problem.block_slices()
    h = np.zeros((total, total))
    c = np.zeros(total)
    const = 0.0
    for sl, obj in zip(slices, problem.objectives):
        h[sl, sl] = obj.hessian
        c[sl] = obj.linear
        const += obj.constant
    cons = problem.constraints
    a = np.zeros((cons.m_ineq, total))
    b = np.zeros(cons.m_ineq)
    e = np.zeros((cons.q_eq, total))
    g = np.zeros(cons.q_eq)
    for i in range(1, problem.n_agents + 1):
        ineq, eq = cons.agent_rows(i)
        for m, (coeffs, off) in ineq.items():
            a[m - 1, slices[i - 1]] = coeffs
            b[m - 1] += off
        for q, (coeffs, off) in eq.items():
            e[q - 1, slices[i - 1]] = coeffs
            g[q - 1] += off
    return h, c, const, a, b, e, g


class _StackedObjective(AgentObjective):
    """The block-diagonal sum of the agents' costs, not re-validated.

    Every block passed ``AgentObjective``'s checks when the problem was built
    and has a Cholesky factor; checking the stacked Hessian again would cost
    an O(n^3) eigendecomposition.
    """

    def __post_init__(self):
        pass


class _BlockKkt:
    """Working-set KKT solves of the stacked program through its blocks' factors.

    With the stacked rows R (inequalities, then equalities), Y = H^-1 R' and
    x0 = -H^-1 c, the KKT system of a working set W (the equalities and the
    working inequalities) reduces to the |W| x |W| Schur complement

        S[W, W] lam = r0[W] + offsets[W],   x = x0 - Y[:, W] lam,

    with S = R Y and r0 = R x0, all computed once.  It implements
    ``solve_kkt``'s ``qp`` protocol, so ``solve_kkt`` runs its one
    active-set loop on it.
    """

    def __init__(self, problem: ProblemSpec, h, c, rows):
        """Raises LinAlgError when some agent block is not positive definite."""
        cols_by_dim = {}
        for sl in problem.block_slices():
            cols_by_dim.setdefault(sl.stop - sl.start, []).append(range(sl.start, sl.stop))
        k = rows.shape[0]
        rhs = np.column_stack([rows.T, -c])
        solved = np.empty_like(rhs)
        self.blocks = []  # (columns (agents, dim), Hessian blocks (agents, dim, dim))
        for cols in map(np.array, cols_by_dim.values()):
            blocks = h[cols[:, :, None], cols[:, None, :]]
            chol = np.linalg.cholesky(blocks)
            half = np.linalg.solve(chol, rhs[cols])
            solved[cols] = np.linalg.solve(np.swapaxes(chol, -1, -2), half)
            self.blocks.append((cols, blocks))
        self.n_ineq = problem.constraints.m_ineq
        self.hessian, self.linear, self.rows = h, c, rows
        self.y, self.x0 = solved[:, :k], solved[:, k]
        self.schur = rows @ self.y
        self.r0 = rows @ self.x0

    def padded(self, ineq_offsets, eq_offsets) -> np.ndarray:
        return np.concatenate([ineq_offsets, eq_offsets])

    def kkt_solve(self, working: tuple, offsets):
        """``_kkt_solve`` of a working set: (x, multipliers) or None.

        The multipliers come in ``solve_kkt``'s order: equalities, then the
        working inequalities.  A set whose Schur complement is singular, or
        whose solution misses ``_kkt_solve``'s residual bound, is solved by
        ``_kkt_solve`` itself.
        """
        sel = [*range(self.n_ineq, len(offsets)), *working]
        rows, rhs = self.rows[sel], -offsets[sel]
        try:
            lam = np.linalg.solve(self.schur[np.ix_(sel, sel)], self.r0[sel] + offsets[sel])
        except np.linalg.LinAlgError:
            return _kkt_solve(self.hessian, self.linear, rows, rhs)
        x = self.x0 - self.y[:, sel] @ lam
        hx = np.empty_like(x)
        for cols, blocks in self.blocks:
            hx[cols] = np.einsum("aij,aj->ai", blocks, x[cols])
        # _kkt_solve's bound on the full KKT residual, without the dense matrix.
        sol = np.concatenate([x, lam])
        target = np.concatenate([-self.linear, rhs])
        residual = np.concatenate([hx + rows.T @ lam + self.linear, rows @ x - rhs])
        scale = 1.0 + np.abs(target).max(initial=0.0) + np.abs(sol).max(initial=0.0)
        if np.isfinite(sol).all() and np.abs(residual).max(initial=0.0) <= 1e-8 * scale:
            return x, lam
        return _kkt_solve(self.hessian, self.linear, rows, rhs)


def _phase1_violation(a, b, e, g, dim):
    """Minimal total constraint violation, via an LP over (x, slacks)."""
    m, q = a.shape[0], e.shape[0]
    if m == 0 and q == 0:
        return 0.0
    n = dim + m + 2 * q
    cost = np.concatenate([np.zeros(dim), np.ones(m + 2 * q)])
    a_ub = b_ub = a_eq = b_eq = None
    if m:
        a_ub = np.hstack([a, -np.eye(m), np.zeros((m, 2 * q))])
        b_ub = -b
    if q:
        a_eq = np.hstack([e, np.zeros((q, m)), -np.eye(q), np.eye(q)])
        b_eq = -g
    bounds = [(None, None)] * dim + [(0, None)] * (m + 2 * q)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        raise SolverError(f"Phase-1 feasibility search failed: {res.message}")
    return float(res.fun)


def solve_centralized(problem: ProblemSpec) -> OracleSolution:
    """Exact optimizer, value and multipliers of the stacked program."""
    h, c, const, a, b, e, g = stacked_arrays(problem)
    dim = h.shape[0]

    worst = _phase1_violation(a, b, e, g, dim)
    if worst > _FEAS_TOL:
        raise InfeasibleProblemError(
            f"coupled constraints are infeasible (Phase-1 violation {worst:.3e})"
        )

    # Reduce dependent equality rows; consistency is already settled by
    # Phase-1, so dependent rows only make multipliers non-unique.
    q = e.shape[0]
    unique = True
    if q:
        u, sv, _ = np.linalg.svd(e @ e.T)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
        if rank < q:
            unique = False
            basis = u[:, :rank]
            e_red, g_red = basis.T @ e, basis.T @ g
        else:
            basis = None
            e_red, g_red = e, g
    else:
        basis = None
        e_red, g_red = e, g

    # Positive definite blocks take the Schur-complement path; semidefinite
    # ones the dense KKT system, with the stacked Hessian validated whole.
    try:
        block = _BlockKkt(problem, h, c, np.vstack([a, e_red]))
    except np.linalg.LinAlgError:
        block = None
    objective = (AgentObjective if block is None else _StackedObjective)(h, c, const)
    sub = LocalSubproblem.build(
        objective,
        [(m + 1, a[m], b[m]) for m in range(a.shape[0])],
        [(k + 1, e_red[k], g_red[k]) for k in range(e_red.shape[0])],
    )
    sol = solve_kkt(sub, qp=block)
    report = verify_kkt(sub, sol)
    if not report.ok(tol=1e-8):
        raise SolverError(f"centralized KKT residuals too large: {report}")

    mu = np.array([sol.ineq_multipliers[m + 1] for m in range(a.shape[0])])
    lam_red = np.array([sol.eq_multipliers[k + 1] for k in range(e_red.shape[0])])
    lam = basis @ lam_red if basis is not None else lam_red
    return OracleSolution(
        x=sol.x,
        value=objective.value(sol.x),
        ineq_multipliers=mu,
        eq_multipliers=lam,
        active_set=sol.active_set,
        unique_multipliers=unique,
    )


def duality_gap(problem: ProblemSpec, x: np.ndarray,
                ineq_multipliers, eq_multipliers) -> float:
    """f(x) minus the Lagrangian dual value at the given multipliers.

    The dual value separates per agent: each term is the unconstrained
    minimum of the agent's cost plus the multiplier-weighted shares of its
    constraint rows.  Returns +inf when some agent's Lagrangian is unbounded
    below (possible for semidefinite Hessians).
    """
    mu = np.asarray(ineq_multipliers, dtype=float)
    lam = np.asarray(eq_multipliers, dtype=float)
    cons = problem.constraints
    f_val = 0.0
    dual = 0.0
    for i, xi in enumerate(problem.split(np.asarray(x, dtype=float)), start=1):
        obj = problem.objectives[i - 1]
        f_val += obj.value(xi)
        c_eff = obj.linear.copy()
        const_eff = obj.constant
        ineq, eq = cons.agent_rows(i)
        for m, (coeffs, off) in ineq.items():
            c_eff += mu[m - 1] * coeffs
            const_eff += mu[m - 1] * off
        for k, (coeffs, off) in eq.items():
            c_eff += lam[k - 1] * coeffs
            const_eff += lam[k - 1] * off
        xh, *_ = np.linalg.lstsq(obj.hessian, -c_eff, rcond=None)
        if np.max(np.abs(obj.hessian @ xh + c_eff), initial=0.0) > 1e-9 * (
                1.0 + np.abs(c_eff).max(initial=0.0)):
            return np.inf  # Lagrangian unbounded below in this block
        dual += 0.5 * xh @ obj.hessian @ xh + c_eff @ xh + const_eff
    return float(f_val - dual)
