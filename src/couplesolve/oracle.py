"""Centralized reference solve of the stacked coupled program.

Stacks all agent blocks into one QP

    min 1/2 x' H x + c' x   s.t.  A x + B <= 0,  E x + G = 0,

with H block-diagonal and one row per coupled constraint, then solves it
exactly by active set, cold from the empty working set, with the lock-step
loop's own rules: each move is ``local_qp._moves``', a set is accepted by
``local_qp._accepted``, and a failure raises the loop's own diagnosis.  A
Phase-1 linear program (minimize the sum of constraint violations) decides
feasibility first.  Stacked equality rows may be linearly dependent even when
every agent's local rows are independent; dependent-but-consistent rows are
reduced away and the returned multipliers are the least-squares (minimum
norm) ones, flagged as non-unique.

When every agent block has a Cholesky factor, each working set is solved
through the Schur complement of the blocks (the range-space method, Nocedal &
Wright, *Numerical Optimization*, 2nd ed., section 16.2); otherwise (positive
semidefinite blocks) through the dense KKT system, ``local_qp._kkt_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import linprog

from .exceptions import InfeasibleProblemError, SolverError
from .local_qp import _accepted, _capped, _kkt_solve, _moves, _revisited, _singular
from .problem import ProblemSpec

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


class _BlockKkt:
    """Working-set KKT solves of the stacked program through its blocks' factors.

    With the stacked rows R (inequalities, then equalities), Y = H^-1 R' and
    x0 = -H^-1 c, the KKT system of a working set W (the equalities and the
    working inequalities) reduces to the |W| x |W| Schur complement

        S[W, W] lam = r0[W] + offsets[W],   x = x0 - Y[:, W] lam,

    with S = R Y and r0 = R x0, all computed once.  Its ``kkt_solve`` is
    the oracle loop's evaluator on positive definite blocks.
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

    def kkt_solve(self, working: tuple, offsets):
        """``_kkt_solve`` of a working set: (x, multipliers) or None.

        The multipliers come in ``_dense_kkt``'s order: equalities, then the
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


def _dense_kkt(h, c, rows, n_ineq, working, offsets):
    """``_kkt_solve`` of a working set of the stacked rows: (x, multipliers) or None.

    ``rows`` and ``offsets`` hold the inequalities, then the equalities;
    ``working`` names inequality positions.  The multipliers come in the
    system's order: equalities, then the working inequalities.
    """
    sel = [*range(n_ineq, len(offsets)), *working]
    return _kkt_solve(h, c, rows[sel], -offsets[sel])


def _active_set(evaluate, h, rows, offsets, n_ineq):
    """The lock-step loop's active-set search on one program, cold from the empty set.

    ``evaluate(working, offsets)`` solves a working set's KKT system:
    (x, multipliers) or None when it is singular.  Each step is
    ``_moves``' (add the most violated free row, else drop the most negative
    working multiplier, lowest index on ties), a set ``_accepted`` ends the
    search, and the visited-set guard and the cap of 100 x max(1, m) sets
    raise what ``AgentBatch.solve_rows`` raises.  Returns (x, multipliers,
    working).
    """
    a, b, n_eq = rows[:n_ineq], offsets[:n_ineq], len(rows) - n_ineq
    working, visited, cap = (), {()}, 100 * max(1, n_ineq)
    for _ in range(cap + 1):
        solved = evaluate(working, offsets)
        if solved is None:
            raise _singular(h, rows[[*range(n_ineq, len(rows)), *working]])
        x, mults = solved
        work = np.zeros(n_ineq, dtype=bool)
        work[list(working)] = True
        spread = np.zeros(n_ineq)  # the working multipliers at their rows
        spread[list(working)] = mults[n_eq:]
        residual = a @ x + b
        if _accepted(~work, work, residual, spread):
            return x, mults, working
        move = int(_moves(~work, work, residual, spread))
        if move < n_ineq:
            working = tuple(sorted((*working, move)))
        else:
            working = tuple(p for p in working if p != move - n_ineq)
        if working in visited:
            raise _revisited()
        visited.add(working)
    raise _capped(cap)


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
    basis, e_red, g_red = None, e, g
    if e.shape[0]:
        u, sv, _ = np.linalg.svd(e @ e.T)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
        if rank < e.shape[0]:
            basis = u[:, :rank]
            e_red, g_red = basis.T @ e, basis.T @ g

    # Positive definite blocks take the Schur-complement path, semidefinite
    # ones the dense KKT system.  Every block passed validation when the
    # problem was built, so the stacked Hessian is not checked again.
    m = a.shape[0]
    rows, offsets = np.vstack([a, e_red]), np.concatenate([b, g_red])
    try:
        evaluate = _BlockKkt(problem, h, c, rows).kkt_solve
    except np.linalg.LinAlgError:
        evaluate = partial(_dense_kkt, h, c, rows, m)
    x, mults, working = _active_set(evaluate, h, rows, offsets, m)

    mu = np.zeros(m)
    mu[list(working)] = mults[e_red.shape[0]:]
    lam_red = mults[:e_red.shape[0]]
    # The certificate: every KKT residual within 1e-8, no inequality
    # multiplier below -1e-12.
    residual = a @ x + b
    worst = np.array([np.abs(h @ x + c + a.T @ mu + e_red.T @ lam_red).max(initial=0.0),
                      residual.max(initial=0.0),
                      np.abs(e_red @ x + g_red).max(initial=0.0),
                      np.abs(mu * residual).max(initial=0.0),
                      max(0.0, -mu.min(initial=0.0))])
    if not (worst <= [1e-8, 1e-8, 1e-8, 1e-8, 1e-12]).all():
        raise SolverError("centralized KKT residuals too large: " + ", ".join(
            f"{name} {value:.3e}" for name, value in zip(
                ("stationarity", "primal_ineq", "primal_eq", "complementarity", "dual"),
                worst)))

    lam = basis @ lam_red if basis is not None else lam_red
    return OracleSolution(
        x=x,
        value=float(0.5 * x @ h @ x + c @ x + const),
        ineq_multipliers=mu,
        eq_multipliers=lam,
        active_set=tuple(p + 1 for p in working),
        unique_multipliers=basis is None,
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
