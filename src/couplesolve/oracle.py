"""Centralized reference solve of the stacked coupled program.

Stacks all agent blocks into one QP

    min 1/2 x' H x + c' x   s.t.  A x + B <= 0,  E x + G = 0,

with H block-diagonal and one row per coupled constraint, then solves it
exactly by active set, cold from the empty working set, with the lock-step
loop's own rules: each move is ``local_qp._moves``', a set is accepted by
``local_qp._accepted``, and a failure raises the loop's own diagnosis.  One
loop, ``_active_set``, runs on either of two evaluations of a working set.

Constraint space (``_ConstraintSpace``), when every agent block has a
Cholesky factor and every agent's rows have full row rank (LICQ).  Then the
stacked rows R = [A; E] have full row rank: a combination of rows that
vanishes vanishes on each agent's block, where the agent's independent rows
force zero weight on every row it stores, and every row has an agent.  So
S = R H^-1 R' is positive definite and R x = -offsets is solvable for every
offset: the program is feasible and its multipliers are unique.  Each
working set is one solve with S (the range-space method, Nocedal & Wright,
*Numerical Optimization*, 2nd ed., section 16.2, carried fully into the
m + q multipliers); x is recovered once, blockwise, and certified by the
KKT residuals.

Dense (``_dense_solve``), for every other input and for any answer the
constraint space cannot certify.  A Phase-1 linear program (minimize the sum
of constraint violations) decides feasibility first.  Stacked equality rows
may be linearly dependent when some agent's rows are; dependent-but-consistent
rows are reduced away and the returned multipliers are the least-squares
(minimum norm) ones, flagged as non-unique.  Each working set is one dense
KKT system, ``local_qp._kkt_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import linprog

from .exceptions import (DegenerateSubproblemError, DimensionMismatchError,
                         InfeasibleProblemError, SolverError)
from .local_qp import _accepted, _capped, _kkt_solve, _moves, _revisited, _singular
from .problem import ProblemSpec, licq_report

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


def _dense_kkt(h, c, rows, offsets, n_ineq, working):
    """``_kkt_solve`` of a working set of the stacked rows.

    ``rows`` and ``offsets`` hold the inequalities, then the equalities;
    ``working`` names inequality positions.  Returns (multipliers,
    inequality residuals, x), the multipliers in the system's order:
    equalities, then the working inequalities.  Raises ``_singular``'s
    diagnosis when the system has no solution.
    """
    sel = [*range(n_ineq, len(offsets)), *working]
    solved = _kkt_solve(h, c, rows[sel], -offsets[sel])
    if solved is None:
        raise _singular(h, rows[sel])
    x, mults = solved
    return mults, rows[:n_ineq] @ x + offsets[:n_ineq], x


def _active_set(evaluate, n_ineq):
    """The lock-step loop's active-set search on one program, cold from the empty set.

    ``evaluate(working)`` solves a working set's KKT system and returns
    (multipliers, inequality residuals, ...): the multipliers of the
    equalities, then of the working rows.  Each step is ``_moves``' (add the
    most violated free row, else drop the most negative working multiplier,
    lowest index on ties), a set ``_accepted`` ends the search, and the
    visited-set guard and the cap of 100 x max(1, m) sets raise what
    ``AgentBatch.solve_rows`` raises.  Returns (the accepted set's
    evaluation, working).
    """
    working, visited, cap = (), {()}, 100 * max(1, n_ineq)
    for _ in range(cap + 1):
        solved = evaluate(working)
        mults, residual = solved[:2]
        work = np.zeros(n_ineq, dtype=bool)
        work[list(working)] = True
        spread = np.zeros(n_ineq)  # the working multipliers at their rows
        spread[list(working)] = mults[len(mults) - len(working):]
        if _accepted(~work, work, residual, spread):
            return solved, working
        move = int(_moves(~work, work, residual, spread))
        if move < n_ineq:
            working = tuple(sorted((*working, move)))
        else:
            working = tuple(p for p in working if p != move - n_ineq)
        if working in visited:
            raise _revisited()
        visited.add(working)
    raise _capped(cap)


def _certified(worst) -> bool:
    """The certificate on (stationarity, primal_ineq, primal_eq,
    complementarity, dual): every KKT residual within 1e-8, no inequality
    multiplier below -1e-12."""
    return bool((np.asarray(worst) <= [1e-8, 1e-8, 1e-8, 1e-8, 1e-12]).all())


@dataclass(frozen=True)
class _Group:
    """The agents with one (block dimension d, row count k), stacked.

    ``index[a, r]`` is the position of agent ``agents[a]``'s row r among
    the m + q stacked rows (inequalities, then equalities); ``y`` holds
    H^-1 R_i' and ``x0`` the unconstrained minimizer -H^-1 c_i.
    """

    agents: np.ndarray   # (g,), 0-based
    index: np.ndarray    # (g, k)
    hessian: np.ndarray  # (g, d, d)
    linear: np.ndarray   # (g, d)
    rows: np.ndarray     # (g, k, d)
    offsets: np.ndarray  # (g, k)
    y: np.ndarray        # (g, d, k)
    x0: np.ndarray       # (g, d)

    def primal(self, nu) -> np.ndarray:
        """x_i = x0_i - H_i^-1 R_i' nu_i for every agent of the group."""
        return self.x0 - (self.y @ nu[self.index][..., None])[..., 0]

    def rows_at(self, x) -> np.ndarray:
        """R_i x_i + b_i for every agent of the group, from its (g, d) blocks x."""
        return (self.rows @ x[..., None])[..., 0] + self.offsets


class _ConstraintSpace:
    """The stacked program in its m + q multipliers, on positive definite
    blocks under per-agent LICQ.

    S = R H^-1 R' is a sum of per-agent k x k blocks R_i H_i^-1 R_i',
    scattered by constraint position, and r = R x0 + b a sum of per-agent
    vectors.  A working set W (the equalities and the working inequalities)
    costs one solve S[W, W] nu_W = r[W]; the inequality residuals at its
    solution are r[ineq] - S[ineq, W] nu_W.
    """

    def __init__(self, problem: ProblemSpec, groups: list[_Group]):
        cons = problem.constraints
        self.problem, self.groups = problem, groups
        self.m, size = cons.m_ineq, cons.m_ineq + cons.q_eq
        self.s = np.zeros((size, size))
        self.r = np.zeros(size)
        for g in groups:
            cells = g.index[:, :, None] * size + g.index[:, None, :]
            self.s += np.bincount(cells.ravel(), (g.rows @ g.y).ravel(),
                                  minlength=size * size).reshape(size, size)
            self.r += np.bincount(g.index.ravel(), g.rows_at(g.x0).ravel(), minlength=size)

    @classmethod
    def compile(cls, problem: ProblemSpec) -> "_ConstraintSpace | None":
        """The compiled program, or None off its premise: some block has no
        Cholesky factor, some agent's rows are linearly dependent
        (``licq_report`` on the groups' rows), or some row has no agent."""
        cons = problem.constraints
        m, size = cons.m_ineq, cons.m_ineq + cons.q_eq
        members = {}
        for a, obj in enumerate(problem.objectives):
            ineq, eq = cons.agent_rows(a + 1)
            stored = [*((l - 1, *ineq[l]) for l in sorted(ineq)),
                      *((m + l - 1, *eq[l]) for l in sorted(eq))]
            members.setdefault((obj.dim, len(stored)), []).append((a, stored))
        groups = []
        for (d, k), agent_rows in members.items():
            agents = np.array([a for a, _ in agent_rows])
            objectives = [problem.objectives[a] for a in agents.tolist()]
            hessian = np.array([obj.hessian for obj in objectives])
            try:
                chol = np.linalg.cholesky(hessian)
            except np.linalg.LinAlgError:
                return None
            linear = np.array([obj.linear for obj in objectives])
            stored = [row for _, rows in agent_rows for row in rows]
            index = np.array([l for l, _, _ in stored], dtype=int).reshape(len(agents), k)
            rows = np.array([coeffs for _, coeffs, _ in stored],
                            dtype=float).reshape(len(agents), k, d)
            offsets = np.array([off for _, _, off in stored],
                               dtype=float).reshape(len(agents), k)
            rhs = np.concatenate([rows.transpose(0, 2, 1), -linear[..., None]], axis=2)
            half = np.linalg.solve(chol, rhs)
            solved = np.linalg.solve(chol.transpose(0, 2, 1), half)
            groups.append(_Group(agents, index, hessian, linear, rows, offsets,
                                 solved[..., :k], solved[..., k]))
        licq = licq_report(problem.n_agents, ((g.agents, g.rows) for g in groups
                                              if g.rows.shape[1]))
        covered = np.bincount(np.concatenate([g.index.ravel() for g in groups]),
                              minlength=size).all()
        if not (licq.all_full_rank and covered):
            return None
        return cls(problem, groups)

    def evaluate(self, working):
        """(nu_W, inequality residuals) of a working set; raises LinAlgError
        when S[W, W] is singular."""
        sel = [*range(self.m, len(self.r)), *working]
        mults = np.linalg.solve(self.s[np.ix_(sel, sel)], self.r[sel])
        return mults, self.r[:self.m] - self.s[:self.m, sel] @ mults

    def solve(self) -> OracleSolution | None:
        """The certified solution, or None where the loop meets a singular
        S[W, W], cycles or runs out of iterations, or where the recovered x
        misses the certificate."""
        m, size = self.m, len(self.r)
        try:
            (mults, _), working = _active_set(self.evaluate, m)
        except (np.linalg.LinAlgError, DegenerateSubproblemError):
            return None
        nu = np.zeros(size)
        nu[m:] = mults[:size - m]
        nu[list(working)] = mults[size - m:]
        dims = self.problem.dims
        starts = np.cumsum([0, *dims[:-1]])
        x = np.zeros(sum(dims))
        value = sum(obj.constant for obj in self.problem.objectives)
        row_residual = np.zeros(size)
        stationarity = 0.0
        for g in self.groups:
            xg = g.primal(nu)
            x[starts[g.agents][:, None] + np.arange(xg.shape[1])] = xg
            hx = (g.hessian @ xg[..., None])[..., 0]
            value += float(np.sum(0.5 * (xg * hx).sum(1) + (g.linear * xg).sum(1)))
            grad = hx + g.linear + (nu[g.index][:, None, :] @ g.rows)[:, 0]
            stationarity = max(stationarity, np.abs(grad).max(initial=0.0))
            row_residual += np.bincount(g.index.ravel(), g.rows_at(xg).ravel(),
                                        minlength=size)
        mu, residual = nu[:m], row_residual[:m]
        worst = [stationarity, residual.max(initial=0.0),
                 np.abs(row_residual[m:]).max(initial=0.0),
                 np.abs(mu * residual).max(initial=0.0), max(0.0, -mu.min(initial=0.0))]
        if not _certified(worst):
            return None
        return OracleSolution(x=x, value=float(value), ineq_multipliers=mu,
                              eq_multipliers=nu[m:], active_set=tuple(p + 1 for p in working),
                              unique_multipliers=True)


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


def _dense_solve(problem: ProblemSpec) -> OracleSolution:
    """The oracle on the dense stacked program: Phase-1, the reduction of
    dependent equality rows, one dense KKT system per working set."""
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

    # Every block passed validation when the problem was built, so the
    # stacked Hessian is not checked again.
    m = a.shape[0]
    rows, offsets = np.vstack([a, e_red]), np.concatenate([b, g_red])
    (mults, residual, x), working = _active_set(
        partial(_dense_kkt, h, c, rows, offsets, m), m)

    mu = np.zeros(m)
    mu[list(working)] = mults[e_red.shape[0]:]
    lam_red = mults[:e_red.shape[0]]
    worst = np.array([np.abs(h @ x + c + a.T @ mu + e_red.T @ lam_red).max(initial=0.0),
                      residual.max(initial=0.0),
                      np.abs(e_red @ x + g_red).max(initial=0.0),
                      np.abs(mu * residual).max(initial=0.0),
                      max(0.0, -mu.min(initial=0.0))])
    if not _certified(worst):
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


def solve_centralized(problem: ProblemSpec) -> OracleSolution:
    """Exact optimizer, value and multipliers of the stacked program.

    In constraint space where its premise holds and its answer is
    certified (``_ConstraintSpace``); on the dense stacked program otherwise.
    """
    space = _ConstraintSpace.compile(problem)
    solved = space.solve() if space is not None else None
    return solved if solved is not None else _dense_solve(problem)


def duality_gap(problem: ProblemSpec, x: np.ndarray,
                ineq_multipliers, eq_multipliers) -> float:
    """f(x) minus the Lagrangian dual value at the given multipliers.

    The dual value separates per agent: each term is the unconstrained
    minimum of the agent's cost plus the multiplier-weighted shares of its
    constraint rows.  Returns +inf when some agent's Lagrangian is unbounded
    below (possible for semidefinite Hessians).  Raises
    DimensionMismatchError when a vector's length is not the program's.
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(ineq_multipliers, dtype=float)
    lam = np.asarray(eq_multipliers, dtype=float)
    cons = problem.constraints
    for name, value, expected in (("x", x, sum(problem.dims)),
                                  ("ineq_multipliers", mu, cons.m_ineq),
                                  ("eq_multipliers", lam, cons.q_eq)):
        if value.shape != (expected,):
            raise DimensionMismatchError(
                f"{name} has shape {value.shape}, expected ({expected},)")
    f_val = 0.0
    dual = 0.0
    for i, xi in enumerate(problem.split(x), start=1):
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
