"""Centralized reference solve of the stacked coupled program.

Stacks all agent blocks into one QP

    min 1/2 x' H x + c' x   s.t.  A x + B <= 0,  E x + G = 0,

with H block-diagonal and one row per coupled constraint, then solves it
exactly by active set from the empty working set.  ``local_qp._accepted``
ends every search, and one blockwise check, ``_certificate``, certifies
every answer and gives its value (``objective_value``): each KKT residual
within 1e-8 (1e-12 for a negative multiplier) times max(1, the terms it
compares).  Both paths read ``ProblemSpec.blocks``.

Constraint space (``_ConstraintSpace``), when every block has the problem's
Cholesky solve (``ProblemSpec.block_solves``) and the rank premise holds
(``_independent_rows``): every agent's rows have full row rank (LICQ) and
every row has an agent.  Then the stacked rows R = [A; E] have full row
rank: a combination of rows that vanishes vanishes on each agent's block,
where the agent's independent rows force zero weight on every row it
stores.  So R x = -offsets is solvable for every offset, whatever the
blocks: the program is feasible.  With the factors, S = R H^-1 R' is
positive definite and the multipliers are unique.  Each working set is one
solve with S (the range-space method, Nocedal & Wright, *Numerical
Optimization*, 2nd ed., section 16.2, carried fully into the m + q
multipliers); x is recovered once, by ``lagrangian_minimizer``.  The
primal-dual proposals, ``_primal_dual``, search: each step replaces the
whole working set, and they give up on a repeated set or at a cap.  On
the benchmark's ring at 400 / 1200 / 2400 agents they take 3 / 2 / 3
working sets where a cold primal active-set loop takes 44 / 153 / 305, and
``solve_centralized`` 2.1 / 8.3 / 24 ms where that loop alone took 5.8 /
87 / 753 ms (in-process, one BLAS thread, a shared 2-core x86_64 host).

Dense (``_dense_solve``), for every other input and for any answer the
constraint space does not give: the proposals gave up, met a singular
S[W, W] or missed the certificate.  Off the rank premise, a Phase-1 linear
program (minimize the sum of constraint violations) decides feasibility
first; under it, the premise has already decided it.  Dependent but
consistent equality rows are reduced away; the multipliers are then the
least-squares (minimum norm) ones, flagged as non-unique.  The reduced
program, held by one agent, is one row of ``local_qp.AgentBatch.solve_rows``
from the empty working set: the package's one active-set loop, with its
diagnoses of an unbounded or degenerate program.

``duality_gap`` scores the same minimizer in the one cost arithmetic.
``feasible_slack_from_primal`` turns a point the certificate accepts into
the slack allocation whose per-agent rows reproduce it: the optimal
allocation, from the oracle's optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .exceptions import (DimensionMismatchError, DisconnectedSubgraphError,
                         InfeasibleProblemError, SolverError, ValidationError)
from .graph import Graph, SlackState, build_weights, induce_topology
from .local_qp import AgentBatch, _accepted
from .problem import (AgentObjective, CouplingConstraints, ProblemSpec, agent_shares,
                      aggregate_violation, lagrangian_minimizer, objective_value, row_shares,
                      validate_licq)

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
    """(H, c, constant, A, B, E, G) of the stacked program, scattered from
    ``problem.blocks``: the offsets B and G are the residuals at x = 0."""
    cons, n = problem.constraints, sum(problem.dims)
    h, c, rows = np.zeros((n, n)), np.zeros(n), np.zeros((cons.m_ineq + cons.q_eq, n))
    for b in problem.blocks:
        h[b.columns[:, :, None], b.columns[:, None, :]] = b.hessian
        c[b.columns] = b.linear
        rows[b.index[:, :, None], b.columns[:, None, :]] = b.rows
    ineq, eq = aggregate_violation(problem, np.zeros(n))
    return (h, c, sum(obj.constant for obj in problem.objectives),
            rows[:cons.m_ineq], ineq, rows[cons.m_ineq:], eq)


_PDAS_STEPS = 20  # the working sets the primal-dual proposals may try


def _primal_dual(evaluate, n_ineq):
    """Primal-dual active-set proposals (Hintermueller, Ito & Kunisch, SIAM
    J. Optim. 13(3), 2002), from the empty set: each step proposes every
    inequality p with nu_p + residual_p > 0, a working row's residual counted
    as 0 so that roundoff cannot toggle it.  ``evaluate(working)`` solves a
    working set's KKT system and returns (multipliers, inequality
    residuals): the multipliers of the equalities, then of the working rows.
    ``_accepted`` decides each set.  Returns (the accepted set's evaluation,
    working), or None when a proposal repeats a set or ``_PDAS_STEPS`` sets
    pass without one accepted.
    """
    working, visited = (), set()
    for _ in range(_PDAS_STEPS):
        visited.add(working)
        solved = evaluate(working)
        mults, residual = solved
        work = np.zeros(n_ineq, dtype=bool)
        work[list(working)] = True
        spread = np.zeros(n_ineq)  # the working multipliers, at their rows
        spread[list(working)] = mults[len(mults) - len(working):]
        if _accepted(~work, work, residual, spread):
            return solved, working
        working = tuple(np.flatnonzero(spread + np.where(work, 0.0, residual) > 0).tolist())
        if working in visited:
            return None
    return None


_KKT_TOL = 1e-8    # the certificate's bound on each KKT residual, relative to its terms
_DUAL_TOL = 1e-12  # and on a negative inequality multiplier, relative to the multipliers


def _certificate(problem: ProblemSpec, x, nu):
    """The stacked program at (x, nu), block by block: (value, worst, size).

    ``nu`` holds the m + q multipliers (inequalities, then equalities).
    ``worst`` is (stationarity, primal_ineq, primal_eq, complementarity,
    dual), and ``size`` the largest term each compares: |H_i x_i|, |c_i| or
    |R_i' nu_i|; a share |R_i x_i| or |b_i| (both row residuals); that times
    the largest |mu|; the largest |mu|.  Offsets and linear terms times s
    give x and nu times s, and scale each residual with its size.
    """
    m = problem.constraints.m_ineq
    stationarity = gradient_size = row_size = 0.0
    for b in problem.blocks:
        xb = x[b.columns]
        hx = (b.hessian @ xb[..., None])[..., 0]
        pull = (nu[b.index][:, None, :] @ b.rows)[:, 0]
        stationarity = max(stationarity, np.abs(hx + b.linear + pull).max(initial=0.0))
        gradient_size = max(gradient_size, *(np.abs(t).max(initial=0.0)
                                             for t in (hx, b.linear, pull)))
        row_size = max(row_size, np.abs(row_shares(b.rows, 0.0, xb)).max(initial=0.0),
                       np.abs(b.offsets).max(initial=0.0))
    mu, (residual, eq_residual) = nu[:m], aggregate_violation(problem, x)
    mu_size = np.abs(mu).max(initial=0.0)
    worst = [stationarity, residual.max(initial=0.0), np.abs(eq_residual).max(initial=0.0),
             np.abs(mu * residual).max(initial=0.0), max(0.0, -mu.min(initial=0.0))]
    return objective_value(problem, x), worst, [gradient_size, row_size, row_size,
                                                mu_size * row_size, mu_size]


def _certified(worst, size) -> bool:
    """Each residual of ``_certificate`` within its bound times max(1, its size)."""
    bound = np.array([_KKT_TOL] * 4 + [_DUAL_TOL]) * np.maximum(1.0, size)
    return bool((np.asarray(worst) <= bound).all())


def _independent_rows(problem: ProblemSpec) -> bool:
    """The rank premise: every agent's rows have full row rank (the problem's
    ``validate_licq`` report) and every row has an agent.  Then the stacked
    rows R have full row rank, and every offset is feasible."""
    cons = problem.constraints
    stored = np.concatenate([b.index.ravel() for b in problem.blocks])
    return bool(validate_licq(problem).all_full_rank
                and np.bincount(stored, minlength=cons.m_ineq + cons.q_eq).all())


class _ConstraintSpace:
    """The stacked program in its m + q multipliers, on positive definite
    blocks under per-agent LICQ.

    S = R H^-1 R' is a sum of per-agent k x k blocks R_i H_i^-1 R_i',
    each block's summed per distinct cell of S and then added in by
    constraint position, and r = R x0 + b a sum of per-agent
    vectors, from the problem's ``block_solves`` y = H^-1 R_i' and
    x0 = -H^-1 c_i.  A working set W (the equalities and the working
    inequalities) costs one solve S[W, W] nu_W = r[W]; the inequality
    residuals at its solution are r[ineq] - S[ineq, W] nu_W.
    """

    def __init__(self, problem: ProblemSpec):
        cons = problem.constraints
        self.problem, self.m, size = problem, cons.m_ineq, cons.m_ineq + cons.q_eq
        self.s, self.r = np.zeros((size, size)), np.zeros(size)
        for b, (y, x0) in zip(problem.blocks, problem.block_solves):
            cells, at = np.unique(b.index[:, :, None] * size + b.index[:, None, :],
                                  return_inverse=True)
            self.s.reshape(-1)[cells] += np.bincount(at.ravel(), (b.rows @ y).ravel())
            r0 = (b.rows @ x0[..., None])[..., 0] + b.offsets  # R_i x0_i + b_i
            self.r += np.bincount(b.index.ravel(), r0.ravel(), minlength=size)

    @classmethod
    def compile(cls, problem: ProblemSpec) -> "_ConstraintSpace | None":
        """The compiled program from ``problem.blocks``, or None off its
        premise: some block has no Cholesky factor, or the stacked rows are
        not ``_independent_rows``."""
        factored = all(solve is not None for solve in problem.block_solves)
        return cls(problem) if factored and _independent_rows(problem) else None

    def evaluate(self, working):
        """(nu_W, inequality residuals) of a working set; raises LinAlgError
        when S[W, W] is singular."""
        sel = [*range(self.m, len(self.r)), *working]
        mults = np.linalg.solve(self.s[np.ix_(sel, sel)], self.r[sel])
        return mults, self.r[:self.m] - self.s[:self.m, sel] @ mults

    def solve(self) -> OracleSolution | None:
        """The certified solution of the primal-dual proposals' accepted set.
        None where they repeat a set, reach their cap or meet a singular
        S[W, W], or where the recovered x misses the certificate."""
        try:
            found = _primal_dual(self.evaluate, self.m)
        except np.linalg.LinAlgError:
            return None
        return None if found is None else self.recover(*found)

    def recover(self, evaluation, working) -> OracleSolution | None:
        """The solution at an accepted working set's multipliers, or None
        where x misses the certificate."""
        m, size = self.m, len(self.r)
        mults = evaluation[0]
        nu = np.zeros(size)
        nu[m:] = mults[:size - m]
        nu[list(working)] = mults[size - m:]
        x = lagrangian_minimizer(self.problem, nu)
        value, worst, scale = _certificate(self.problem, x, nu)
        if not _certified(worst, scale):
            return None
        return OracleSolution(x=x, value=value, ineq_multipliers=nu[:m],
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
    """The oracle on the dense stacked program: Phase-1 off the rank premise
    (``_independent_rows``), the reduction of dependent equality rows, then
    the reduced program as one row of ``AgentBatch.solve_rows``, from the
    empty working set."""
    h, c, _, a, b, e, g = stacked_arrays(problem)
    worst = 0.0 if _independent_rows(problem) else _phase1_violation(a, b, e, g, len(c))
    if worst > _FEAS_TOL:
        raise InfeasibleProblemError(
            f"coupled constraints are infeasible (Phase-1 violation {worst:.3e})"
        )

    # Reduce dependent equality rows; consistency is already settled by the
    # premise or Phase-1, so dependent rows only make multipliers non-unique.
    basis, e_red, g_red = None, e, g
    if e.shape[0]:
        u, sv, _ = np.linalg.svd(e @ e.T)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
        if rank < e.shape[0]:
            basis = u[:, :rank]
            e_red, g_red = basis.T @ e, basis.T @ g

    # The reduced program, held by one agent.  A row it does not store (all
    # zero) is satisfied with a zero multiplier.
    m, q = a.shape[0], e_red.shape[0]
    cons = CouplingConstraints(1, m_ineq=m, q_eq=q)
    for k in range(m):
        cons.add_ineq_row(1, k + 1, a[k], b[k])
    for k in range(q):
        cons.add_eq_row(1, k + 1, e_red[k], g_red[k])
    stacked = ProblemSpec((AgentObjective(h, c),), cons, Graph(1, frozenset()))
    topology = induce_topology(stacked, stacked.graph)
    batch = AgentBatch(stacked, topology, build_weights(topology))
    z, ids = batch.solve_rows([0], batch.base, batch.sets.ids_of([0]))
    rows = np.array(topology.constraints_of(1), dtype=int) - 1  # the rows it stores
    k, mults = int(np.count_nonzero(rows < m)), z[0, batch.shape[0]:]
    mu, lam = np.zeros(m), np.zeros(q)
    mu[rows[:k]] = mults[:k]
    lam[rows[k:] - m] = mults[k:len(rows)]
    lam = lam if basis is None else basis @ lam  # unreduced
    x = z[0, :len(c)]
    value, worst, size = _certificate(problem, x, np.concatenate([mu, lam]))
    if not _certified(worst, size):
        raise SolverError("centralized KKT residuals too large: " + ", ".join(
            f"{name} {residual:.3e}" for name, residual in zip(
                ("stationarity", "primal_ineq", "primal_eq", "complementarity", "dual"),
                worst)))
    return OracleSolution(
        x=x,
        value=value,
        ineq_multipliers=mu,
        eq_multipliers=lam,
        active_set=tuple((rows[np.flatnonzero(batch.sets.work[ids[0]])] + 1).tolist()),
        unique_multipliers=basis is None,
    )


def solve_centralized(problem: ProblemSpec) -> OracleSolution:
    """Exact optimizer, value and multipliers of the stacked program.

    In constraint space where its premise holds and its answer is
    certified (``_ConstraintSpace``); on the dense stacked program otherwise.
    Both paths read ``problem.blocks`` and are certified by ``_certificate``.
    """
    space = _ConstraintSpace.compile(problem)
    solved = space.solve() if space is not None else None
    return solved if solved is not None else _dense_solve(problem)


def duality_gap(problem: ProblemSpec, x: np.ndarray,
                ineq_multipliers, eq_multipliers) -> float:
    """f(x) minus the Lagrangian dual value at the given multipliers.

    The dual value is the Lagrangian at its minimizer x^ (``lagrangian_minimizer``):
    ``objective_value`` at x^ plus nu . ``aggregate_violation`` at x^, or
    +inf where some agent's Lagrangian is unbounded below (possible for
    semidefinite Hessians).  Raises DimensionMismatchError when a vector's
    length is not the program's.
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
    nu = np.concatenate([mu, lam])
    xh = lagrangian_minimizer(problem, nu)
    if xh is None:
        return np.inf
    dual = objective_value(problem, xh) + nu @ np.concatenate(aggregate_violation(problem, xh))
    return float(objective_value(problem, x) - dual)


def feasible_slack_from_primal(x: np.ndarray, problem, topology, weights) -> SlackState:
    """Slack allocation whose per-agent rows reproduce a feasible primal.

    For each constraint the per-participant residuals r are redistributed to
    their mean via the minimum-norm solution of (I - P) y = mean(r) - r.
    Errors when x misses the row bound of ``_certificate``, so it accepts
    every point the oracle certifies, or when the consensus system is
    inconsistent (disconnected participants).
    """
    cons = problem.constraints
    _, worst, size = _certificate(problem, x, np.zeros(cons.m_ineq + cons.q_eq))
    if max(worst[1:3]) > _KKT_TOL * max(1.0, size[1]):
        raise ValidationError(
            "primal point violates the coupled constraints; no slack "
            "allocation can certify it"
        )
    layout = topology.layout
    state = SlackState.zeros(layout)
    rows, shares = agent_shares(problem, x)
    shares = shares[np.argsort(rows, kind="stable")]  # slack layout: row by row, agents ascending
    for l in layout.constraints:
        if not topology.participants_of(l):
            continue
        residual = shares[layout.block(l)]
        rhs = residual.mean() - residual
        gap = weights[l].gap
        y_block, *_ = np.linalg.lstsq(gap, rhs, rcond=None)
        if np.max(np.abs(gap @ y_block - rhs), initial=0.0) > 1e-8 * (1.0 + np.abs(rhs).max()):
            raise DisconnectedSubgraphError(
                f"constraint {l}: consensus system inconsistent; participants "
                "are not connected"
            )
        state.values[layout.block(l)] = y_block
    return state
