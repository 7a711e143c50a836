"""Per-agent equality/inequality quadratic subproblems and their exact solve.

Each agent repeatedly solves

    minimize   1/2 x' H x + c' x
    subject to a_m' x + beta_m <= 0   (its inequality rows)
               e_q' x + eta_q  == 0   (its equality rows),

where the offsets beta/eta fold in the agent's share of the coupled
constraints.  Problems are tiny (a handful of variables and rows), the rows
are linearly independent, and the solver must return the *exact* optimizer
and its unique multipliers, since downstream gradients are built from the
multipliers directly.

The method is a primal active-set iteration on the KKT system: solve the
equality-constrained problem for the current working set, add the most
violated inequality (lowest index on ties), drop the working row with the
most negative multiplier (lowest index on ties), repeat.  A visited-set guard
and an iteration cap of 100 x (number of inequality rows) turn cycling into a
degeneracy error instead of an infinite loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateSubproblemError,
    UnboundedSubproblemError,
)
from .graph import consensus_gap
from .problem import AgentObjective

# Residuals above this are treated as violated when growing the working set;
# multipliers below its negative are dropped.
_ADD_TOL = 1e-10
_DROP_TOL = 1e-11


@dataclass(frozen=True)
class LocalSubproblem:
    """One agent's QP with explicit row indices for bookkeeping."""

    objective: AgentObjective
    ineq_indices: tuple[int, ...]
    ineq_matrix: np.ndarray   # (k_i, d)
    ineq_offsets: np.ndarray  # (k_i,)
    eq_indices: tuple[int, ...]
    eq_matrix: np.ndarray     # (k_e, d)
    eq_offsets: np.ndarray    # (k_e,)

    @classmethod
    def build(cls, objective, ineq_rows, eq_rows) -> "LocalSubproblem":
        """From iterables of (index, coeffs, offset), sorted by index."""
        d = objective.dim

        def pack(rows):
            rows = sorted(rows, key=lambda r: r[0])
            idx = tuple(r[0] for r in rows)
            mat = np.array([r[1] for r in rows], dtype=float).reshape(len(rows), d)
            off = np.array([r[2] for r in rows], dtype=float)
            return idx, mat, off

        ii, im, io = pack(ineq_rows)
        ei, em, eo = pack(eq_rows)
        return cls(objective, ii, im, io, ei, em, eo)


@dataclass(frozen=True)
class KktSolution:
    """Exact optimizer of a LocalSubproblem with its unique multipliers."""

    x: np.ndarray
    ineq_multipliers: dict[int, float]
    eq_multipliers: dict[int, float]
    active_set: tuple[int, ...]

    def multiplier(self, l: int, m_ineq: int) -> float:
        """Multiplier addressed by combined constraint index."""
        if l <= m_ineq:
            return self.ineq_multipliers[l]
        return self.eq_multipliers[l - m_ineq]


def _kkt_solve(h, c, rows, rhs):
    """Solve [[H, G'], [G, 0]] (x, mult) = (-c, rhs); None when singular."""
    d = h.shape[0]
    k = rows.shape[0]
    kkt = np.zeros((d + k, d + k))
    kkt[:d, :d] = h
    kkt[:d, d:] = rows.T
    kkt[d:, :d] = rows
    target = np.concatenate([-c, rhs])
    try:
        sol = np.linalg.solve(kkt, target)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    # Near-singular systems pass numpy's exact-singularity check but leave a
    # large residual; reject those too.
    scale = 1.0 + np.abs(target).max(initial=0.0) + np.abs(sol).max(initial=0.0)
    if np.abs(kkt @ sol - target).max(initial=0.0) > 1e-8 * scale:
        return None
    return sol[:d], sol[d:]


def _reduced_curvature_ok(h, rows, tol=1e-10) -> bool:
    """Is H positive definite on the nullspace of the given rows?"""
    d = h.shape[0]
    if rows.shape[0] == 0:
        basis = np.eye(d)
    else:
        _, sv, vt = np.linalg.svd(rows)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0] if len(sv) else 1.0)))
        basis = vt[rank:].T
    if basis.shape[1] == 0:
        return True
    reduced = basis.T @ h @ basis
    return bool(np.linalg.eigvalsh(reduced).min() > tol)


def solve_kkt(sub: LocalSubproblem) -> KktSolution:
    """Exactly minimize the subproblem via primal active-set iteration.

    Raises UnboundedSubproblemError when the Hessian is not positive definite
    on the equality nullspace (no unique bounded minimizer), and
    DegenerateSubproblemError when the working-set iteration cycles or hits
    its cap.
    """
    obj = sub.objective
    h, c = obj.hessian, obj.linear
    a, beta = sub.ineq_matrix, sub.ineq_offsets
    e, eta = sub.eq_matrix, sub.eq_offsets
    k_i = a.shape[0]

    working: list[int] = []   # positions into the inequality rows
    visited = {frozenset()}
    cap = 100 * max(1, k_i)

    for _ in range(cap + 1):
        rows = np.vstack([e, a[working]]) if working else e
        rhs = np.concatenate([-eta, -beta[working]])
        solved = _kkt_solve(h, c, rows, rhs)
        if solved is None:
            if not _reduced_curvature_ok(h, rows):
                raise UnboundedSubproblemError(
                    "Hessian is not positive definite on the working-set "
                    "nullspace: subproblem unbounded or minimizer non-unique"
                )
            raise DegenerateSubproblemError("singular KKT system")
        x, mults = solved
        eq_mults = mults[: e.shape[0]]
        w_mults = mults[e.shape[0]:]

        if k_i:
            residual = a @ x + beta
            residual[working] = 0.0  # working rows are solved as equalities
            worst = int(np.argmax(residual))
            if residual[worst] > _ADD_TOL:
                working = sorted(working + [worst])
                key = frozenset(working)
                if key in visited:
                    raise DegenerateSubproblemError(
                        "active-set iteration revisited a working set"
                    )
                visited.add(key)
                continue

        if len(working) and w_mults.size and w_mults.min() < -_DROP_TOL:
            drop = int(np.argmin(w_mults))
            working = working[:drop] + working[drop + 1:]
            key = frozenset(working)
            if key in visited:
                raise DegenerateSubproblemError(
                    "active-set iteration revisited a working set"
                )
            visited.add(key)
            continue

        mu = {idx: 0.0 for idx in sub.ineq_indices}
        for pos, val in zip(working, w_mults):
            mu[sub.ineq_indices[pos]] = float(val)
        lam = {idx: float(val) for idx, val in zip(sub.eq_indices, eq_mults)}
        active = tuple(sub.ineq_indices[pos] for pos in working)
        return KktSolution(x, mu, lam, active)

    raise DegenerateSubproblemError(
        f"active-set iteration exceeded {cap} iterations"
    )


def assemble_subproblem(agent: int, problem, topology, weights,
                        slack_view) -> LocalSubproblem:
    """Fold the agent's slack shares into its local constraint offsets.

    ``slack_view`` maps (constraint index, neighbor) to that neighbor's slack
    value and must cover the agent's closed neighborhood in every constraint
    it participates in.  The offset of row l becomes

        sum_{j in N_i^[l]} p_ij (y_i - y_j) + b_i^[l],

    i.e. the consensus gap of the agent's slack plus its own offset share.
    """
    cons = problem.constraints
    m_ineq = cons.m_ineq

    ineq_rows = []
    for m in topology.agent_ineq_sets[agent - 1]:
        coeffs, b = cons.ineq_row(agent, m)
        gap = consensus_gap(m, agent, topology, weights, slack_view)
        ineq_rows.append((m, coeffs, gap + b))
    eq_rows = []
    for q in topology.agent_eq_sets[agent - 1]:
        coeffs, g = cons.eq_row(agent, q)
        gap = consensus_gap(m_ineq + q, agent, topology, weights, slack_view)
        eq_rows.append((q, coeffs, gap + g))
    return LocalSubproblem.build(problem.objectives[agent - 1], ineq_rows, eq_rows)


@dataclass(frozen=True)
class KktReport:
    """Worst-case residuals of the KKT conditions at a candidate solution."""

    stationarity: float
    primal_ineq: float       # max positive inequality residual
    primal_eq: float         # max |equality residual|
    dual: float              # max negative inequality multiplier, as >= 0
    complementarity: float   # max |mu_m * residual_m|

    def ok(self, tol: float = 1e-9, dual_tol: float = 1e-12) -> bool:
        return (
            self.stationarity <= tol
            and self.primal_ineq <= tol
            and self.primal_eq <= tol
            and self.dual <= dual_tol
            and self.complementarity <= tol
        )


def verify_kkt(sub: LocalSubproblem, sol: KktSolution) -> KktReport:
    """Recompute all KKT residuals of a solution against its subproblem."""
    obj = sub.objective
    grad = obj.hessian @ sol.x + obj.linear
    for idx, row in zip(sub.ineq_indices, sub.ineq_matrix):
        grad = grad + sol.ineq_multipliers[idx] * row
    for idx, row in zip(sub.eq_indices, sub.eq_matrix):
        grad = grad + sol.eq_multipliers[idx] * row

    if sub.ineq_indices:
        residual = sub.ineq_matrix @ sol.x + sub.ineq_offsets
        mu = np.array([sol.ineq_multipliers[i] for i in sub.ineq_indices])
        primal_ineq = float(np.max(residual, initial=0.0))
        dual = float(max(0.0, -mu.min()))
        comp = float(np.max(np.abs(mu * residual), initial=0.0))
    else:
        primal_ineq, dual, comp = 0.0, 0.0, 0.0
    if sub.eq_indices:
        primal_eq = float(np.max(np.abs(sub.eq_matrix @ sol.x + sub.eq_offsets)))
    else:
        primal_eq = 0.0
    return KktReport(
        stationarity=float(np.max(np.abs(grad), initial=0.0)),
        primal_ineq=max(primal_ineq, 0.0),
        primal_eq=primal_eq,
        dual=dual,
        complementarity=comp,
    )
