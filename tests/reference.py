"""References the library's array paths are checked against.

``dense_oracle``: cold ``solve_kkt`` on the stacked ``LocalSubproblem`` built
from ``stacked_arrays``: one dense KKT factorization per working set, the
stacked Hessian validated whole, dependent equality rows reduced to
least-squares multipliers.  ``solve_centralized`` must agree with it.

The per-agent references of a round: every agent's ``KktSolution`` from a
fresh stream, their objective summed through ``AgentObjective.value``, their
multipliers read through ``KktSolution.multiplier`` and the gradient formed
coordinate by coordinate with ``consensus_gap``, as each agent forms its own.
"""

from __future__ import annotations

import numpy as np

from couplesolve import AgentObjective, consensus_gap, neighbor_views
from couplesolve.local_qp import AgentBatch, LocalSubproblem, WarmStart, solve_kkt
from couplesolve.oracle import stacked_arrays


def dense_oracle(problem):
    """(x, value, inequality multipliers, equality multipliers, active set)."""
    h, c, const, a, b, e, g = stacked_arrays(problem)
    basis = None
    if e.shape[0]:
        u, sv, _ = np.linalg.svd(e @ e.T)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
        if rank < e.shape[0]:
            basis = u[:, :rank]
            e, g = basis.T @ e, basis.T @ g
    objective = AgentObjective(h, c, const)
    sub = LocalSubproblem.build(objective,
                                [(m + 1, a[m], b[m]) for m in range(a.shape[0])],
                                [(k + 1, e[k], g[k]) for k in range(e.shape[0])])
    sol = solve_kkt(sub)
    mu = np.array([sol.ineq_multipliers[m + 1] for m in range(a.shape[0])])
    lam = np.array([sol.eq_multipliers[k + 1] for k in range(e.shape[0])])
    if basis is not None:
        lam = basis @ lam
    return sol.x, objective.value(sol.x), mu, lam, sol.active_set


def kkt_solutions_at(warm, offsets):
    """``warm``'s stacked solve at ``offsets``, one KktSolution per agent."""
    z = warm.solve_stacked(offsets)
    return warm.batch.solutions(z, warm.work).kkt_solutions()


def fresh_solutions(problem, topology, weights, values):
    """Every agent's KktSolution at the slack allocation ``values``, from a fresh stream."""
    warm = WarmStart(AgentBatch(problem, topology, weights))
    return kkt_solutions_at(warm, warm.batch.offsets(values))


def total_objective(problem, solutions) -> float:
    """Sum of the agents' objective values at their solutions."""
    return float(sum(obj.value(sol.x) for obj, sol in zip(problem.objectives, solutions)))


def stacked_multipliers(solutions, topology) -> np.ndarray:
    """Each participant's row-l multiplier in slack layout: what the multiplier exchange sends."""
    return np.array([solutions[i - 1].multiplier(l, topology.m_ineq)
                     for l in range(1, topology.n_constraints + 1)
                     for i in topology.participants_of(l)], dtype=float)


def consensus_gradient(solutions, topology, weights, layout) -> np.ndarray:
    """Coordinate (l, i): ``consensus_gap`` of agent i's view of the row-l multipliers."""
    views = neighbor_views(topology, stacked_multipliers(solutions, topology))
    grad = np.zeros(layout.size)
    for l in layout.constraints:
        for i in topology.participants_of(l):
            grad[layout.index(l, i)] = consensus_gap(l, i, topology, weights, views[i - 1])
    return grad
