"""Dense reference solve of the stacked coupled program.

Cold ``solve_kkt`` on the stacked ``LocalSubproblem`` built from
``stacked_arrays``: one dense KKT factorization per working set, the stacked
Hessian validated whole, dependent equality rows reduced to least-squares
multipliers.  ``solve_centralized`` must agree with it.
"""

from __future__ import annotations

import numpy as np

from couplesolve import AgentObjective
from couplesolve.local_qp import LocalSubproblem, solve_kkt
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
