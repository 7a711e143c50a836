"""References the library's array paths are checked against.

``dense_oracle``: cold ``solve_kkt`` on the stacked ``LocalSubproblem`` built
from ``stacked_arrays``: one dense KKT factorization per working set, the
stacked Hessian validated whole, dependent equality rows reduced to
least-squares multipliers.  ``solve_centralized`` must agree with it.

The per-agent references of a round: every agent's ``KktSolution`` from a
fresh stream, their objective summed through ``AgentObjective.value``, their
multipliers read through ``KktSolution.multiplier`` and the gradient formed
coordinate by coordinate with ``consensus_gap``, as each agent forms its own.

The closed loop rebuilt at every step: ``rebuilt_closed_loop`` assembles
each step's filter QP with ``assemble_step_problem``, checks it with
``validate_licq``, compiles a fresh ``AgentBatch`` with two fresh
``WarmStart`` streams and checks the applied input with ``max_violation``.
"""

from __future__ import annotations

import numpy as np

from couplesolve import (AgentObjective, SlackLayout, build_weights, consensus_gap,
                         induce_topology, max_violation, neighbor_views, solve_centralized,
                         validate_licq)
from couplesolve.algorithms import AdaConfig, AdaState, iterate_rounds
from couplesolve.cbf import ClosedLoopResult, assemble_step_problem, euler_step
from couplesolve.exceptions import RankDeficiencyError
from couplesolve.local_qp import AgentBatch, LocalSubproblem, WarmStart, solve_kkt
from couplesolve.oracle import stacked_arrays
from couplesolve.simnet import SimnetTransport


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


def rebuilt_closed_loop(scenario, graph, state):
    """``run_closed_loop`` with every step's problem, LICQ report and batch built anew."""
    steps = int(round(scenario.horizon / scenario.dt))
    n, k = graph.n_agents, len(scenario.barriers)
    times = np.zeros(steps + 1)
    positions = np.zeros((steps + 1, n, 2))
    barrier_values = np.zeros((steps + 1, k))
    inputs = np.zeros((steps, n, 2))
    inner_worst = np.zeros(steps)
    applied_worst = np.zeros(steps)

    problem = assemble_step_problem(state, scenario, graph)
    topology = induce_topology(problem, graph)
    weights = build_weights(topology)
    transport = SimnetTransport(topology)
    config = AdaConfig(scenario.gamma, scenario.inner_iterations)
    size = SlackLayout.from_topology(topology).size
    slack = np.zeros(size)
    rounds = final = None
    for s in range(steps):
        times[s] = state.time
        positions[s] = state.positions
        barrier_values[s] = [b.value(state.positions) for b in scenario.barriers]
        problem = assemble_step_problem(state, scenario, graph)
        licq = validate_licq(problem)
        if not licq.all_full_rank:
            raise RankDeficiencyError(
                f"step {s} (t={state.time:.3f}): agents {licq.failures()} have "
                "linearly dependent barrier rows; the sampled problem is "
                "degenerate at this state"
            )
        if scenario.solver == "centralized":
            u = solve_centralized(problem).x.reshape(n, 2)
        else:
            start = slack if scenario.warm_start else np.zeros(size)
            inner = AdaState(start, np.zeros(size), np.zeros(size), 0)
            batch = AgentBatch(problem, topology, weights)
            rounds = WarmStart(batch, rounds.working if rounds else None)
            final = WarmStart(batch, final.working if final else None)
            worst = 0.0
            for inner, z, _ in iterate_rounds(problem, topology, weights, config, inner,
                                              transport, warm=rounds):
                worst = max(worst, batch.violation(z)[0])
            slack = inner.average
            u = batch.primal(final.solve_stacked(batch.offsets(slack))).reshape(n, 2)
            inner_worst[s] = worst
        applied_worst[s], _ = max_violation(problem, u.reshape(-1))
        inputs[s] = u
        state = euler_step(state, u, scenario.dt)
    times[steps] = state.time
    positions[steps] = state.positions
    barrier_values[steps] = [b.value(state.positions) for b in scenario.barriers]
    return ClosedLoopResult(times, positions, barrier_values, inputs, inner_worst,
                            applied_worst, scenario)
