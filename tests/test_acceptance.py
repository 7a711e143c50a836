"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package, prints a single
PASS/FAIL line with the measured quantities, and then asserts the stated
thresholds.  Run with ``-s`` (or read the captured output of failures) to see
the lines.  Budgets are wall-clock seconds on a single core.
"""

import math
from time import perf_counter

import numpy as np
import pytest

import couplesolve as cs
from couplesolve.cbf import (
    assemble_step_problem,
    euler_step,
    line_consensus_scenario,
    nominal_consensus,
    run_closed_loop,
)
from couplesolve.local_qp import AgentBatch, WarmStart
from couplesolve.trace import traces_equal

from bruteforce import brute_force_solve
from gen import reduced_space_instance, strongly_convex_instance
from reference import LocalSubproblem, centralized_kkt, solve_kkt, solve_rows_cold


def _verdict(label, ok, detail, elapsed, budget):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} — {detail} "
          f"[{elapsed:.1f}s / {budget:.0f}s budget]")


def _trace_worst_violation(trace):
    return max(float(trace.column("max_ineq_viol").max()),
               float(trace.column("max_eq_resid").max()))


def _cbf_qp():
    scenario, graph, state = line_consensus_scenario()
    problem = assemble_step_problem(state, scenario, graph)
    topology = cs.induce_topology(problem, graph)
    return problem, topology, cs.build_weights(topology)


def test_criterion_01_every_iterate_is_feasible():
    budget, tol = 30.0, 1e-8
    t0 = perf_counter()
    worst = 0.0
    for seed in range(200, 250):
        problem, topology, weights = strongly_convex_instance(seed)
        assert cs.validate_licq(problem).all_full_rank
        alpha = cs.lipschitz_bound(problem, topology, weights)
        for config in (cs.AdaConfig(1.0 / (2.0 * alpha), 20),
                       cs.PgdConfig(10.0, 10.0, 20)):
            result = cs.run(problem, topology, weights, config)
            worst = max(worst, _trace_worst_violation(result.trace))
    problem, topology, weights = _cbf_qp()
    for config in (cs.AdaConfig(0.01, 20), cs.PgdConfig(10.0, 50.0, 20)):
        result = cs.run(problem, topology, weights, config)
        worst = max(worst, _trace_worst_violation(result.trace))
    elapsed = perf_counter() - t0
    ok = worst <= tol and elapsed < budget
    _verdict("1 all-iterate feasibility", ok,
             f"worst coupled residual {worst:.3g} over 51 instances x 2 "
             f"algorithms (tol {tol:g})", elapsed, budget)
    assert worst <= tol
    assert elapsed < budget


def test_criterion_02_averaging_rate_bound():
    budget = 60.0
    t0 = perf_counter()
    worst_margin = math.inf
    worst_viol = 0.0
    for seed in range(20):
        problem, topology, weights = strongly_convex_instance(seed)
        oracle = cs.solve_centralized(problem)
        alpha = cs.lipschitz_bound(problem, topology, weights)
        result = cs.run(problem, topology, weights,
                        cs.AdaConfig(1.0 / (2.0 * alpha), 200), oracle=oracle)
        y_star = cs.feasible_slack_from_primal(
            oracle.x, problem, topology, weights).values
        dist_sq = float(y_star @ y_star)  # start is the zero allocation
        errs = result.trace.column("obj_err")
        worst_viol = max(worst_viol, _trace_worst_violation(result.trace))
        for t in range(2, 201):
            bound = 2.0 * alpha * dist_sq / (t * (t + 3))
            worst_margin = min(worst_margin, bound - errs[t])
    elapsed = perf_counter() - t0
    ok = worst_margin >= 0 and worst_viol <= 1e-9 and elapsed < budget
    _verdict("2 averaging O(1/t^2) rate", ok,
             f"smallest bound margin {worst_margin:.3g} over 20 instances, "
             f"rounds 2..200; worst violation {worst_viol:.3g}",
             elapsed, budget)
    assert worst_margin >= 0
    assert worst_viol <= 1e-9
    assert elapsed < budget


def test_criterion_03_projected_gradient_rate_bound():
    budget = 60.0
    t0 = perf_counter()
    worst_margin = math.inf
    for seed in range(10):
        problem, topology, weights = reduced_space_instance(seed)
        oracle = cs.solve_centralized(problem)
        box = cs.default_box_bound(problem, topology, weights, oracle)
        grad_bound = cs.estimate_gradient_bound(problem, topology, weights,
                                                box, seed=seed)
        layout = cs.SlackLayout.from_topology(topology)
        theta = cs.half_squared_diameter(box, layout.size)
        result = cs.run(problem, topology, weights,
                        cs.PgdConfig(box, grad_bound, 500), oracle=oracle)
        assert result.box_active is False
        best = np.minimum.accumulate(result.trace.column("obj_err"))
        coef = 2.0 * (1.0 + math.log(3.0)) * grad_bound * math.sqrt(2.0 * theta)
        for t in range(2, 501):
            worst_margin = min(worst_margin,
                               coef / math.sqrt(t + 2.0) - best[t])
    elapsed = perf_counter() - t0
    ok = worst_margin >= 0 and elapsed < budget
    _verdict("3 projected-gradient O(1/sqrt(t)) rate", ok,
             f"smallest bound margin {worst_margin:.3g} over 10 "
             f"zero-curvature instances, rounds 2..500", elapsed, budget)
    assert worst_margin >= 0
    assert elapsed < budget


def test_criterion_04_gradient_matches_finite_differences():
    budget, tol = 60.0, 1e-5
    t0 = perf_counter()
    worst = 0.0
    n_flagged = 0
    n_coords = 0
    for seed in range(100, 110):
        problem, topology, weights = strongly_convex_instance(seed)
        layout = cs.SlackLayout.from_topology(topology)
        rng = np.random.default_rng(seed + 1)
        for _ in range(20):
            state = cs.SlackState(layout, rng.uniform(-2, 2, size=layout.size))
            warm = WarmStart(AgentBatch(problem, topology, weights))
            batch = warm.batch
            analytic = batch.gradient(batch.multipliers(
                warm.solve_stacked(batch.offsets(state.values))))
            fd, flagged = cs.finite_difference_gradient(
                state, problem, topology, weights)
            keep = ~flagged
            n_flagged += int(flagged.sum())
            n_coords += flagged.size
            rel = np.abs(analytic - fd)[keep] / (1.0 + np.abs(fd)[keep])
            worst = max(worst, float(rel.max(initial=0.0)))
    elapsed = perf_counter() - t0
    flag_frac = n_flagged / n_coords
    ok = worst <= tol and flag_frac < 0.1 and elapsed < budget
    _verdict("4 analytic gradient vs finite differences", ok,
             f"worst relative error {worst:.3g} (tol {tol:g}), "
             f"{100 * flag_frac:.1f}% coordinates flagged at kinks",
             elapsed, budget)
    assert worst <= tol
    assert flag_frac < 0.1
    assert elapsed < budget


def test_criterion_05_metropolis_weights_on_a_path():
    budget = 1.0
    t0 = perf_counter()
    graph = cs.Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(4, m_ineq=1, q_eq=0)
    for i in range(1, 5):
        cons.add_ineq_row(i, 1, [1.0], 0.0)
    problem = cs.ProblemSpec((obj,) * 4, cons, graph)
    topology = cs.induce_topology(problem, graph)
    entries = cs.metropolis_weights(1, topology).entries
    expected = np.array([
        [2 / 3, 1 / 3, 0.0, 0.0],
        [1 / 3, 1 / 3, 1 / 3, 0.0],
        [0.0, 1 / 3, 1 / 3, 1 / 3],
        [0.0, 0.0, 1 / 3, 2 / 3],
    ])
    err = float(np.abs(entries - expected).max())
    elapsed = perf_counter() - t0
    ok = err <= 1e-15 and elapsed < budget
    _verdict("5 Metropolis weights on a 4-path", ok,
             f"max entry error {err:.3g} (tol 1e-15)", elapsed, budget)
    assert err <= 1e-15
    assert elapsed < budget


def test_criterion_06_induced_participants_and_edges(diamond):
    budget = 1.0
    t0 = perf_counter()
    topology = cs.induce_topology(diamond, diamond.graph)
    got = {
        l: (topology.participants_of(l), topology.edges_of(l))
        for l in (1, 2)
    }
    want = {
        1: ((1, 4), frozenset({(1, 4)})),
        2: ((1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)})),
    }
    elapsed = perf_counter() - t0
    ok = got == want and elapsed < budget
    _verdict("6 induced constraint subgraphs", ok,
             f"participants/edges {got}", elapsed, budget)
    assert got == want
    assert elapsed < budget


def _unfiltered_spread(scenario, graph, state):
    """Max pairwise distance at the horizon under the nominal law alone."""
    for _ in range(int(round(scenario.horizon / scenario.dt))):
        state = euler_step(state, nominal_consensus(state, graph), scenario.dt)
    diffs = state.positions[:, None, :] - state.positions[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def _worst_discrete_decrease(result):
    """min over steps and barriers of g[k+1] - (1 - dt) g[k] + dt^2 sum ||u_i||^2.

    For the identity decrease rate this equals -dt times the coupled filter
    row residual, so it is >= 0 exactly when the applied input keeps the
    discrete barrier condition.
    """
    dt = result.scenario.dt
    worst = math.inf
    for m, barrier in enumerate(result.scenario.barriers):
        members = [i - 1 for i in barrier.agents]
        input_sq = (result.inputs[:, members] ** 2).sum(axis=(1, 2))
        g = result.barrier_values[:, m]
        decrease = g[1:] - (1.0 - dt) * g[:-1] + dt * dt * input_sq
        worst = min(worst, float(decrease.min()))
    return worst


# The horizon is 30 s, not the scenario's default 20 s.  On the 7-agent path
# the slowest consensus mode has rate lambda_2 = 2 (1 - cos(pi/7)) ~ 0.198,
# a time constant of ~5.05 s: the nominal law alone, unfiltered, still leaves
# the agents 0.0644 apart at 20 s, so a 0.05 spread there would ask the filter
# to beat its own nominal controller.  30 s adds two time constants, and the
# test first checks that the unfiltered spread is within 0.05 there, so the
# spread assertion measures the filter rather than the horizon.
#
# Barrier 1 is the one expected at its boundary: its safe set excludes the
# nominal consensus point (2, 1) (4 ||(2, 1)||^2 = 20 > radius^2 = 4), so the
# filter holds the cluster on g1 = 0.  Barrier 2 is not active there and
# nothing fixes where along it the cluster settles; it is checked for safety
# (g2 >= 0) only.
def test_criterion_07_safety_filter_closed_loop():
    budget, tol = 120.0, 1e-6
    t0 = perf_counter()
    scenario, graph, state = line_consensus_scenario(horizon=30.0)
    nominal_spread = _unfiltered_spread(scenario, graph, state)
    result = run_closed_loop(scenario, graph, state)
    elapsed = perf_counter() - t0

    worst_row = max(float(result.inner_worst_violation.max()),
                    float(result.applied_worst_violation.max()))
    worst_decrease = _worst_discrete_decrease(result)
    spread = result.max_pairwise_distance()
    g_final = result.barrier_values[-1]
    ok = (worst_row <= tol and worst_decrease >= -scenario.dt * tol
          and g_final.min() >= -tol and nominal_spread <= 0.05
          and spread <= 0.05 and abs(g_final[0]) <= 0.1 and elapsed < budget)
    _verdict("7 safety-filter closed loop", ok,
             f"worst filter-row violation {worst_row:.3g} (tol {tol:g}), "
             f"worst discrete decrease {worst_decrease:.3g} "
             f"(tol {-scenario.dt * tol:g}), "
             f"max pairwise distance at t={scenario.horizon:g}s "
             f"{spread:.4f} (unfiltered {nominal_spread:.4f}; tol 0.05), "
             f"final barrier values g1 {g_final[0]:.4f} (|g1| tol 0.1) / "
             f"g2 {g_final[1]:.4f} (>= {-tol:g})", elapsed, budget)
    assert worst_row <= tol, "an applied or inner input violated a filter row"
    assert worst_decrease >= -scenario.dt * tol, (
        f"discrete barrier decrease {worst_decrease:.3g}: an applied input "
        "broke g[k+1] >= (1 - dt) g[k] - dt^2 sum ||u_i||^2"
    )
    assert g_final.min() >= -tol, (
        f"final barrier values {g_final}: the cluster ends outside a safe set"
    )
    assert elapsed < budget
    assert nominal_spread <= 0.05, (
        f"the unfiltered consensus law leaves a spread of "
        f"{nominal_spread:.4f} at t={scenario.horizon:g}s; the horizon is too "
        "short for the spread check to measure the filter"
    )
    assert spread <= 0.05, (
        f"agents end {spread:.4f} apart at t={scenario.horizon:g}s while the "
        f"unfiltered law reaches {nominal_spread:.4f}: the filter keeps the "
        "cluster from agreeing"
    )
    assert abs(g_final[0]) <= 0.1, (
        f"final g1 = {g_final[0]:.4f}: the cluster does not settle on the "
        "boundary of disk 1, whose safe set excludes the nominal consensus "
        "point"
    )


def test_criterion_08_multiplier_consensus_on_the_filter_qp():
    budget = 30.0
    t0 = perf_counter()
    problem, topology, weights = _cbf_qp()
    result = cs.run(problem, topology, weights, cs.AdaConfig(0.02, 2000))
    active_err = result.trace.column("dual_cons_err_1")[1:]
    best_active = float(active_err.min())
    stacked = result.output_stacked  # agent i's multipliers in constraints_of(i) order
    inactive_mults = [
        abs(stacked.z[i - 1, stacked.dim + topology.constraints_of(i).index(2)])
        for i in topology.participants_of(2)
    ]
    worst_inactive = max(inactive_mults)
    elapsed = perf_counter() - t0
    ok = best_active < 1e-4 and worst_inactive <= 1e-10 and elapsed < budget
    _verdict("8 multiplier consensus", ok,
             f"active-row consensus gap reaches {best_active:.3g} "
             f"(below 1e-4); inactive-row multipliers <= "
             f"{worst_inactive:.3g} (tol 1e-10)", elapsed, budget)
    assert best_active < 1e-4
    assert worst_inactive <= 1e-10
    assert elapsed < budget


def test_criterion_09_local_solver_matches_enumeration():
    budget, tol = 10.0, 1e-8
    t0 = perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts <= 400, "generator yields too few solvable instances"
        # Rows are a scaled orthonormal block with at most dim rows, keeping
        # every agent block full row rank as the problem model requires.
        dim = int(rng.integers(1, 5))
        n_rows = int(rng.integers(0, dim + 1))  # at most 4 rows in total
        n_eq = int(rng.integers(0, n_rows + 1))
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        h = basis @ np.diag(rng.uniform(0.3, 3.0, size=dim)) @ basis.T
        q_rows, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rows = q_rows[:n_rows] * rng.uniform(0.5, 1.5, size=(n_rows, 1))
        sub = LocalSubproblem.build(
            cs.AgentObjective(0.5 * (h + h.T), rng.uniform(-2, 2, size=dim)),
            [(m + 1, rows[n_eq + m], rng.uniform(-1.5, 0.5))
             for m in range(n_rows - n_eq)],
            [(q + 1, rows[q], rng.uniform(-0.5, 0.5))
             for q in range(n_eq)],
        )
        expected = brute_force_solve(sub)
        if expected is None:
            continue  # infeasible draw
        x_ref, mu_ref, lam_ref = expected
        # The scalar reference and the library's two loops: one agent's
        # lock-step solve from the empty set, and the centralized oracle.
        for solve in (solve_kkt, solve_rows_cold, centralized_kkt):
            sol = solve(sub)
            worst = max(worst, float(np.abs(sol.x - x_ref).max(initial=0.0)))
            for idx, val in mu_ref.items():
                worst = max(worst, abs(sol.ineq_multipliers[idx] - val))
            for idx, val in lam_ref.items():
                worst = max(worst, abs(sol.eq_multipliers[idx] - val))
        checked += 1
    elapsed = perf_counter() - t0
    ok = worst <= tol and elapsed < budget
    _verdict("9 active-set solver vs enumeration", ok,
             f"worst primal/multiplier deviation {worst:.3g} over "
             f"{checked} subproblems x 3 solvers (tol {tol:g})", elapsed, budget)
    assert worst <= tol
    assert elapsed < budget


def test_criterion_10_locality_and_transport_equivalence():
    budget = 10.0
    t0 = perf_counter()
    audits = 0
    for seed in range(3):
        problem, topology, weights = strongly_convex_instance(seed)
        alpha = cs.lipschitz_bound(problem, topology, weights)
        for config in (cs.AdaConfig(1.0 / (2.0 * alpha), 10),
                       cs.PgdConfig(10.0, 10.0, 10)):
            assert cs.locality_audit(problem, topology, weights, config)
            audits += 1
            direct = cs.run(problem, topology, weights, config,
                            transport="direct")
            mediated = cs.run(problem, topology, weights, config,
                              transport="simnet")
            assert traces_equal(direct.trace, mediated.trace)
            assert direct.messages == mediated.messages
    elapsed = perf_counter() - t0
    ok = elapsed < budget
    _verdict("10 locality audit and transport equivalence", ok,
             f"{audits} audited runs clean; simnet and direct traces "
             f"bit-identical", elapsed, budget)
    assert elapsed < budget
