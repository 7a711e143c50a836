"""The compiled, warm-started, batched local solver against its references.

Every check runs over the ``tests/gen.py`` families: strongly convex seeds
0-24 and reduced-space seeds 0-11, at random slack allocations.
"""

import numpy as np
import pytest

import couplesolve as cs
from couplesolve import local_qp
from couplesolve.local_qp import AgentBatch, WarmStart, assemble_subproblem
from couplesolve.problem import aggregate_violation
from couplesolve.slack import multipliers_by_constraint
from bruteforce import brute_force_solve
from gen import reduced_space_instance, strongly_convex_instance

FAMILIES = ([(strongly_convex_instance, seed) for seed in range(25)]
            + [(reduced_space_instance, seed) for seed in range(12)])
IDS = [f"{make.__name__.split('_')[0]}{seed}" for make, seed in FAMILIES]
TOL = 1e-12


def _points(topology, seed, count=3):
    layout = cs.SlackLayout.from_topology(topology)
    rng = np.random.default_rng(1000 + seed)
    return layout, [rng.uniform(-2.0, 2.0, size=layout.size) for _ in range(count)]


def _deviation(sol, x, mu, lam):
    worst = float(np.abs(sol.x - x).max(initial=0.0))
    for idx, val in mu.items():
        worst = max(worst, abs(sol.ineq_multipliers[idx] - val))
    for idx, val in lam.items():
        worst = max(worst, abs(sol.eq_multipliers[idx] - val))
    return worst


def _starts(qp, active):
    """Correct, empty and deliberately wrong first working sets (positions)."""
    correct = tuple(qp.position[idx] for idx in active)
    wrong = tuple(p for p in range(qp.n_ineq) if p not in correct)
    return {"correct": correct, "empty": (), "wrong": wrong}


@pytest.mark.parametrize("make, seed", FAMILIES, ids=IDS)
def test_warm_and_batched_solves_match_cold_and_enumeration(make, seed, monkeypatch):
    problem, topology, weights = make(seed)
    batch = AgentBatch(problem, topology, weights)
    layout, points = _points(topology, seed)

    fallbacks = []
    loop = local_qp.solve_kkt

    def counted(sub, start=(), qp=None):
        fallbacks.append(qp)
        return loop(sub, start, qp)

    monkeypatch.setattr(local_qp, "solve_kkt", counted)
    ran = {"correct": 0, "empty": 0, "wrong": 0}
    misled = 0  # agents whose wrong start differs from the correct one
    for flat in points:
        views = cs.neighbor_views(topology, layout.by_constraint(flat))
        subs = [assemble_subproblem(i, problem, topology, weights, views[i - 1])
                for i in range(1, problem.n_agents + 1)]
        cold = [loop(sub) for sub in subs]
        starts = [_starts(qp, sol.active_set) for qp, sol in zip(batch.qps, cold)]
        misled += sum(s["wrong"] != s["correct"] for s in starts)
        offsets = batch.offsets(views)
        for kind in ran:
            del fallbacks[:]
            warm = WarmStart(batch, [s[kind] for s in starts])
            batched = warm.solve(offsets)
            ran[kind] += len(fallbacks)
            if kind == "correct":
                assert not fallbacks  # the acceptance pass takes every correct set
            for a, (sub, ref, sol) in enumerate(zip(subs, cold, batched)):
                qp = batch.qps[a]
                first = tuple(qp.ineq_indices[p] for p in starts[a][kind])
                expected = brute_force_solve(sub)
                assert expected is not None
                for other in (sol, loop(sub, first), loop(sub, first, qp)):
                    assert other.active_set == ref.active_set
                    assert _deviation(other, ref.x, ref.ineq_multipliers,
                                      ref.eq_multipliers) <= TOL
                    assert _deviation(other, *expected) <= TOL
    assert ran["wrong"] == misled  # each wrong start went through the loop


@pytest.mark.parametrize("make, seed", FAMILIES, ids=IDS)
def test_answer_depends_only_on_the_final_working_set(make, seed):
    # Accepted by the stacked pass or found by the loop from any start, one
    # working set gives one set of bits.
    problem, topology, weights = make(seed)
    batch = AgentBatch(problem, topology, weights)
    layout, points = _points(topology, seed)
    for flat in points:
        offsets = batch.offsets(flat)
        cold = WarmStart(batch).solve(offsets)
        starts = [_starts(qp, sol.active_set) for qp, sol in zip(batch.qps, cold)]
        for kind in ("correct", "wrong"):
            again = WarmStart(batch, [s[kind] for s in starts]).solve(offsets)
            for a, b in zip(cold, again):
                assert np.array_equal(a.x, b.x)
                assert a.ineq_multipliers == b.ineq_multipliers
                assert a.eq_multipliers == b.eq_multipliers
                assert a.active_set == b.active_set


@pytest.mark.parametrize("make, seed", FAMILIES, ids=IDS)
def test_batched_offsets_are_consensus_gap_plus_base(make, seed):
    problem, topology, weights = make(seed)
    batch = AgentBatch(problem, topology, weights)
    layout, points = _points(topology, seed)
    cons = problem.constraints
    width = batch.shape[1]
    for flat in points:
        values = layout.by_constraint(flat)
        views = cs.neighbor_views(topology, values)
        mediated, _ = cs.exchange(cs.Phase.SLACK_EXCHANGE, values, topology)
        expected = np.zeros((problem.n_agents, width))
        for i in range(1, problem.n_agents + 1):
            for r, l in enumerate(topology.constraints_of(i)):
                gap = cs.consensus_gap(l, i, topology, weights, views[i - 1])
                expected[i - 1, r] = gap + cons.row(i, l)[1]
        for got in (batch.offsets(views), batch.offsets(mediated), batch.offsets(flat),
                    np.array([qp.offsets(view) for qp, view in zip(batch.qps, views)])):
            assert np.array_equal(got, expected)
        for i in range(1, problem.n_agents + 1):
            sub = assemble_subproblem(i, problem, topology, weights, views[i - 1])
            k_i = len(sub.ineq_indices)
            assert np.array_equal(sub.ineq_offsets, expected[i - 1, :k_i])
            assert np.array_equal(sub.eq_offsets,
                                  expected[i - 1, k_i:k_i + len(sub.eq_indices)])

        # The gradient reads the multiplier views through the same terms.
        solutions = cs.solve_all_agents(cs.SlackState(layout, flat), problem,
                                        topology, weights)
        reference = cs.assemble_gradient(solutions, topology, weights, layout)
        mults = multipliers_by_constraint(solutions, topology)
        mult_views, _ = cs.exchange(cs.Phase.MULTIPLIER_EXCHANGE, mults, topology)
        z = WarmStart(batch).solve_stacked(batch.offsets(flat))
        assert np.array_equal(batch.gradient(batch.multipliers(z)), reference)
        assert np.array_equal(batch.gradient(mult_views), reference)


def _close(got, ref):
    ref = np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(np.asarray(got) - ref) <= 1e-13 * (1.0 + np.abs(ref))))


@pytest.mark.parametrize("make, seed", FAMILIES, ids=IDS)
def test_stacked_metrics_match_the_reference_functions(make, seed):
    # What rounds read from z against the per-agent functions the trace was
    # computed with before: the objective, the coupled rows, the dense
    # (I - P) mu and the KktSolutions.
    problem, topology, weights = make(seed)
    # Objective constants too, which the generators leave at 0.
    problem = cs.ProblemSpec(tuple(cs.AgentObjective(obj.hessian, obj.linear, 0.25 * i)
                                   for i, obj in enumerate(problem.objectives)),
                             problem.constraints, problem.graph)
    batch = AgentBatch(problem, topology, weights)
    layout, points = _points(topology, seed)
    warm = WarmStart(batch)
    for flat in points:
        z = warm.solve_stacked(batch.offsets(flat))
        solutions = cs.solve_all_agents(cs.SlackState(layout, flat), problem, topology,
                                        weights)
        primal = cs.stacked_primal(solutions)
        assert np.array_equal(batch.primal(z), primal)
        mults = multipliers_by_constraint(solutions, topology)
        assert np.array_equal(batch.multipliers(z),
                              [mults[l][i] for l, members in
                               zip(layout.constraints, layout.participants) for i in members])
        for got, ref in zip(batch.solutions(z, warm.work).kkt_solutions(), solutions):
            assert np.array_equal(got.x, ref.x)
            assert got.ineq_multipliers == ref.ineq_multipliers
            assert got.eq_multipliers == ref.eq_multipliers
            assert got.active_set == ref.active_set

        assert _close(batch.objective(z), cs.total_objective(problem, solutions))
        for got, ref in zip(batch.residuals(z), aggregate_violation(problem, primal)):
            assert got.shape == ref.shape and _close(got, ref)
        assert _close(batch.violation(z), cs.max_violation(problem, primal))
        dense = [np.linalg.norm(weights[l].gap @ [mults[l][i] for i in members])
                 if members else 0.0
                 for l, members in zip(layout.constraints, layout.participants)]
        assert _close(batch.dual_errors(batch.gradient(batch.multipliers(z))), dense)


def test_unbounded_agent_keeps_its_diagnosis():
    # No row pins the flat direction of agent 1: the batch hands it to the
    # loop, which names the missing curvature.
    obj = cs.AgentObjective(np.diag([1.0, 0.0]), np.array([0.0, -1.0]))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0, 0.0], -1.0)
    cons.add_ineq_row(2, 1, [1.0, 0.0], -1.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topology = cs.induce_topology(problem, graph)
    weights = cs.build_weights(topology)
    state = cs.SlackState.zeros(cs.SlackLayout.from_topology(topology))
    with pytest.raises(cs.UnboundedSubproblemError):
        cs.solve_all_agents(state, problem, topology, weights)
