import math

import numpy as np
import pytest

import couplesolve as cs
from couplesolve.cbf import (
    Barrier,
    CbfScenario,
    ClosedLoopResult,
    MultiAgentState,
    assemble_step_problem,
    euler_step,
    initial_state,
    line_consensus_scenario,
    nominal_consensus,
    run_closed_loop,
)
from couplesolve.exceptions import RankDeficiencyError, ValidationError


def test_state_validation():
    with pytest.raises(ValidationError):
        MultiAgentState(0.0, np.zeros(4))
    st = MultiAgentState(0.0, np.zeros((3, 2)))
    assert st.n_agents == 3


def test_barrier_value_matches_direct_formula():
    b = Barrier((1.0, 0.0), 9.0, (1, 2))
    pos = np.array([[2.0, 0.0], [0.0, 0.0], [7.0, 7.0]])
    direct = 9.0 - sum(
        (pos[i - 1][0] - 1.0) ** 2 + pos[i - 1][1] ** 2 for i in b.agents
    )
    assert b.value(pos) == direct == 7.0


def test_line_scenario_fixture_values():
    scenario, graph, state = line_consensus_scenario()
    assert [b.center for b in scenario.barriers] == [(0.0, 0.0), (2.0, 2.0)]
    assert [b.radius_sq for b in scenario.barriers] == [4.0, 16.0]
    assert scenario.barriers[0].agents == (1, 2, 3, 4)
    assert scenario.barriers[1].agents == (4, 5, 6, 7)
    assert graph.edges == frozenset((i, i + 1) for i in range(1, 7))
    assert state.positions[6] == pytest.approx([4.0, 1.0])
    # agents start well outside both protected disks
    assert scenario.barriers[0].value(state.positions) == pytest.approx(
        -27.819286635380063)
    assert scenario.barriers[1].value(state.positions) == pytest.approx(
        -12.762572535069648)


def test_line_scenario_accepts_overrides():
    scenario, _, _ = line_consensus_scenario(dt=0.1, solver="centralized")
    assert scenario.dt == 0.1
    assert scenario.solver == "centralized"


def test_initial_state_circle_radius():
    state = initial_state(7)
    radii = np.linalg.norm(state.positions - np.array([2.0, 1.0]), axis=1)
    assert radii == pytest.approx(np.full(7, 2.0))


def test_scenario_validation():
    barrier = (Barrier((0.0, 0.0), 1.0, (1,)),)
    with pytest.raises(ValidationError):
        CbfScenario(barrier, dt=0.0)
    with pytest.raises(ValidationError):
        CbfScenario(barrier, horizon=-1.0)
    with pytest.raises(ValidationError):
        CbfScenario(barrier, inner_iterations=0)
    with pytest.raises(ValidationError):
        CbfScenario(barrier, solver="magic")


def test_nominal_consensus_line():
    graph = cs.Graph.from_edges(3, [(1, 2), (2, 3)])
    state = MultiAgentState(0.0, np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    nominal = nominal_consensus(state, graph)
    assert nominal.tolist() == [[1.0, 0.0], [1.0, 0.0], [-2.0, 0.0]]


def test_step_problem_rows_and_objectives():
    graph = cs.Graph.from_edges(2, [(1, 2)])
    scenario = CbfScenario((Barrier((0.0, 0.0), 4.0, (1, 2)),))
    state = MultiAgentState(0.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
    problem = assemble_step_problem(state, scenario, graph)

    obj1 = problem.objectives[0]
    assert obj1.hessian.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert obj1.linear.tolist() == [1.0, -1.0]   # minus the consensus pull
    assert obj1.constant == 1.0

    ineq1, _ = problem.constraints.agent_rows(1)
    coeffs, offset = ineq1[1]
    assert coeffs.tolist() == [2.0, 0.0]
    assert offset == -1.0  # ||delta||^2 - radius_sq / participants


def test_step_problem_custom_decrease_rate():
    graph = cs.Graph.from_edges(2, [(1, 2)])
    scenario = CbfScenario((Barrier((0.0, 0.0), 4.0, (1, 2)),),
                           alpha=lambda g: 2.0 * g)
    state = MultiAgentState(0.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
    problem = assemble_step_problem(state, scenario, graph)
    for i in (1, 2):
        ineq, _ = problem.constraints.agent_rows(i)
        _, offset = ineq[1]
        assert offset == -2.0  # -alpha(g)/n_g with g = 2


def test_euler_step():
    state = MultiAgentState(1.0, np.array([[0.0, 0.0], [1.0, 1.0]]))
    nxt = euler_step(state, np.array([[1.0, 0.0], [0.0, -2.0]]), 0.5)
    assert nxt.time == 1.5
    assert nxt.positions.tolist() == [[0.5, 0.0], [1.0, 0.0]]


def test_max_pairwise_distance():
    positions = np.zeros((2, 2, 2))
    positions[-1] = [[0.0, 0.0], [3.0, 4.0]]
    result = ClosedLoopResult(np.zeros(2), positions, np.zeros((2, 1)),
                              np.zeros((1, 2, 2)), np.zeros(1), np.zeros(1))
    assert result.max_pairwise_distance() == 5.0
    assert result.max_pairwise_distance(step=0) == 0.0


def _binding_setup():
    """Two agents deep inside violation so the filter row is active."""
    graph = cs.Graph.from_edges(2, [(1, 2)])
    barriers = (Barrier((0.0, 0.0), 1.0, (1, 2)),)
    state = MultiAgentState(0.0, np.array([[1.0, 0.0], [0.9, 0.1]]))
    return graph, barriers, state


def test_closed_loop_smoke():
    graph, barriers, state = _binding_setup()
    scenario = CbfScenario(barriers, dt=0.01, horizon=1.0, gamma=0.05)
    result = run_closed_loop(scenario, graph, state)
    assert result.times.shape == (101,)
    assert result.positions.shape == (101, 2, 2)
    assert result.inputs.shape == (100, 2, 2)
    assert result.times[-1] == pytest.approx(1.0)
    # every inner iterate and every applied input satisfied the filter rows
    assert result.inner_worst_violation.max() <= 1e-12
    assert result.applied_worst_violation.max() <= 1e-12
    # the decrease condition drags the barrier value up toward the safe set
    assert result.barrier_values[-1, 0] > result.barrier_values[0, 0]


def test_truncated_rounds_approach_centralized_filter():
    graph, barriers, state = _binding_setup()
    base = dict(barriers=barriers, dt=0.01, horizon=0.01)
    cent = run_closed_loop(CbfScenario(solver="centralized", **base),
                           graph, state)
    gaps = []
    for inner in (2, 10, 50):
        dist = run_closed_loop(
            CbfScenario(inner_iterations=inner, gamma=0.05, **base),
            graph, state)
        gaps.append(float(np.linalg.norm(dist.inputs[0] - cent.inputs[0])))
        assert dist.applied_worst_violation.max() <= 1e-12
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.01


def test_centralized_and_distributed_agree_when_filter_inactive():
    graph = cs.Graph.from_edges(2, [(1, 2)])
    barriers = (Barrier((0.0, 0.0), 4.0, (1, 2)),)
    state = MultiAgentState(0.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
    base = dict(barriers=barriers, dt=0.01, horizon=0.01)
    cent = run_closed_loop(CbfScenario(solver="centralized", **base),
                           graph, state)
    dist = run_closed_loop(CbfScenario(**base), graph, state)
    # the nominal input already satisfies the row, both solvers return it
    assert np.allclose(dist.inputs[0], cent.inputs[0], atol=1e-12)


def test_licq_failure_aborts_with_diagnostic():
    graph = cs.Graph.from_edges(2, [(1, 2)])
    # agent 1 sits between the two centers: its barrier gradients align
    barriers = (Barrier((0.0, 0.0), 1.0, (1, 2)),
                Barrier((2.0, 0.0), 1.0, (1, 2)))
    state = MultiAgentState(0.0, np.array([[1.0, 0.0], [0.0, 5.0]]))
    scenario = CbfScenario(barriers, dt=0.01, horizon=0.01)
    with pytest.raises(RankDeficiencyError, match="dependent barrier rows"):
        run_closed_loop(scenario, graph, state)


def test_warm_start_changes_inner_path_not_safety():
    graph, barriers, state = _binding_setup()
    base = dict(barriers=barriers, dt=0.01, horizon=0.05, gamma=0.05,
                inner_iterations=3)
    cold = run_closed_loop(CbfScenario(**base), graph, state)
    warm = run_closed_loop(CbfScenario(warm_start=True, **base), graph, state)
    assert warm.applied_worst_violation.max() <= 1e-12
    assert not np.allclose(cold.inputs, warm.inputs)


def test_first_step_applies_the_run_output():
    # The filter's inner loop is the library's round loop: one cold-started
    # control step applies exactly what ``run`` returns on the step problem.
    scenario, graph, state = line_consensus_scenario(horizon=0.01)
    problem = assemble_step_problem(state, scenario, graph)
    topology = cs.induce_topology(problem, graph)
    weights = cs.build_weights(topology)
    expected = cs.run(problem, topology, weights,
                      cs.AdaConfig(scenario.gamma, scenario.inner_iterations),
                      transport="direct", check_gamma=False).output_primal
    result = run_closed_loop(scenario, graph, state)
    assert result.inputs.shape[0] == 1
    assert np.array_equal(result.inputs[0].reshape(-1), expected)
