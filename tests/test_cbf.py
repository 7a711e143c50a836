import math
from dataclasses import replace

import numpy as np
import pytest

import couplesolve as cs
import reference
from couplesolve import cbf
from couplesolve import problem as problem_module
from couplesolve.cbf import (
    SOLVERS,
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
from couplesolve.local_qp import AgentBatch, WarmStart


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


def test_nominal_consensus_rejects_a_state_of_another_size():
    # Refused by name: neither a zero input for an agent the graph lacks
    # (8 agents) nor an IndexError (5 agents).
    _, graph, _ = line_consensus_scenario()
    for n in (8, 5):
        with pytest.raises(ValidationError,
                           match=rf"^graph has 7 agents but the state has {n}$"):
            nominal_consensus(initial_state(n), graph)


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
                      transport="direct").output_primal
    result = run_closed_loop(scenario, graph, state)
    assert result.inputs.shape[0] == 1
    assert np.array_equal(result.inputs[0].reshape(-1), expected)


RESULT_ARRAYS = ("times", "positions", "barrier_values", "inputs",
                 "inner_worst_violation", "applied_worst_violation")


def _case(name):
    if name == "binding":
        graph, barriers, state = _binding_setup()
        return CbfScenario(barriers, dt=0.01, horizon=0.3, gamma=0.05), graph, state
    if name == "reversed":
        # Each barrier lists its agents in descending order: its rows are
        # added in that order, its residual is summed in agent order.
        scenario, graph, state = line_consensus_scenario(horizon=0.5)
        barriers = tuple(replace(b, agents=b.agents[::-1]) for b in scenario.barriers)
        return replace(scenario, barriers=barriers), graph, state
    overrides = {"cold": {}, "warm": {"warm_start": True},
                 "alpha": {"alpha": lambda g: 2.0 * g},
                 "centralized": {"solver": "centralized"}}[name]
    return line_consensus_scenario(horizon=0.5, **overrides)


@pytest.mark.parametrize("name", ["cold", "warm", "alpha", "binding", "reversed",
                                  "centralized"])
def test_closed_loop_matches_the_per_step_rebuild(name):
    scenario, graph, state = _case(name)
    got = run_closed_loop(scenario, graph, state)
    expected = reference.rebuilt_closed_loop(scenario, graph, state)
    for key in RESULT_ARRAYS:
        assert np.array_equal(getattr(got, key), getattr(expected, key)), key
    assert got.applied_worst_violation.max() <= 1e-12


@pytest.mark.parametrize("name", ["cold", "alpha", "binding", "reversed"])
def test_filter_rows_build_the_assembled_problem(name):
    scenario, graph, state = _case(name)
    filter_rows = cbf._FilterRows(scenario, graph, state.n_agents)
    for positions in run_closed_loop(scenario, graph, state).positions[::10]:
        at = MultiAgentState(0.0, positions)
        expected = reference.rowwise_step_problem(at, scenario, graph)
        for got in (filter_rows.problem(filter_rows.at(at)),
                    assemble_step_problem(at, scenario, graph)):
            for a, b in zip(got.objectives, expected.objectives):
                assert np.array_equal(a.hessian, b.hessian)
                assert np.array_equal(a.linear, b.linear) and a.constant == b.constant
            for i in range(1, graph.n_agents + 1):
                rows = got.constraints.agent_rows(i)[0]
                want = expected.constraints.agent_rows(i)[0]
                assert list(rows) == list(want)
                for m, (coeffs, offset) in want.items():
                    assert np.array_equal(rows[m][0], coeffs) and rows[m][1] == offset


def _bits(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("name", ["cold", "alpha", "reversed"])
def test_filter_step_is_the_pairwise_loop(name):
    # Every parameter array and the consensus inputs bit for bit, signed
    # zeros included: on each state of the closed loop, and on 1000 random
    # states, half of them on a grid of small numbers and signed zeros
    # (ties, zero differences, deltas of -0.0), half spread over 16 decades.
    scenario, graph, state = _case(name)
    filter_rows = cbf._FilterRows(scenario, graph, state.n_agents)
    rng = np.random.default_rng(11)
    shape = (500, graph.n_agents, 2)
    grid = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=shape)
    spread = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=(500, 1, 1))
    for positions in (*run_closed_loop(scenario, graph, state).positions, *grid, *spread):
        at = MultiAgentState(0.0, positions)
        assert _bits(filter_rows.at(at)) == _bits(reference.pairwise_step(filter_rows, at))
        assert _bits([nominal_consensus(at, graph)]) == _bits(
            [reference.scalar_nominal_consensus(at, graph)])


@pytest.mark.parametrize("n, edges", [
    (1, []), (5, []), (6, [(2, 5)]), (9, [(1, j) for j in range(2, 10)]),
    (12, [(i, j) for i in range(1, 13) for j in range(i + 1, 13)]),
], ids=["one", "isolated", "one-edge", "star", "complete12"])
def test_nominal_consensus_is_the_per_agent_loop(n, edges):
    # Isolated agents get +0.0 inputs; a neighbourhood wider than 8 is still
    # added up in order.
    graph = cs.Graph.from_edges(n, edges)
    rng = np.random.default_rng(n)
    for positions in rng.standard_normal((50, n, 2)) * 10.0 ** rng.integers(-8, 9, (50, 1, 1)):
        at = MultiAgentState(0.0, positions)
        assert _bits([nominal_consensus(at, graph)]) == _bits(
            [reference.scalar_nominal_consensus(at, graph)])


@pytest.mark.parametrize("name", ["cold", "alpha", "reversed"])
def test_applied_row_check_is_max_violation(name):
    # run_closed_loop checks the applied input on its refreshed batch.
    scenario, graph, state = _case(name)
    filter_rows = cbf._FilterRows(scenario, graph, state.n_agents)
    problem = assemble_step_problem(state, scenario, graph)
    topology = cs.induce_topology(problem, graph)
    batch = AgentBatch(problem, topology, cs.build_weights(topology))
    rng = np.random.default_rng(3)
    for positions in run_closed_loop(scenario, graph, state).positions[::5]:
        at = MultiAgentState(0.0, positions)
        step, problem = filter_rows.at(at), assemble_step_problem(at, scenario, graph)
        batch.refresh(step.linear, step.constant, step.coeffs[filter_rows.order],
                      step.offsets[filter_rows.order])
        for u in rng.normal(scale=3.0, size=(20, graph.n_agents, 2)):
            assert batch.violation(u) == cs.max_violation(problem, u.reshape(-1))


@pytest.mark.parametrize("name", ["cold", "alpha", "binding"])
def test_refreshed_batch_equals_a_fresh_compile(name):
    scenario, graph, state = _case(name)
    filter_rows = cbf._FilterRows(scenario, graph, state.n_agents)
    problem = assemble_step_problem(state, scenario, graph)
    topology = cs.induce_topology(problem, graph)
    weights = cs.build_weights(topology)
    compiled = AgentBatch(problem, topology, weights)
    rng = np.random.default_rng(7)
    for positions in run_closed_loop(scenario, graph, state).positions[1::10]:
        at = MultiAgentState(0.0, positions)
        step = filter_rows.at(at)
        compiled.refresh(step.linear, step.constant, step.coeffs[filter_rows.order],
                         step.offsets[filter_rows.order])
        fresh = AgentBatch(assemble_step_problem(at, scenario, graph), topology, weights)
        for key in ("hessian", "linear", "constant", "rows", "base"):
            assert np.array_equal(getattr(compiled, key), getattr(fresh, key)), key
        # The same solves meet the same sets, with the same maps.
        offsets = fresh.offsets(rng.uniform(-5.0, 5.0, size=(3, fresh.size)))
        solved = []
        for batch in (compiled, fresh):
            warm = WarmStart(batch)
            solved.append([warm.solve_stacked(point) for point in offsets])
        assert compiled.sets.size == fresh.sets.size
        met = fresh.sets.size
        for key in ("agent", "m", "s", "kkt", "work", "free", "ready"):
            assert np.array_equal(getattr(compiled.sets, key)[:met],
                                  getattr(fresh.sets, key)[:met]), key
        assert all(np.array_equal(a, b) for a, b in zip(*solved))


def test_refresh_empties_the_set_table():
    scenario, graph, state = line_consensus_scenario()
    problem = assemble_step_problem(state, scenario, graph)
    topology = cs.induce_topology(problem, graph)
    batch = AgentBatch(problem, topology, cs.build_weights(topology))
    warm = WarmStart(batch)
    warm.solve_stacked(batch.offsets(np.zeros(batch.size)))
    work = warm.work
    assert batch.sets.size
    batch.refresh(batch.linear, batch.constant, batch.rows.reshape(-1, 2)[batch.cells],
                  batch.base.reshape(-1)[batch.cells])
    assert batch.sets.size == 0 and batch.sets.ids == {}
    assert np.array_equal(WarmStart(batch, work).work, work)


def test_agent_at_a_barrier_center_names_the_step_and_time():
    scenario, graph, state = line_consensus_scenario(horizon=0.05)
    positions = state.positions.copy()
    positions[2] = scenario.barriers[0].center  # agent 3: a zero barrier row
    at = MultiAgentState(0.25, positions)
    for solver in SOLVERS:
        with pytest.raises(RankDeficiencyError,
                           match=r"^step 0 \(t=0\.250\): agents \(3,\) have linearly "
                                 "dependent barrier rows"):
            run_closed_loop(replace(scenario, solver=solver), graph, at)


@pytest.mark.parametrize("solver", SOLVERS)
def test_alpha_turning_nan_raises_validation_error(solver):
    calls = []

    def alpha(g):
        calls.append(g)
        return math.nan if len(calls) >= 3 else 2.0 * g

    graph, barriers, state = _binding_setup()
    scenario = CbfScenario(barriers, dt=0.01, horizon=0.05, gamma=0.05, alpha=alpha,
                           solver=solver)
    with pytest.raises(ValidationError, match="agent 1 inequality row 1: offset must be finite"):
        run_closed_loop(scenario, graph, state)
    assert len(calls) == 3  # the compile, step 0 and step 1


@pytest.mark.parametrize("horizon", [0.05, 0.2])
def test_distributed_loop_compiles_once(monkeypatch, horizon):
    counts = {"batch": 0, "assemble": 0, "licq": 0}
    init = AgentBatch.__init__
    assemble = cbf.assemble_step_problem
    licq = problem_module.validate_licq

    def counting(name, function):
        def spy(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return spy

    monkeypatch.setattr(AgentBatch, "__init__", counting("batch", init))
    monkeypatch.setattr(cbf, "assemble_step_problem", counting("assemble", assemble))
    monkeypatch.setattr(problem_module, "validate_licq", counting("licq", licq))
    scenario, graph, state = line_consensus_scenario(horizon=horizon)
    result = run_closed_loop(scenario, graph, state)
    assert result.inputs.shape[0] == round(horizon / scenario.dt)
    assert counts["batch"] == 1
    assert counts["assemble"] <= 1
    assert counts["licq"] <= 1


def test_one_rank_pass_per_filter_step(monkeypatch):
    # Each step checks the rows it solves once: the refreshed batch's, or
    # the centralized step problem's report, which the oracle then reads.
    # 50 steps of two (rows, block dimension) groups each.
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for solver in SOLVERS:
        del calls[:]
        run_closed_loop(*line_consensus_scenario(horizon=0.5, solver=solver))
        assert len(calls) == 100, solver


@pytest.mark.parametrize("field, value", [
    ("dt", math.nan), ("dt", math.inf), ("horizon", math.inf), ("horizon", 0.0),
    ("gamma", math.nan), ("gamma", -0.1), ("gamma", True), ("inner_iterations", 2.5),
    ("inner_iterations", True), ("inner_iterations", 0),
])
def test_scenario_rejects_bad_numbers_naming_the_field(field, value):
    barrier = (Barrier((0.0, 0.0), 1.0, (1,)),)
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        CbfScenario(barrier, **{field: value})


@pytest.mark.parametrize("horizon, steps", [(0.004, 0), (0.005, 0), (0.006, 1), (0.02, 2)])
def test_scenario_needs_at_least_one_step(horizon, steps):
    barrier = (Barrier((0.0, 0.0), 1.0, (1,)),)
    if steps:
        assert CbfScenario(barrier, dt=0.01, horizon=horizon).steps == steps
    else:
        with pytest.raises(ValidationError, match="^horizon must span at least one step"):
            CbfScenario(barrier, dt=0.01, horizon=horizon)


def test_scenario_needs_a_finite_step_count():
    barrier = (Barrier((0.0, 0.0), 1.0, (1,)),)
    with pytest.raises(ValidationError, match=r"^horizon / dt must be finite, got 1e\+300 / 1e-10$"):
        CbfScenario(barrier, dt=1e-10, horizon=1e300)


@pytest.mark.parametrize("center, radius_sq, agents, field", [
    ((math.nan, 0.0), 1.0, (1,), "center"),
    ((0.0,), 1.0, (1,), "center"),
    ((0.0, 0.0), 0.0, (1,), "radius_sq"),
    ((0.0, 0.0), math.inf, (1,), "radius_sq"),
    ((0.0, 0.0), 1.0, (), "agents"),
    ((0.0, 0.0), 1.0, (1, 1), "agents"),
    ((0.0, 0.0), 1.0, (1.5,), "agents"),
    ((0.0, 0.0), 1.0, (0,), "agents"),
    ((0.0, 0.0), 1.0, (-1,), "agents"),
])
def test_barrier_rejects_bad_fields(center, radius_sq, agents, field):
    with pytest.raises(ValidationError, match=f"^barrier {field} must be"):
        Barrier(center, radius_sq, agents)


def test_closed_loop_rejects_agents_outside_the_state():
    scenario, graph, state = line_consensus_scenario(horizon=0.02)
    wide = replace(scenario, barriers=(*scenario.barriers, Barrier((0.0, 0.0), 1.0, (2, 9))))
    with pytest.raises(ValidationError, match=r"^barrier 3 names agent 9, outside 1\.\.7$"):
        run_closed_loop(wide, graph, state)
    with pytest.raises(ValidationError, match=r"^barrier 3 names agent 9"):
        assemble_step_problem(state, wide, graph)
    bigger = cs.Graph.from_edges(8, [(i, i + 1) for i in range(1, 8)])
    with pytest.raises(ValidationError, match="^graph has 8 agents but the state has 7$"):
        run_closed_loop(scenario, bigger, state)
