import json

import numpy as np
import pytest

import couplesolve as cs
from couplesolve.exceptions import ConfigError
from couplesolve.formats import (
    emit_trajectory,
    load_problem,
    load_scenario,
    problem_from_dict,
    problem_to_dict,
    scenario_from_dict,
)

from gen import strongly_convex_instance


def _toy_dict():
    return {
        "agents": [
            {"dim": 1, "hessian": [[1.0]], "linear": [0.0]},
            {"dim": 1, "hessian": [[1.0]], "linear": [0.0]},
        ],
        "eq": [
            {"agent": 1, "row": 1, "coeffs": [1.0], "offset": -1.0},
            {"agent": 2, "row": 1, "coeffs": [1.0], "offset": -1.0},
        ],
        "edges": [[1, 2]],
    }


def test_problem_round_trips_through_json(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(_toy_dict()))
    problem, custom = load_problem(path)
    assert custom is None
    assert problem.n_agents == 2
    assert problem.constraints.m_ineq == 0   # defaults to max row index
    assert problem.constraints.q_eq == 1
    assert problem.graph.edges == frozenset({(1, 2)})
    sol = cs.solve_centralized(problem)
    assert sol.x.tolist() == [1.0, 1.0]


def test_explicit_row_counts_override_defaults():
    data = _toy_dict()
    data["m_ineq"] = 2
    data["q_eq"] = 3
    problem, _ = problem_from_dict(data)
    assert problem.constraints.m_ineq == 2
    assert problem.constraints.q_eq == 3


def test_custom_weights_parsed_per_constraint():
    data = _toy_dict()
    data["weights"] = [{"constraint": 1, "matrix": [[0.5, 0.5], [0.5, 0.5]]}]
    _, custom = problem_from_dict(data)
    assert set(custom) == {1}
    assert custom[1].tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_duplicate_custom_weights_rejected_by_entry():
    data = _toy_dict()
    data["weights"] = [{"constraint": 1, "matrix": [[0.5, 0.5], [0.5, 0.5]]},
                       {"constraint": 1, "matrix": [[0.75, 0.25], [0.25, 0.75]]}]
    with pytest.raises(ConfigError, match=r"weights\[1\]: duplicate weights for constraint 1$"):
        problem_from_dict(data)


@pytest.mark.parametrize("mutate, where", [
    (lambda d: d.update(extra=1), "unknown keys ['extra']"),
    (lambda d: d["agents"][0].update(hess=[]), "agents[1]"),
    (lambda d: d["eq"][0].update(agentt=1), "eq[0]"),
])
def test_unknown_keys_rejected_by_location(mutate, where):
    data = _toy_dict()
    mutate(data)
    with pytest.raises(ConfigError) as excinfo:
        problem_from_dict(data)
    assert where.split(":")[0] in str(excinfo.value)


def test_missing_row_key_rejected():
    data = _toy_dict()
    del data["eq"][0]["offset"]
    with pytest.raises(ConfigError, match="missing 'offset'"):
        problem_from_dict(data)


def test_dim_mismatch_rejected():
    data = _toy_dict()
    data["agents"][0]["dim"] = 2
    with pytest.raises(ConfigError, match="declares dim=2"):
        problem_from_dict(data)


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_problem(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_problem(path)


def test_scenario_parsing(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"dt": 0.02, "solver": "centralized",
                                "warm_start": True}))
    scenario = load_scenario(path)
    assert scenario.dt == 0.02
    assert scenario.solver == "centralized"
    assert scenario.warm_start is True
    assert scenario.horizon == 20.0  # untouched default
    with pytest.raises(ConfigError, match="unknown keys"):
        scenario_from_dict({"dtt": 0.02})


def test_trajectory_layout(tmp_path):
    graph = cs.Graph.from_edges(2, [(1, 2)])
    scenario = cs.CbfScenario((cs.Barrier((0.0, 0.0), 1.0, (1, 2)),),
                              dt=0.01, horizon=0.02, gamma=0.05)
    state = cs.MultiAgentState(0.0, np.array([[1.0, 0.0], [0.9, 0.1]]))
    result = cs.run_closed_loop(scenario, graph, state)

    path = tmp_path / "traj.csv"
    emit_trajectory(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,z1x,z1y,z2x,z2y,g1,u1x,u1y,u2x,u2y,"
                        "applied_feasible")
    assert len(lines) == 4  # header + two steps + final instant

    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(v) for v in first[1:5]] == [1.0, 0.0, 0.9, 0.1]
    assert first[-1] == "1"  # applied input satisfied the filter rows

    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(0.02)
    assert last[6:] == [""] * 5  # no input at the final instant


@pytest.mark.parametrize("seed", range(5))
def test_problem_dict_round_trips_through_json(seed):
    problem, _, _ = strongly_convex_instance(seed)
    loaded, custom = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
    assert custom is None
    assert loaded.graph == problem.graph
    for new, old in zip(loaded.objectives, problem.objectives):
        assert np.array_equal(new.hessian, old.hessian)
        assert np.array_equal(new.linear, old.linear)
        assert new.constant == old.constant
    cons, want = loaded.constraints, problem.constraints
    assert (cons.m_ineq, cons.q_eq) == (want.m_ineq, want.q_eq)
    for i in range(1, problem.n_agents + 1):
        for new, old in zip(cons.agent_rows(i), want.agent_rows(i)):
            assert new.keys() == old.keys()
            for row in new:
                assert np.array_equal(new[row][0], old[row][0])
                assert new[row][1] == old[row][1]
