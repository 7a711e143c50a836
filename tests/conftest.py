import numpy as np
import pytest

import couplesolve as cs
from couplesolve import local_qp


@pytest.fixture
def toy():
    """Two agents splitting one unit of a shared resource.

    min 1/2 x1^2 + 1/2 x2^2  s.t.  (x1 - 1) + (x2 - 1) = 0, agents joined by
    one edge.  Optimum x* = (1, 1), value 1, stacked multiplier -1.  Small
    enough that every intermediate quantity has a hand-derived value.
    """
    obj = cs.AgentObjective(np.array([[1.0]]), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=1)
    cons.add_eq_row(1, 1, [1.0], -1.0)
    cons.add_eq_row(2, 1, [1.0], -1.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topology = cs.induce_topology(problem, graph)
    weights = cs.build_weights(topology)
    return problem, topology, weights


@pytest.fixture
def diamond():
    """Four agents on a cycle with the 1-3 chord; one inequality touching
    agents 1 and 4, one equality touching agents 1-3."""
    dims = 3
    objectives = tuple(
        cs.AgentObjective(np.eye(dims), np.zeros(dims)) for _ in range(4)
    )
    cons = cs.CouplingConstraints(4, m_ineq=1, q_eq=1)
    cons.add_ineq_row(1, 1, [1.0, 0.0, 0.0], 0.0)
    cons.add_ineq_row(4, 1, [1.0, 1.0, 1.0], 0.0)
    cons.add_eq_row(1, 1, [1.0, 0.0, 0.0], 0.0)
    cons.add_eq_row(2, 1, [1.0, 1.0, 0.0], 0.0)
    cons.add_eq_row(3, 1, [0.0, 1.0, 0.0], 0.0)
    graph = cs.Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    return cs.ProblemSpec(objectives, cons, graph)


@pytest.fixture
def path4():
    return cs.Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def dependent_rows():
    """Two agents on one edge, each holding the parallel equality rows [1, 0] and [2, 0].

    Both agents' stacked rows are linearly dependent (LICQ fails for agents
    1 and 2), while the coupled rows are consistent.
    """
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=2)
    for i in (1, 2):
        cons.add_eq_row(i, 1, [1.0, 0.0], -1.0)
        cons.add_eq_row(i, 2, [2.0, 0.0], -2.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topology = cs.induce_topology(problem, graph)
    return problem, topology, cs.build_weights(topology)


@pytest.fixture
def affine_calls(monkeypatch):
    """Every evaluation of a working set's affine map, that is every local solve, from here on."""
    calls = []
    affine = local_qp._affine

    def spy(*args):
        calls.append(args)
        return affine(*args)

    monkeypatch.setattr(local_qp, "_affine", spy)
    return calls
