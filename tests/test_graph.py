import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import couplesolve as cs
from couplesolve.exceptions import (
    DisconnectedSubgraphError,
    ValidationError,
    WeightMatrixError,
)


def test_edges_canonicalized():
    g = cs.Graph.from_edges(3, [(2, 1), (1, 2), (3, 2)])
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        cs.Graph.from_edges(3, [(1, 1)])


def test_edge_out_of_range_rejected():
    with pytest.raises(ValidationError):
        cs.Graph.from_edges(2, [(1, 3)])


@pytest.mark.parametrize("build, named", [
    (lambda: cs.Graph(2.5, frozenset()), "n_agents must be an integer, got 2.5"),
    (lambda: cs.Graph(0, frozenset()), "graph needs at least one agent, got 0"),
    (lambda: cs.Graph.from_edges(3, [(1.5, 2)]), "edge endpoint must be an integer, got 1.5"),
    (lambda: cs.Graph.from_edges(3, [(1, True)]), "edge endpoint must be an integer, got True"),
    (lambda: cs.Graph(3, frozenset({(1, 2.0)})), "edge endpoint must be an integer, got 2.0"),
], ids=["n_agents-float", "n_agents-zero", "edge-float", "edge-bool", "edge-float-direct"])
def test_graph_numbers_must_be_integers_in_range(build, named):
    with pytest.raises(ValidationError, match=re.escape(named)):
        build()
    g = cs.Graph.from_edges(np.int64(3), [(np.int64(2), np.int32(1))])  # numpy integers pass
    assert g.edges == {(1, 2)}
    assert all(type(i) is int for edge in g.edges for i in edge)


def test_neighborhood_includes_self():
    g = cs.Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert g.neighborhood(2) == (1, 2, 3)
    assert g.neighborhood(1) == (1, 2)


def test_induced_topology_on_shared_example(diamond):
    topo = cs.induce_topology(diamond, diamond.graph)
    assert topo.participants_of(1) == (1, 4)
    assert topo.edges_of(1) == frozenset({(1, 4)})
    assert topo.participants_of(2) == (1, 2, 3)
    assert topo.edges_of(2) == frozenset({(1, 2), (2, 3), (1, 3)})
    # agent 1 sits in both constraints, agent 4 only in the inequality
    assert topo.constraints_of(1) == (1, 2)
    assert topo.constraints_of(4) == (1,)
    assert topo.neighborhood(2, 2) == (1, 2, 3)
    assert topo.neighborhood(1, 4) == (1, 4)


def test_participation_needs_nonzero_row():
    # a zero coefficient row with zero offset is dropped entirely; an offset
    # alone is enough to participate
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0], 0.0)
    cons.add_ineq_row(2, 1, [0.0], -3.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topo = cs.induce_topology(problem, graph)
    assert topo.participants_of(1) == (1, 2)


def test_connectivity_report(diamond):
    topo = cs.induce_topology(diamond, diamond.graph)
    report = cs.check_connectivity(topo)
    assert report.all_connected
    assert report.failures() == ()


def test_disconnected_participants_raise():
    # agents 1 and 3 share a constraint but the only path runs through 2,
    # which does not participate; the last constraint has no participant
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(3, m_ineq=2, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0], 0.0)
    cons.add_ineq_row(3, 1, [1.0], 0.0)
    graph = cs.Graph.from_edges(3, [(1, 2), (2, 3)])
    problem = cs.ProblemSpec((obj, obj, obj), cons, graph)
    topo = cs.induce_topology(problem, graph)
    assert cs.check_connectivity(topo).connected == (False, True)
    with pytest.raises(DisconnectedSubgraphError, match=r"constraints \(1,\) induce"):
        cs.build_weights(topo)


def _path_topology(path4):
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(4, m_ineq=1, q_eq=0)
    for i in range(1, 5):
        cons.add_ineq_row(i, 1, [1.0], 0.0)
    problem = cs.ProblemSpec((obj,) * 4, cons, path4)
    return cs.induce_topology(problem, path4)


def test_metropolis_on_path_is_exact(path4):
    topo = _path_topology(path4)
    w = cs.metropolis_weights(1, topo)
    third = Fraction(1, 3)
    expected = np.array([
        [2 * third, third, 0, 0],
        [third, third, third, 0],
        [0, third, third, third],
        [0, 0, third, 2 * third],
    ], dtype=float)
    assert np.abs(w.entries - expected).max() <= 1e-15
    w.validate(topo)
    assert cs.null_range_check(w)


def test_weight_accessors(path4):
    topo = _path_topology(path4)
    w = cs.metropolis_weights(1, topo)
    assert w.weight(1, 2) == pytest.approx(1 / 3)
    assert w.weight(1, 4) == 0.0
    assert w.weight(1, 1) == pytest.approx(2 / 3)


def test_validate_rejects_off_subgraph_weight(path4):
    topo = _path_topology(path4)
    entries = cs.metropolis_weights(1, topo).entries.copy()
    entries[0, 3] = entries[3, 0] = 0.1
    entries[0, 0] -= 0.1
    entries[3, 3] -= 0.1
    bad = cs.WeightMatrix(1, (1, 2, 3, 4), entries)
    with pytest.raises(WeightMatrixError):
        bad.validate(topo)


def test_validate_rejects_bad_row_sums(path4):
    topo = _path_topology(path4)
    entries = cs.metropolis_weights(1, topo).entries * 0.9
    with pytest.raises(WeightMatrixError):
        cs.WeightMatrix(1, (1, 2, 3, 4), entries).validate(topo)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite_weights(path4, bad):
    topo = _path_topology(path4)
    entries = cs.metropolis_weights(1, topo).entries.copy()
    entries[0, 1] = entries[1, 0] = bad
    with pytest.raises(WeightMatrixError, match="entries must be finite"):
        cs.WeightMatrix(1, (1, 2, 3, 4), entries).validate(topo)


def test_validate_rejects_weights_on_other_participants(path4):
    topo = _path_topology(path4)
    with pytest.raises(WeightMatrixError, match=re.escape(
            "constraint 1: participants (1, 2, 4) are not the topology's (1, 2, 3, 4)")):
        cs.WeightMatrix(1, (1, 2, 4), np.full((3, 3), 1 / 3)).validate(topo)


def test_null_range_fails_on_identity():
    # identity weights mean no mixing: the kernel of I - P is everything
    w = cs.WeightMatrix(1, (1, 2), np.eye(2))
    assert not cs.null_range_check(w)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    edges = {(draw(st.integers(min_value=1, max_value=k)), k + 1)
             for k in range(1, n)}
    extras = draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6))
    for i, j in extras:
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return cs.Graph.from_edges(n, sorted(edges))


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_metropolis_invariants_hold_on_random_graphs(graph):
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(graph.n_agents, m_ineq=1, q_eq=0)
    for i in range(1, graph.n_agents + 1):
        cons.add_ineq_row(i, 1, [1.0], 0.0)
    problem = cs.ProblemSpec(
        (obj,) * graph.n_agents, cons, graph)
    topo = cs.induce_topology(problem, graph)
    w = cs.build_weights(topo)[1]
    w.validate(topo)  # symmetry, stochasticity, support, kernel rank
    assert np.all(w.entries >= 0)
    assert np.abs(w.entries.sum(axis=0) - 1.0).max() <= 1e-12


def _first_bad_support_pair(weights, topology):
    """The pair-by-pair support check in row-major order: its message, or None."""
    l, p = weights.constraint_index, weights.entries
    for a, i in enumerate(weights.participants):
        hood = topology.neighborhood(l, i)
        for b, j in enumerate(weights.participants):
            if j in hood and p[a, b] <= 0:
                return f"constraint {l}: weight ({i},{j}) should be positive"
            if j not in hood and p[a, b] != 0:
                return f"constraint {l}: nonzero weight ({i},{j}) off the subgraph"
    return None


@given(connected_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_validate_names_the_first_bad_support_pair(graph, data):
    # Symmetric moves of weight between a pair and its diagonals keep the
    # signs, the symmetry and the row sums: each one zeroes an edge's weight
    # or weighs a pair off the subgraph, and the check names the first bad
    # pair in row-major order, as a walk over the neighbourhoods does.
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(graph.n_agents, m_ineq=1, q_eq=0)
    for i in range(1, graph.n_agents + 1):
        cons.add_ineq_row(i, 1, [1.0], 0.0)
    topo = cs.induce_topology(cs.ProblemSpec((obj,) * graph.n_agents, cons, graph), graph)
    w = cs.build_weights(topo)[1]
    entries, k = w.entries.copy(), graph.n_agents
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda t: t[0] != t[1])
    for a, b in data.draw(st.lists(pairs, min_size=1, max_size=3)):
        shift = -entries[a, b] if entries[a, b] > 0 else 0.01
        entries[a, b] += shift
        entries[b, a] += shift
        entries[a, a] -= shift
        entries[b, b] -= shift
    bad = cs.WeightMatrix(1, w.participants, entries)
    expected = _first_bad_support_pair(bad, topo)
    assume(expected is not None)
    with pytest.raises(WeightMatrixError, match=f"^{re.escape(expected)}$"):
        bad.validate(topo)
