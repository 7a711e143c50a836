"""The batched set-up against its scalar loops, bit for bit.

``induce_topology`` keeps the slack layout and the one-hop reads as int
arrays, from which the topology's accessors read every set,
``check_connectivity`` propagates labels along the hops,
``build_weights`` groups the Metropolis arithmetic by participant count, and
``validate_licq``, ``operator_norms`` and ``lipschitz_bound`` group their
work into stacked LAPACK calls; each must give what ``tests/reference.py``'s
agent-by-agent and constraint-by-constraint loops give: equal bits for every
float and array, or an exception of equal type and message.  Cases: the
``tests/gen.py`` families (strongly convex seeds 0-24, reduced-space seeds
0-11, whose PSD Hessians have no Lipschitz bound), the failing instance
(rank-deficient rows) and the benchmark's 400-agent ring; the topology
also on ``tests/gen.py``'s mixed block dimensions (seeds 0-3), the line
safety filter's QP, random graphs and participant sets (disconnected,
empty and singleton sets, isolated agents) and a 300-participant path.
"""

import dataclasses
import logging
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import couplesolve as cs
from couplesolve.local_qp import AgentBatch
from gen import (benchmark_ring, failing_instance, mixed_dims_instance, reduced_space_instance,
                 strongly_convex_instance)
from reference import (scalar_check_connectivity, scalar_induce_topology, scalar_lipschitz_bound,
                       scalar_metropolis, scalar_neighborhood, scalar_operator_norms,
                       scalar_validate_licq)

CASES = ([(strongly_convex_instance, seed) for seed in range(25)]
         + [(reduced_space_instance, seed) for seed in range(12)]
         + [(failing_instance,), (benchmark_ring,)])
IDS = ([f"sc{seed}" for seed in range(25)] + [f"rs{seed}" for seed in range(12)]
       + ["failing", "ring400"])


def _bits(value):
    """``value`` with every float replaced by its bits, types kept."""
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, np.ndarray):
        return type(value).__name__, value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits([getattr(value, f.name)
                                            for f in dataclasses.fields(value)])
    return type(value).__name__, value


def _outcome(function, *args):
    """The bits of ``function(*args)``, or the type and message it raised."""
    try:
        return "returned", _bits(function(*args))
    except cs.CoupleSolveError as exc:
        return "raised", type(exc), str(exc)


@pytest.fixture(params=CASES, ids=IDS, scope="module")
def case(request):
    make, *args = request.param
    return make(*args)


def _assert_hops_and_flags_are_the_scalar_loops(problem, topology):
    """The counts and arrays bit for bit, and the connectivity flags (Python
    bools) the search's; returns the scalar loops' topology."""
    reference = scalar_induce_topology(problem, problem.graph)
    assert topology == reference.topology
    assert _bits(topology) == _bits(reference.topology)
    assert _bits(cs.check_connectivity(topology)) == _bits(
        scalar_check_connectivity(reference.topology))
    return reference


def _assert_topology_is_the_scalar_loops(problem, topology, weights):
    """The hops and flags bit for bit, and every set the accessors read
    off them equal to the scalar loops' stored tuple, with Python ints."""
    reference = _assert_hops_and_flags_are_the_scalar_loops(problem, topology)
    assert _bits(topology.participants) == _bits(reference.participants)
    for l, members in enumerate(reference.participants, start=1):
        assert _bits(topology.participants_of(l)) == _bits(members)
        assert topology.edges_of(l) == reference.edges_of(l)
        assert all(type(i) is int for edge in topology.edges_of(l) for i in edge)
        for i in members:
            assert topology.neighborhood(l, i) == scalar_neighborhood(reference.edges_of(l), i)
    for i in range(1, problem.n_agents + 1):
        assert _bits(topology.constraints_of(i)) == _bits(reference.constraints_of(i))
    assert _bits(weights) == _bits(scalar_metropolis(reference))


def _line_filter():
    scenario, graph, state = cs.line_consensus_scenario()
    problem = cs.assemble_step_problem(state, scenario, graph)
    topology = cs.induce_topology(problem, graph)
    return problem, topology, cs.build_weights(topology)


def test_topology_is_the_scalar_loops(case):
    _assert_topology_is_the_scalar_loops(*case)


@pytest.mark.parametrize("make, args", [(mixed_dims_instance, (seed,)) for seed in range(4)]
                         + [(_line_filter, ())],
                         ids=[f"mixed{seed}" for seed in range(4)] + ["line-filter"])
def test_topology_of_mixed_blocks_and_the_filter_is_the_scalar_loops(make, args):
    # Agents of several (dimension, row count) blocks, whose rows the
    # layout sorts together, and the safety filter's QP.
    _assert_topology_is_the_scalar_loops(*make(*args))


def _problem(graph, dims, participants):
    """A problem on ``graph`` whose constraint l (inequalities only) is
    stored by the agents ``participants[l - 1]``, each with a row of ones."""
    cons = cs.CouplingConstraints(graph.n_agents, len(participants), 0)
    for l, members in enumerate(participants, start=1):
        for i in members:
            cons.add_ineq_row(i, l, np.ones(dims[i - 1]), 0.0)
    objectives = tuple(cs.AgentObjective(np.eye(d), np.zeros(d)) for d in dims)
    return cs.ProblemSpec(objectives, cons, graph)


@st.composite
def topologies(draw):
    """A random graph, isolated agents included, and random participant
    sets: disconnected, empty and singleton ones among them."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    graph = cs.Graph.from_edges(n, draw(st.lists(pairs, max_size=2 * n)) if n > 1 else ())
    dims = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    agents = st.lists(st.integers(1, n), unique=True).map(sorted)
    return _problem(graph, dims, draw(st.lists(agents, max_size=6)))


@settings(derandomize=True, max_examples=300, deadline=timedelta(seconds=10))
@given(topologies())
def test_random_topologies_are_the_scalar_loops(problem):
    topology = cs.induce_topology(problem, problem.graph)
    _assert_hops_and_flags_are_the_scalar_loops(problem, topology)


@pytest.mark.parametrize("cut", [None, 1, 150, 299])
def test_a_300_participant_path_is_the_scalar_loops(cut):
    # A path whose hops need 299 steps to cross, whole or cut at one edge,
    # with a constraint on its two halves and one on every third agent.
    n = 300
    graph = cs.Graph.from_edges(n, [(i, i + 1) for i in range(1, n) if i != cut])
    problem = _problem(graph, [1] * n, [range(1, n + 1), range(1, 151), range(151, n + 1),
                                        range(1, n + 1, 3)])
    topology = cs.induce_topology(problem, graph)
    _assert_hops_and_flags_are_the_scalar_loops(problem, topology)
    def whole(first, last):  # the edges (i, i + 1), first <= i < last, all kept
        return cut is None or not first <= cut < last

    assert cs.check_connectivity(topology).connected == (
        whole(1, n), whole(1, 150), whole(151, n), False)


def test_licq_and_bound_are_the_scalar_loops(case):
    problem, topology, weights = case
    licq = cs.validate_licq(problem)
    assert _bits(licq) == _bits(scalar_validate_licq(problem))
    assert _bits(AgentBatch(problem, topology, weights).licq()) == _bits(licq)
    assert _outcome(cs.operator_norms, topology, weights) == _outcome(
        scalar_operator_norms, topology, weights)
    for given in (None, licq):
        assert _outcome(cs.lipschitz_bound, problem, topology, weights, given) == _outcome(
            scalar_lipschitz_bound, problem, topology, weights, given)


def test_failures_name_the_same_agents():
    problem, topology, weights = failing_instance()
    outcome = _outcome(cs.lipschitz_bound, problem, topology, weights)
    assert outcome[:2] == ("raised", cs.RankDeficiencyError)
    assert "agents (1, 3)" in outcome[2]
    problem, topology, weights = reduced_space_instance(0)
    outcome = _outcome(cs.lipschitz_bound, problem, topology, weights)
    assert outcome[:2] == ("raised", cs.ValidationError)
    assert outcome[2].startswith("agent 1: Hessian not positive definite")


def _svd_calls(monkeypatch):
    """Count singular value decompositions from here on."""
    counts = {"svd": 0}
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return counts


def test_run_checks_gamma_on_the_problems_report(monkeypatch, caplog):
    problem, topology, weights = strongly_convex_instance(4)
    groups = len(AgentBatch(problem, topology, weights).by_shape)
    bound = cs.lipschitz_bound(*strongly_convex_instance(4))  # an equal problem's report
    counts = _svd_calls(monkeypatch)
    # The fresh problem's report costs one SVD per (rows, dim) group; the
    # second run reads it off the problem.
    for gamma, warned, svds in ((1.0 / (2.0 * bound), False, groups),
                                (1.01 / (2.0 * bound), True, 0)):
        caplog.clear()
        counts.update(svd=0)
        with caplog.at_level(logging.WARNING, logger="couplesolve"):
            cs.run(problem, topology, weights, cs.AdaConfig(gamma, 2))
        assert counts == {"svd": svds}
        assert ("convergence guarantee void" in caplog.text) is warned


def test_run_reports_a_psd_problem_on_one_report(monkeypatch, caplog):
    problem, topology, weights = reduced_space_instance(2)
    groups = len(AgentBatch(problem, topology, weights).by_shape)
    counts = _svd_calls(monkeypatch)
    for svds in (groups, 0):
        caplog.clear()
        counts.update(svd=0)
        with caplog.at_level(logging.INFO, logger="couplesolve"):
            cs.run(problem, topology, weights, cs.AdaConfig(0.01, 2))
        assert counts == {"svd": svds}
        assert "gradient Lipschitz bound unavailable" in caplog.text


def test_the_report_is_built_once_per_problem(monkeypatch):
    problem, topology, weights = strongly_convex_instance(4)
    groups = len(AgentBatch(problem, topology, weights).by_shape)
    counts = _svd_calls(monkeypatch)
    report = cs.validate_licq(problem)
    for check in (cs.validate_licq, lambda p: cs.lipschitz_bound(p, topology, weights),
                  lambda p: cs.estimate_gradient_bound(p, topology, weights, 1.0),
                  cs.solve_centralized):
        check(problem)
    assert counts == {"svd": groups}
    assert cs.validate_licq(problem) is report
