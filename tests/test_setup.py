"""The batched set-up against its scalar loops, bit for bit.

``induce_topology`` keeps the one-hop reads as int arrays,
``build_weights`` groups the Metropolis arithmetic by participant count, and
``validate_licq``, ``operator_norms`` and ``lipschitz_bound`` group their
work into stacked LAPACK calls; each must give what ``tests/reference.py``'s
agent-by-agent and constraint-by-constraint loops give: equal bits for every
float and array, or an exception of equal type and message.  Cases: the
``tests/gen.py`` families (strongly convex seeds 0-24, reduced-space seeds
0-11, whose PSD Hessians have no Lipschitz bound), the failing instance
(rank-deficient rows) and the benchmark's 400-agent ring.
"""

import dataclasses
import logging

import numpy as np
import pytest

import couplesolve as cs
from couplesolve.local_qp import AgentBatch
from gen import (benchmark_ring, failing_instance, reduced_space_instance,
                 strongly_convex_instance)
from reference import (scalar_induce_topology, scalar_lipschitz_bound, scalar_metropolis,
                       scalar_neighborhood, scalar_operator_norms, scalar_validate_licq)

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


def test_topology_is_the_scalar_loops(case):
    # The layout and the hops too, which equality leaves out.
    problem, topology, weights = case
    reference = scalar_induce_topology(problem, problem.graph)
    assert topology == reference
    assert _bits(topology) == _bits(reference)
    for l, members in enumerate(reference.participants, start=1):
        for i in members:
            assert topology.neighborhood(l, i) == scalar_neighborhood(reference.edges_of(l), i)
    assert _bits(weights) == _bits(scalar_metropolis(reference))


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
