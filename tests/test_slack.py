import numpy as np
import pytest

import couplesolve as cs
from couplesolve.exceptions import RankDeficiencyError, ValidationError
from couplesolve.local_qp import AgentBatch, WarmStart
from gen import reduced_space_instance, scaled_problem, strongly_convex_instance
from reference import (AgentView, block_slices, consensus_gradient, fresh_solutions,
                       total_objective)


def _layout(toy):
    _, topology, _ = toy
    return cs.SlackLayout.from_topology(topology)


def test_layout_indexing(toy):
    layout = _layout(toy)
    assert layout.size == 2
    assert layout.index(1, 1) == 0
    assert layout.index(1, 2) == 1
    assert layout.block(1) == slice(0, 2)


def test_constraints_outside_the_layout_raise_key_error():
    # A negative or past-the-end constraint number reads no other
    # constraint's coordinate, whatever reads it.
    _, topology, _ = strongly_convex_instance(0)
    layout, n = topology.layout, topology.n_constraints
    state = cs.SlackState(layout, np.arange(layout.size, dtype=float))
    views = cs.SimnetTransport(topology, audit=True).gather(cs.Phase.SLACK_EXCHANGE,
                                                            state.values)
    for l in (-1, 0, n + 1):
        for j in (topology.participants[0][0], topology.participants[-1][-1]):
            for read in (layout.index, state.value, topology.neighborhood,
                         lambda l, j: views[j - 1][(l, j)]):
                with pytest.raises(KeyError, match=rf"^\({l}, {j}\)$"):
                    read(l, j)
    assert len(views.auditor.violations) == 6  # each audited read recorded, then refused


@pytest.mark.parametrize("seed", range(6))
def test_layout_reads_back_the_topology_as_python_ints(seed):
    _, topology, _ = strongly_convex_instance(seed)
    layout = cs.SlackLayout.from_topology(topology)
    read = layout.participants
    assert read == topology.participants
    assert not any(a is b for a, b in zip(read, topology.participants) if a)
    assert layout.constraints == tuple(range(1, topology.n_constraints + 1))
    assert layout.size == sum(map(len, topology.participants))
    coord = 0
    for l, members in enumerate(topology.participants, start=1):
        block = layout.block(l)
        assert block == slice(coord, coord + len(members))
        assert type(block.start) is int and type(block.stop) is int
        for i in members:
            index = layout.index(l, i)
            assert index == coord and type(index) is int
            coord += 1
    reads = (layout.size, *layout.constraints, *(i for m in layout.participants for i in m))
    assert all(type(v) is int for v in reads)


def test_state_accessors(toy):
    layout = _layout(toy)
    state = cs.SlackState(layout, np.array([2.0, 0.0]))
    assert state.value(1, 1) == 2.0
    assert state.block(1).tolist() == [2.0, 0.0]
    clone = state.copy()
    clone.values[0] = 5.0
    assert state.values[0] == 2.0


def _stacked(toy, values):
    """A fresh stream's stacked solve at one allocation: (batch, z)."""
    warm = WarmStart(AgentBatch(*toy))
    return warm.batch, warm.solve_stacked(warm.batch.offsets(np.asarray(values, dtype=float)))


def test_stacked_solve_known_point(toy):
    problem, topology, weights = toy
    batch, z = _stacked(toy, [2.0, 0.0])
    sols = fresh_solutions(problem, topology, weights, np.array([2.0, 0.0]))
    # agent 1 absorbs the slack surplus, agent 2 covers the rest
    assert z[:, 0] == pytest.approx([0.0, 2.0])  # each agent's one coordinate
    assert z[:, 1] == pytest.approx([0.0, -2.0])  # and its one equality row's multiplier
    assert [sol.eq_multipliers[1] for sol in sols] == pytest.approx([0.0, -2.0])
    assert total_objective(problem, sols) == pytest.approx(2.0)
    assert batch.objective(z) == pytest.approx(2.0)
    assert batch.primal(z) == pytest.approx([0.0, 2.0])


def test_stacked_gradient_known_point(toy):
    problem, topology, weights = toy
    batch, z = _stacked(toy, [2.0, 0.0])
    sols = fresh_solutions(problem, topology, weights, np.array([2.0, 0.0]))
    assert batch.gradient(batch.multipliers(z)) == pytest.approx([1.0, -1.0])
    assert consensus_gradient(sols, topology, weights, _layout(toy)) == (
        pytest.approx([1.0, -1.0]))


def test_equal_multipliers_give_bitwise_zero_gradient(toy):
    problem, topology, weights = toy
    # multiplier consensus means a zero gradient block, exactly
    view = {(1, 1): -0.75, (1, 2): -0.75}
    block = [cs.consensus_gap(1, i, topology, weights, view) for i in (1, 2)]
    assert block == [0.0, 0.0]


def test_offsets_invariant_under_block_translation(toy):
    problem, topology, weights = toy
    layout = _layout(toy)
    batch = AgentBatch(problem, topology, weights)
    qps = [AgentView(batch, topology, a) for a in range(batch.n_agents)]

    def offsets(values):
        state = cs.SlackState(layout, np.asarray(values, dtype=float))
        out = []
        for qp in qps:
            view = {(1, j): state.value(1, j) for j in (1, 2)}
            out.append(qp.offsets(view)[qp.n_ineq])  # the agent's one equality row
        return out

    base = offsets([0.625, -0.25])
    shifted = offsets([0.625 + 0.5, -0.25 + 0.5])
    assert shifted == base  # exact equality, not approximate


def test_optimum_reached_at_feasible_slack(toy):
    problem, topology, weights = toy
    layout = _layout(toy)
    star = cs.feasible_slack_from_primal(np.array([0.0, 2.0]), problem,
                                         topology, weights)
    assert star.values == pytest.approx([1.0, -1.0])
    # the allocation built from any feasible primal reproduces its residuals
    sols = fresh_solutions(problem, topology, weights, star.values)
    assert total_objective(problem, sols) <= 2.0 + 1e-12


def test_feasible_slack_rejects_infeasible_primal(toy):
    problem, topology, weights = toy
    with pytest.raises(ValidationError):
        cs.feasible_slack_from_primal(np.array([0.0, 0.0]), problem,
                                      topology, weights)


@pytest.mark.parametrize("instance, seed, scale", [
    pytest.param(strongly_convex_instance, 0, 2e7, id="strongly_convex_instance-0"),
    pytest.param(strongly_convex_instance, 1, 1e7, id="strongly_convex_instance-1"),
    pytest.param(reduced_space_instance, 9, 1e7, id="reduced_space_instance-9")])
def test_feasible_slack_accepts_what_the_oracle_certifies_at_scale(instance, seed, scale):
    # At these scales the certified optimum leaves row residuals of 1.9e-9
    # to 2.8e-9: within the certificate's bound relative to the rows' terms.
    # (At 1e7, seed 0's residual is 9.3e-10.)
    problem, _, _ = instance(seed)
    problem = scaled_problem(problem, scale)
    topology = cs.induce_topology(problem, problem.graph)
    weights = cs.build_weights(topology)
    sol = cs.solve_centralized(problem)
    assert max(cs.max_violation(problem, sol.x)) > 1e-9
    star = cs.feasible_slack_from_primal(sol.x, problem, topology, weights)
    assert star.values.size
    assert cs.default_box_bound(problem, topology, weights, sol) > 0.0


def test_feasible_slack_rejects_a_point_off_a_row_at_unit_scale():
    problem, topology, weights = strongly_convex_instance(0)
    x = cs.solve_centralized(problem).x
    agent = topology.participants_of(problem.constraints.m_ineq + 1)[0]
    coeffs, _ = problem.constraints.agent_rows(agent)[1][1]
    x[block_slices(problem)[agent - 1]] += 1e-6 * coeffs / (coeffs @ coeffs)
    assert cs.max_violation(problem, x)[1] == pytest.approx(1e-6)
    with pytest.raises(ValidationError):
        cs.feasible_slack_from_primal(x, problem, topology, weights)


def test_finite_difference_matches_analytic(toy):
    problem, topology, weights = toy
    layout = _layout(toy)
    state = cs.SlackState(layout, np.array([2.0, 0.0]))
    fd, flags = cs.finite_difference_gradient(state, problem, topology,
                                              weights)
    assert not flags.any()
    assert fd == pytest.approx([1.0, -1.0], abs=1e-7)


def test_finite_difference_rejects_dependent_rows_before_any_solve(dependent_rows,
                                                                  affine_calls):
    # The probe check names the agents as run does, not the singular KKT
    # system its base solve would meet.
    state = cs.SlackState(_layout(dependent_rows), np.zeros(4))
    with pytest.raises(RankDeficiencyError,
                       match=r"^agents \(1, 2\) have linearly dependent constraint rows$"):
        cs.finite_difference_gradient(state, *dependent_rows)
    assert affine_calls == []


def test_neighbor_views_cover_neighborhoods(toy):
    problem, topology, weights = toy
    views = cs.SimnetTransport(topology).gather(cs.Phase.SLACK_EXCHANGE, np.array([2.0, 0.0]))
    assert views[0] == {(1, 1): 2.0, (1, 2): 0.0}
    assert views[1] == {(1, 1): 2.0, (1, 2): 0.0}


def test_gradient_matches_objective_slope(toy):
    # the stacked gradient must predict allocation-cost changes to first
    # order along a coordinate direction
    problem, topology, weights = toy
    y = np.array([0.5, -0.25])
    batch, z = _stacked(toy, y)
    grad = batch.gradient(batch.multipliers(z))
    h = 1e-6
    for k in range(2):
        bumped = y.copy()
        bumped[k] += h
        up = total_objective(problem, fresh_solutions(problem, topology, weights, bumped))
        down = total_objective(problem, fresh_solutions(problem, topology, weights, y))
        assert (up - down) / h == pytest.approx(grad[k], abs=1e-4)
