import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import couplesolve as cs
from couplesolve.exceptions import DimensionMismatchError, RankDeficiencyError, ValidationError
from couplesolve import formats
from couplesolve.local_qp import AgentBatch, WarmStart
from gen import (benchmark_ring, doubled_equality_instance, failing_instance,
                 large_cost_scale_data, mixed_dims_instance, psd_benchmark_ring,
                 reduced_space_instance, strongly_convex_instance)
from reference import block_slices, scalar_duality_gap


def test_objective_value_and_curvature():
    obj = cs.AgentObjective(np.diag([2.0, 4.0]), np.array([1.0, 0.0]), 3.0)
    assert obj.value(np.array([1.0, 1.0])) == pytest.approx(3 + 1 + 3)
    assert np.linalg.eigvalsh(obj.hessian) == pytest.approx([2.0, 4.0])


@pytest.mark.parametrize("hessian, linear, constant, field", [
    pytest.param(np.eye(1), np.zeros(1), "x", "constant", id="constant-text"),
    pytest.param(np.eye(1), np.zeros(1), None, "constant", id="constant-none"),
    pytest.param(np.eye(1), np.zeros(1), True, "constant", id="constant-bool"),
    pytest.param(np.eye(1), np.zeros(1), np.bool_(False), "constant", id="constant-numpy-bool"),
    pytest.param([["a"]], np.zeros(1), 0.0, "hessian", id="hessian-text"),
    pytest.param([[1.0, 0.0], [0.0]], np.zeros(2), 0.0, "hessian", id="hessian-ragged"),
    pytest.param(np.eye(1), ["b"], 0.0, "linear", id="linear-text"),
    pytest.param(np.eye(1), [{}], 0.0, "linear", id="linear-object")])
def test_objective_rejects_non_numeric_input_naming_the_field(hessian, linear, constant, field):
    with pytest.raises(ValidationError, match=rf"^objective {field} must be numeric, got "):
        cs.AgentObjective(hessian, linear, constant)


@pytest.mark.parametrize("constant", [3, np.int64(3), np.float32(3.0), 3.0],
                         ids=["int", "numpy-int", "numpy-float32", "float"])
def test_objective_stores_its_constant_as_a_float(constant):
    obj = cs.AgentObjective(np.eye(1), np.zeros(1), constant)
    assert type(obj.constant) is float and obj.constant == 3.0


def test_problem_owns_its_costs():
    # Editing the caller's arrays in place after the problem is built, even
    # to an indefinite Hessian, changes nothing the problem holds or solves.
    hessian, linear = np.eye(2), np.array([0.0, -1.0])
    obj = cs.AgentObjective(hessian, linear, 0.5)
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=1)
    for i in (1, 2):
        cons.add_eq_row(i, 1, [1.0, 0.0], -1.0)
        cons.add_ineq_row(i, 1, [0.0, 1.0], -0.25)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topology = cs.induce_topology(problem, graph)
    weights = cs.build_weights(topology)

    def held():
        batch = AgentBatch(problem, topology, weights)
        sol = cs.solve_centralized(problem)
        return [obj.hessian, obj.linear, *(a for b in problem.blocks
                                           for a in (b.hessian, b.linear, b.constant)),
                batch.hessian, batch.linear, batch.constant,
                sol.x, sol.value, sol.ineq_multipliers, sol.eq_multipliers]

    before = [np.copy(a) for a in held()]
    hessian[...] = [[-5.0, 0.0], [0.0, 1.0]]
    linear[...] = [3.0, 4.0]
    assert all(np.array_equal(a, b) for a, b in zip(held(), before, strict=True))
    assert before[-3] == 1.5625  # 2 * (1/2 (1 + 1/16) - 1/4 + 1/2), at x_i = (1, 1/4)


def test_costs_are_read_only(toy):
    # The problem's copies refuse an in-place write, so every reader keeps
    # reading the costs the problem was built and checked with.
    problem, _, _ = toy
    obj = problem.objectives[0]
    for array, index in ((obj.hessian, (0, 0)), (obj.linear, 0)):
        with pytest.raises(ValueError, match="read-only"):
            array[index] = -5.0
    sol = cs.solve_centralized(problem)
    assert [b.hessian.tolist() for b in problem.blocks] == [[[[1.0]], [[1.0]]]]
    assert obj.hessian.tolist() == [[1.0]] and obj.linear.tolist() == [0.0]
    assert cs.objective_value(problem, sol.x) == sol.value == 1.0
    assert cs.duality_gap(problem, sol.x, sol.ineq_multipliers, sol.eq_multipliers) == 0.0


def test_blocks_are_read_only():
    # Every stacked array refuses an in-place write, so the blocks and the
    # rank report read off them stay as the problem was built.
    problem, _, _ = failing_instance()
    report = cs.validate_licq(problem)
    for b in problem.blocks:
        for array in vars(b).values():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
    assert cs.validate_licq(problem) is report
    assert [len(vars(b)) for b in problem.blocks] == [8] * len(problem.blocks)


def test_empty_hessian_rejected():
    with pytest.raises(ValidationError, match=r"^hessian must not be empty, got shape \(0, 0\)$"):
        cs.AgentObjective(np.zeros((0, 0)), np.zeros(0))


def test_asymmetric_hessian_rejected():
    with pytest.raises(ValidationError):
        cs.AgentObjective(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_indefinite_hessian_rejected():
    with pytest.raises(ValidationError):
        cs.AgentObjective(np.array([[-1.0]]), np.zeros(1))


def scaled_hessians(scale, count, seed=1):
    """``count`` 4 x 4 Hessians AᵀDA formed in floating point, D drawn from scale·[0.5, 2]."""
    rng = np.random.default_rng(seed)
    return [a.T @ np.diag(scale * rng.uniform(0.5, 2.0, 4)) @ a
            for a in rng.standard_normal((count, 4, 4))]


def scaled_semidefinite(scale, count, seed=1):
    """``count`` 3 x 3 Hessians scale·Q diag(1, 2, 0) Qᵀ, Q orthogonal, symmetrized."""
    rng = np.random.default_rng(seed)
    out = []
    for g in rng.standard_normal((count, 3, 3)):
        q, _ = np.linalg.qr(g)
        h = scale * q @ np.diag([1.0, 2.0, 0.0]) @ q.T
        out.append(0.5 * (h + h.T))
    return out


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_hessians_at_large_cost_scale_construct(scale):
    # Roundoff leaves many of these asymmetric beyond 1e-12 and some
    # semidefinite ones below -1e-10: the bounds are relative above size 1.
    hessians = scaled_hessians(scale, 300)
    assert any((np.abs(h - h.T) > 1e-12).any() for h in hessians)
    semidefinite = scaled_semidefinite(scale, 200)
    if scale == 1e6:
        assert any(np.linalg.eigvalsh(h).min() < -1e-10 for h in semidefinite)
    for h in hessians + semidefinite:
        cs.AgentObjective(h, np.zeros(len(h)))


def test_relative_hessian_checks_still_reject_at_large_scale():
    asymmetric = 1e4 * np.eye(2)
    asymmetric[0, 1] += 1e-9 * 1e4
    with pytest.raises(ValidationError, match="hessian must be symmetric"):
        cs.AgentObjective(asymmetric, np.zeros(2))
    with pytest.raises(ValidationError, match="hessian must be positive semidefinite"):
        cs.AgentObjective(np.diag([1e4, -1e-6 * 1e4]), np.zeros(2))


def test_lipschitz_bound_names_dependent_rows_like_every_rank_check():
    problem, topology, weights = failing_instance()
    with pytest.raises(RankDeficiencyError) as raised:
        cs.lipschitz_bound(problem, topology, weights)
    assert str(raised.value) == "agents (1, 3) have linearly dependent constraint rows"


def test_linear_term_length_checked():
    with pytest.raises(ValidationError):
        cs.AgentObjective(np.eye(2), np.zeros(3))


@pytest.mark.parametrize("field, args", [
    ("hessian", ([[math.nan]], [0.0], 0.0)),
    ("hessian", ([[math.inf]], [0.0], 0.0)),
    ("linear", ([[1.0]], [math.nan], 0.0)),
    ("linear", ([[1.0]], [-math.inf], 0.0)),
    ("constant", ([[1.0]], [0.0], math.nan)),
])
def test_non_finite_objective_rejected(field, args):
    hessian, linear, constant = args
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        cs.AgentObjective(np.array(hessian), np.array(linear), constant)


@pytest.mark.parametrize("field, coeffs, offset", [
    ("coeffs", [math.nan], 0.0),
    ("coeffs", [math.inf], 0.0),
    ("offset", [1.0], math.nan),
    ("offset", [1.0], math.inf),
])
def test_non_finite_row_rejected(field, coeffs, offset):
    cons = cs.CouplingConstraints(1, m_ineq=1, q_eq=1)
    with pytest.raises(ValidationError, match=f"inequality row 1: {field} must be finite"):
        cons.add_ineq_row(1, 1, coeffs, offset)
    with pytest.raises(ValidationError, match=f"equality row 1: {field} must be finite"):
        cons.add_eq_row(1, 1, coeffs, offset)


def test_duplicate_row_rejected():
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0], 0.0)
    with pytest.raises(ValidationError):
        cons.add_ineq_row(1, 1, [2.0], 0.0)


@pytest.mark.parametrize("agent, index, named", [
    (1, 1.5, "inequality row index must be an integer, got 1.5"),
    (1, True, "inequality row index must be an integer, got True"),
    (1, np.float64(1.0), "inequality row index must be an integer, got np.float64(1.0)"),
    (1.0, 1, "agent must be an integer, got 1.0"),
    (True, 1, "agent must be an integer, got True"),
], ids=["row-float", "row-bool", "row-numpy-float", "agent-float", "agent-bool"])
def test_row_and_agent_numbers_must_be_integers(agent, index, named):
    cons = cs.CouplingConstraints(2, m_ineq=2, q_eq=2)
    with pytest.raises(ValidationError, match=re.escape(named)):
        cons.add_ineq_row(agent, index, [1.0], 0.0)
    with pytest.raises(ValidationError, match=re.escape(named.replace("inequality", "equality"))):
        cons.add_eq_row(agent, index, [1.0], 0.0)
    cons.add_ineq_row(np.int64(2), np.int64(2), [1.0], 0.0)  # numpy integers are integers
    assert list(cons.agent_rows(2)[0]) == [2]


@pytest.mark.parametrize("args, named", [
    ((2, 1.5, 0), "m_ineq must be an integer, got 1.5"),
    ((2, 0, np.float64(1.0)), "q_eq must be an integer, got np.float64(1.0)"),
    ((2.0, 1, 0), "n_agents must be an integer, got 2.0"),
    ((2, True, 0), "m_ineq must be an integer, got True"),
    ((-1, 1, 0), "n_agents must be positive, got -1"),
    ((0, 1, 0), "n_agents must be positive, got 0"),
    ((2, 0, -2), "q_eq must be non-negative, got -2"),
], ids=["m_ineq-float", "q_eq-numpy-float", "n_agents-float", "m_ineq-bool",
        "n_agents-negative", "n_agents-zero", "q_eq-negative"])
def test_constraint_counts_must_be_integers_in_range(args, named):
    with pytest.raises(ValidationError, match=re.escape(named)):
        cs.CouplingConstraints(*args)
    cons = cs.CouplingConstraints(np.int64(2), np.int32(1), np.int64(0))  # numpy integers pass
    cons.add_ineq_row(2, 1, [1.0], 0.0)
    assert list(cons.agent_rows(2)[0]) == [1]


def test_row_index_range_checked():
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=1)
    with pytest.raises(ValidationError):
        cons.add_ineq_row(1, 2, [1.0], 0.0)
    with pytest.raises(ValidationError):
        cons.add_eq_row(1, 0, [1.0], 0.0)
    with pytest.raises(ValidationError):
        cons.add_ineq_row(3, 1, [1.0], 0.0)


def test_all_zero_row_dropped():
    cons = cs.CouplingConstraints(1, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, [0.0, 0.0], 0.0)
    ineq, eq = cons.agent_rows(1)
    assert ineq == {} and eq == {}


def test_combined_row_lookup(toy):
    problem, _, _ = toy
    _, eq = problem.constraints.agent_rows(1)
    coeffs, offset = eq[1]  # equality row 1 is constraint 1
    assert coeffs.tolist() == [1.0]
    assert offset == -1.0


def test_dimension_cross_checks(toy):
    problem, _, _ = toy
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=1)
    cons.add_eq_row(1, 1, [1.0], -1.0)  # one coeff for a 2-dim agent
    graph = cs.Graph.from_edges(2, [(1, 2)])
    with pytest.raises(ValidationError):
        cs.ProblemSpec((obj, obj), cons, graph)


def test_shape_check_sees_an_inequality_row_beside_an_equality_row():
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=1)
    cons.add_ineq_row(1, 1, [1.0], -1.0)  # one coeff for a 2-dim agent
    cons.add_eq_row(1, 1, [0.0, 1.0], -1.0)  # same index, right shape
    graph = cs.Graph.from_edges(2, [(1, 2)])
    with pytest.raises(DimensionMismatchError) as raised:
        cs.ProblemSpec((obj, obj), cons, graph)
    assert str(raised.value) == "agent 1 row 1: coefficients (1,) do not match block dimension 2"


def test_graph_size_must_match_agent_count():
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=0)
    graph = cs.Graph.from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(ValidationError):
        cs.ProblemSpec((obj, obj), cons, graph)


def test_block_columns_split_the_stacked_primal():
    objs = (
        cs.AgentObjective(np.eye(2), np.zeros(2)),
        cs.AgentObjective(np.eye(3), np.zeros(3)),
    )
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec(objs, cons, graph)
    x = np.arange(5.0)
    blocks = {int(a): x[columns] for b in problem.blocks
              for a, columns in zip(b.agents, b.columns)}
    assert blocks[0].tolist() == [0.0, 1.0]
    assert blocks[1].tolist() == [2.0, 3.0, 4.0]


def test_toy_objective_and_violation(toy):
    problem, _, _ = toy
    assert cs.objective_value(problem, np.array([1.0, 1.0])) == pytest.approx(1.0)
    ineq, eq = cs.aggregate_violation(problem, np.array([0.0, 2.0]))
    assert ineq.size == 0
    assert eq[0] == pytest.approx(0.0)
    vi, ve = cs.max_violation(problem, np.array([0.0, 0.0]))
    assert vi == 0.0
    assert ve == pytest.approx(2.0)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_aggregate_residual_is_affine(a, b, w):
    # residuals of a convex combination are the convex combination of the
    # residuals; this is what makes every interpolated allocation feasible
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, [2.0], 0.5)
    cons.add_ineq_row(2, 1, [-1.0], 1.5)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    xa = np.array([a, b])
    xb = np.array([b, a])
    ra, _ = cs.aggregate_violation(problem, xa)
    rb, _ = cs.aggregate_violation(problem, xb)
    rc, _ = cs.aggregate_violation(problem, w * xa + (1 - w) * xb)
    assert rc[0] == pytest.approx(w * ra[0] + (1 - w) * rb[0], abs=1e-9)


def _rank_failures(problem):
    """The compiled batch's rank check: ``validate_licq``'s rule on the stacked rows."""
    topology = cs.induce_topology(problem, problem.graph)
    return AgentBatch(problem, topology, cs.build_weights(topology)).licq().failures()


def test_licq_report_toy(toy):
    problem, _, _ = toy
    report = cs.validate_licq(problem)
    assert report.all_full_rank
    assert report.failures() == ()
    assert report.agents[0].gram_min == pytest.approx(1.0)


def test_licq_detects_dependent_rows():
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    cons = cs.CouplingConstraints(1, m_ineq=2, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0, 1.0], 0.0)
    cons.add_ineq_row(1, 2, [2.0, 2.0], 0.0)  # same direction
    graph = cs.Graph(1, frozenset())
    problem = cs.ProblemSpec((obj,), cons, graph)
    report = cs.validate_licq(problem)
    assert report.failures() == (1,)
    assert _rank_failures(problem) == (1,)


def test_licq_more_rows_than_dims_fails():
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(1, m_ineq=2, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0], 0.0)
    cons.add_ineq_row(1, 2, [-1.0], 0.0)
    graph = cs.Graph(1, frozenset())
    problem = cs.ProblemSpec((obj,), cons, graph)
    assert cs.validate_licq(problem).failures() == (1,)
    assert _rank_failures(problem) == (1,)


def test_agent_without_rows_passes_licq():
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0], 0.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    report = cs.validate_licq(problem)
    assert report.all_full_rank
    assert report.agents[1].n_rows == 0
    assert _rank_failures(problem) == ()
    assert [(b.agents.tolist(), b.rows.shape) for b in problem.blocks] == [
        ([0], (1, 1, 1)), ([1], (1, 0, 1))]


GEN_INSTANCES = ([pytest.param(strongly_convex_instance, seed, id=f"sc{seed}")
                  for seed in range(25)]
                 + [pytest.param(reduced_space_instance, seed, id=f"rs{seed}")
                    for seed in range(12)])
BLOCK_INSTANCES = GEN_INSTANCES + [
    pytest.param(doubled_equality_instance, 0, id="sc0-doubled-eq"),
    pytest.param(mixed_dims_instance, 0, id="mixed-dims-2-7-9-3"),
    pytest.param(benchmark_ring, 1, id="ring1")]


@pytest.mark.parametrize("instance, seed", BLOCK_INSTANCES)
def test_agent_blocks_stack_every_agents_rows_once(instance, seed):
    problem, _, _ = instance(seed)
    cons = problem.constraints
    blocks = problem.blocks
    firsts = [int(b.agents[0]) for b in blocks]
    assert firsts == sorted(firsts)  # in first-agent order
    seen = np.concatenate([b.agents for b in blocks])
    assert sorted(seen.tolist()) == list(range(problem.n_agents))  # each agent once
    starts = np.cumsum((0,) + problem.dims)
    for b in blocks:
        g, k, d = b.rows.shape
        assert b.agents.tolist() == sorted(b.agents.tolist())
        assert b.index.shape == b.offsets.shape == (g, k)
        for a, columns, index, rows, offsets in zip(b.agents.tolist(), b.columns, b.index,
                                                    b.rows, b.offsets):
            obj = problem.objectives[a]
            assert obj.dim == d
            assert columns.tolist() == list(range(starts[a], starts[a + 1]))
            ineq, eq = cons.agent_rows(a + 1)
            stored = ([(m - 1, *ineq[m]) for m in sorted(ineq)]
                      + [(cons.m_ineq + q - 1, *eq[q]) for q in sorted(eq)])
            assert index.tolist() == [l for l, _, _ in stored]
            assert np.array_equal(rows, np.array([c for _, c, _ in stored]).reshape(k, d))
            assert offsets.tolist() == [off for _, _, off in stored]
        assert np.array_equal(b.hessian, [problem.objectives[a].hessian for a in b.agents])
        assert np.array_equal(b.linear, [problem.objectives[a].linear for a in b.agents])
        assert b.constant.tolist() == [problem.objectives[a].constant for a in b.agents]


def _padded(batch, x):
    """A stacked primal as the batch's padded (n, dim) array."""
    z = np.zeros(batch.x_mask.shape)
    z[batch.x_mask] = x
    return z


@pytest.mark.parametrize("instance, seed", GEN_INSTANCES + [
    pytest.param(psd_benchmark_ring, seed, id=f"psd-ring{seed}") for seed in (1, 2, 3)])
def test_every_objective_value_is_one_sum_of_cost_shares(instance, seed):
    # The oracle's value, objective_value, the batch's objective at x* and
    # the agents' own values, summed in agent order, are the same bits.
    problem, topology, weights = instance(seed)
    sol = cs.solve_centralized(problem)
    batch = AgentBatch(problem, topology, weights)
    own = [obj.value(sol.x[columns])
           for obj, columns in zip(problem.objectives, block_slices(problem))]
    assert cs.objective_value(problem, sol.x) == sol.value == batch.objective(
        _padded(batch, sol.x)) == float(np.sum(own))


def test_a_callers_later_edit_leaves_the_problem_as_built():
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    c1, c2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, c1, 1.0)
    cons.add_ineq_row(2, 1, c2, 0.0)
    problem = cs.ProblemSpec((obj, obj), cons, cs.Graph.from_edges(2, [(1, 2)]))
    topology = cs.induce_topology(problem, problem.graph)
    batch = AgentBatch(problem, topology, cs.build_weights(topology))
    x = np.ones(4)
    c1[0] = 5.0  # the caller reuses its array
    c2[:] = np.nan
    assert cs.aggregate_violation(problem, x)[0].tolist() == [3.0]
    assert batch.residuals(_padded(batch, x))[0].tolist() == [3.0]
    sol = cs.solve_centralized(problem)
    assert sol.x.tolist() == [-0.5, 0.0, 0.0, -0.5]
    assert cs.duality_gap(problem, sol.x, sol.ineq_multipliers, sol.eq_multipliers) == 0.0
    assert [coeffs.tolist() for coeffs, _ in (cons.agent_rows(i)[0][1] for i in (1, 2))] == [
        [1.0, 0.0], [0.0, 1.0]]


def _readded(problem, order, view):
    """``problem`` built again from its stored rows, added in ``order`` (1
    forward, -1 reversed), each coefficient array passed as ``view`` makes it."""
    old = problem.constraints
    cons = cs.CouplingConstraints(problem.n_agents, old.m_ineq, old.q_eq)
    rows = [(add, i, idx, coeffs, offset) for i in range(1, problem.n_agents + 1)
            for add, stored in zip((cons.add_ineq_row, cons.add_eq_row), old.agent_rows(i))
            for idx, (coeffs, offset) in stored.items()]
    for add, i, idx, coeffs, offset in rows[::order]:
        add(i, idx, view(coeffs), offset)
    return cs.ProblemSpec(problem.objectives, cons, problem.graph)


def _strided(coeffs):
    """A strided view holding coeffs: every other entry of a doubled copy."""
    return np.repeat(coeffs, 2)[::2]


@pytest.mark.parametrize("instance, seed", GEN_INSTANCES + [
    pytest.param(mixed_dims_instance, 0, id="mixed-dims-2-7-9-3")])
def test_rows_in_any_order_or_layout_give_the_same_bits(instance, seed):
    problem, topology, weights = instance(seed)
    sol = cs.solve_centralized(problem)
    rng = np.random.default_rng(seed)
    cons = problem.constraints
    points = [sol.x, *rng.uniform(-2.0, 2.0, size=(3, sol.x.size))]
    multipliers = [(sol.ineq_multipliers, sol.eq_multipliers),
                   (rng.uniform(0.0, 2.0, cons.m_ineq), rng.uniform(-2.0, 2.0, cons.q_eq))]

    def figures(built):
        batch = AgentBatch(built, topology, weights)
        return ([np.concatenate(cs.aggregate_violation(built, x)) for x in points]
                + [np.concatenate(batch.residuals(_padded(batch, x))) for x in points]
                + [cs.feasible_slack_from_primal(sol.x, built, topology, weights).values]
                + [np.array([cs.duality_gap(built, x, mu, lam) for x in points
                             for mu, lam in multipliers])])

    forward = figures(problem)
    for order, view in ((-1, np.asarray), (1, _strided), (-1, _strided)):
        for got, want in zip(figures(_readded(problem, order, view)), forward):
            assert np.array_equal(got, want), (order, view.__name__)


@pytest.mark.parametrize("instance, seed", GEN_INSTANCES + [
    *(pytest.param(psd_benchmark_ring, seed, id=f"psd-ring{seed}") for seed in (1, 2, 3)),
    pytest.param(mixed_dims_instance, 0, id="mixed-dims-2-7-9-3"),
    pytest.param(benchmark_ring, 1, id="ring1")])
def test_duality_gap_is_the_scalar_gap(instance, seed):
    # The carried solve and the one cost arithmetic give the per-agent
    # lstsq gap to roundoff, with the same +inf (unbounded) verdicts.
    problem, _, _ = instance(seed)
    sol = cs.solve_centralized(problem)
    rng = np.random.default_rng(seed)
    cons = problem.constraints
    multipliers = [(sol.ineq_multipliers, sol.eq_multipliers),
                   *((rng.uniform(0.0, 2.0, cons.m_ineq), rng.uniform(-2.0, 2.0, cons.q_eq))
                     for _ in range(3))]
    for x in (sol.x, rng.uniform(-2.0, 2.0, sol.x.size)):
        size = 1.0 + abs(cs.objective_value(problem, x))
        for mu, lam in multipliers:
            got, want = cs.duality_gap(problem, x, mu, lam), scalar_duality_gap(problem, x, mu, lam)
            assert np.isinf(got) == np.isinf(want)
            assert got == want or abs(got - want) <= 1e-12 * size, (got, want)


def test_operator_norms_toy(toy):
    problem, topology, weights = toy
    norms = cs.operator_norms(topology, weights)
    # equal-split two-agent averaging: I - P has eigenvalues {0, 1}
    assert norms[1] == pytest.approx(1.0)


def test_lipschitz_bound_toy(toy):
    problem, topology, weights = toy
    assert cs.lipschitz_bound(problem, topology, weights) == pytest.approx(
        math.sqrt(2.0))


def _large_cost_scale():
    problem, _ = formats.problem_from_dict(large_cost_scale_data())
    return problem


def _costs_times_100(seed):
    problem, _, _ = strongly_convex_instance(seed)
    objectives = tuple(cs.AgentObjective(100.0 * obj.hessian, 100.0 * obj.linear,
                                         100.0 * obj.constant) for obj in problem.objectives)
    return cs.ProblemSpec(objectives, problem.constraints, problem.graph)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND in CHANGES.md: lipschitz_bound's per-agent factor "
                   "sqrt(curv_i / lambda_min(R_i R_i')) misses the multiplier map's slope "
                   "whenever curv_i / lambda_min(R_i R_i') > 1")
@pytest.mark.parametrize("make", [_large_cost_scale, partial(_costs_times_100, 11)],
                         ids=["large-cost-scale-file", "sc11-costs-x100"])
def test_lipschitz_bound_dominates_observed_gradient_slopes(make):
    # The slope |grad phi(y1) - grad phi(y2)| / |y1 - y2| over random pairs of
    # allocations, each gradient from the agents' exact multipliers.  The
    # correction of the bound (ROADMAP direction 1) removes the xfail marker.
    problem = make()
    topology = cs.induce_topology(problem, problem.graph)
    weights = cs.build_weights(topology)
    batch = AgentBatch(problem, topology, weights)
    warm = WarmStart(batch)

    def gradient(y):
        return batch.gradient(batch.multipliers(warm.solve_stacked(batch.offsets(y))))

    rng = np.random.default_rng(0)
    slopes = [np.linalg.norm(gradient(y1) - gradient(y2)) / np.linalg.norm(y1 - y2)
              for y1, y2 in rng.uniform(-10.0, 10.0, size=(100, 2, batch.size))]
    assert cs.lipschitz_bound(problem, topology, weights) >= max(slopes)


def test_lipschitz_needs_strong_convexity(toy):
    _, topology, weights = toy
    obj = cs.AgentObjective(np.diag([1.0, 0.0]), np.zeros(2))
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=1)
    cons.add_eq_row(1, 1, [1.0, 0.0], -1.0)
    cons.add_eq_row(2, 1, [1.0, 0.0], -1.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topo = cs.induce_topology(problem, graph)
    w = cs.build_weights(topo)
    with pytest.raises(ValidationError):
        cs.lipschitz_bound(problem, topo, w)


def test_lipschitz_refuses_rank_deficient_rows():
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    cons = cs.CouplingConstraints(2, m_ineq=2, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0, 1.0], 0.0)
    cons.add_ineq_row(1, 2, [2.0, 2.0], 0.0)
    cons.add_ineq_row(2, 1, [1.0, 0.0], 0.0)
    cons.add_ineq_row(2, 2, [0.0, 1.0], 0.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topo = cs.induce_topology(problem, graph)
    w = cs.build_weights(topo)
    with pytest.raises(RankDeficiencyError):
        cs.lipschitz_bound(problem, topo, w)
