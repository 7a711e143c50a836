import numpy as np
import pytest
from scipy.optimize import minimize

import couplesolve as cs
from couplesolve import oracle
from couplesolve.exceptions import InfeasibleProblemError
from couplesolve.local_qp import _kkt_solve
from couplesolve.oracle import stacked_arrays

from gen import reduced_space_instance, strongly_convex_instance
from reference import dense_oracle


def test_toy_solution_is_exact(toy):
    problem, _, _ = toy
    sol = cs.solve_centralized(problem)
    assert sol.x.tolist() == [1.0, 1.0]
    assert sol.value == 1.0
    assert sol.eq_multipliers.tolist() == [-1.0]
    assert sol.ineq_multipliers.size == 0
    assert sol.active_set == ()
    assert sol.unique_multipliers


def test_active_inequality_multiplier():
    graph = cs.Graph.from_edges(2, [(1, 2)])
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, [-1.0], 0.25)
    cons.add_ineq_row(2, 1, [-1.0], 0.25)  # sum: x1 + x2 >= 0.5
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    sol = cs.solve_centralized(problem)
    assert sol.x == pytest.approx([0.25, 0.25])
    assert sol.value == pytest.approx(0.0625)
    assert sol.ineq_multipliers == pytest.approx([0.25])
    assert sol.active_set == (1,)


def test_inactive_inequality_multiplier_is_zero(toy):
    problem, _, _ = toy
    graph = problem.graph
    obj = problem.objectives[0]
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=1)
    cons.add_ineq_row(1, 1, [1.0], -2.5)
    cons.add_ineq_row(2, 1, [1.0], -2.5)  # x1 + x2 <= 5, slack at optimum
    cons.add_eq_row(1, 1, [1.0], -1.0)
    cons.add_eq_row(2, 1, [1.0], -1.0)
    augmented = cs.ProblemSpec((obj, obj), cons, graph)
    sol = cs.solve_centralized(augmented)
    assert sol.x == pytest.approx([1.0, 1.0])
    assert sol.ineq_multipliers.tolist() == [0.0]
    assert sol.active_set == ()


def test_infeasible_problem_is_reported():
    graph = cs.Graph.from_edges(2, [(1, 2)])
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=1)
    cons.add_eq_row(1, 1, [1.0], -1.0)
    cons.add_eq_row(2, 1, [1.0], -1.0)   # x1 + x2 = 2
    cons.add_ineq_row(1, 1, [1.0], 5.0)
    cons.add_ineq_row(2, 1, [1.0], 5.0)  # x1 + x2 <= -10
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    with pytest.raises(InfeasibleProblemError):
        cs.solve_centralized(problem)


def test_dependent_equality_rows_flagged_non_unique(toy):
    problem, _, _ = toy
    obj = problem.objectives[0]
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=2)
    for k in (1, 2):  # the same coupled row twice
        cons.add_eq_row(1, k, [1.0], -1.0)
        cons.add_eq_row(2, k, [1.0], -1.0)
    doubled = cs.ProblemSpec((obj, obj), cons, problem.graph)
    sol = cs.solve_centralized(doubled)
    assert sol.x == pytest.approx([1.0, 1.0])
    assert not sol.unique_multipliers
    # least-squares multipliers split the toy's -1 evenly
    assert sol.eq_multipliers == pytest.approx([-0.5, -0.5])


def test_duality_gap_frozen_values(toy):
    problem, _, _ = toy
    assert cs.duality_gap(problem, np.array([0.0, 2.0]), [], [-1.0]) == 1.0
    assert cs.duality_gap(problem, np.array([1.0, 1.0]), [], [-1.0]) == 0.0


def test_duality_gap_unbounded_block_returns_inf(path4):
    obj = cs.AgentObjective(np.zeros((1, 1)), np.ones(1))
    cons = cs.CouplingConstraints(4, m_ineq=0, q_eq=1)
    for i in range(1, 5):
        cons.add_eq_row(i, 1, [1.0], -1.0)
    problem = cs.ProblemSpec((obj,) * 4, cons, path4)
    # with a zero multiplier the linear blocks have no minimizer
    gap = cs.duality_gap(problem, np.ones(4), [], [0.0])
    assert np.isinf(gap)


def _slsqp_value(problem):
    h, c, const, a, b, e, g = stacked_arrays(problem)
    constraints = []
    if a.shape[0]:
        constraints.append({"type": "ineq", "fun": lambda x: -(a @ x + b),
                            "jac": lambda x: -a})
    if e.shape[0]:
        constraints.append({"type": "eq", "fun": lambda x: e @ x + g,
                            "jac": lambda x: e})
    res = minimize(
        lambda x: 0.5 * x @ h @ x + c @ x + const,
        np.zeros(h.shape[0]),
        jac=lambda x: h @ x + c,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-12},
    )
    assert res.success, res.message
    return res.fun


@pytest.mark.parametrize("seed", range(5))
def test_matches_generic_nlp_solver(seed):
    problem, _, _ = strongly_convex_instance(seed)
    sol = cs.solve_centralized(problem)
    reference = _slsqp_value(problem)
    assert sol.value == pytest.approx(reference, rel=1e-6, abs=1e-7)
    vi, ve = cs.max_violation(problem, sol.x)
    assert vi <= 1e-9 and ve <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_zero_gap_at_oracle_point(seed):
    problem, _, _ = strongly_convex_instance(seed)
    sol = cs.solve_centralized(problem)
    gap = cs.duality_gap(problem, sol.x, sol.ineq_multipliers,
                         sol.eq_multipliers)
    assert abs(gap) <= 1e-8 * (1 + abs(sol.value))


@pytest.fixture
def oracle_paths(monkeypatch):
    """The compiled solver each oracle solve's loop evaluated its working sets
    with: a ``_BlockKkt``, or None (the dense ``_kkt_solve``)."""
    used = []
    loop = oracle._active_set

    def spy(evaluate, *args):
        block = getattr(evaluate, "__self__", None)
        assert block is not None or evaluate.func is oracle._dense_kkt
        used.append(block)
        return loop(evaluate, *args)

    monkeypatch.setattr(oracle, "_active_set", spy)
    return used


def _agrees_with_dense(problem, exact=False):
    sol = cs.solve_centralized(problem)
    x, value, mu, lam, active = dense_oracle(problem)
    assert sol.active_set == active
    got = (sol.x, sol.value, sol.ineq_multipliers, sol.eq_multipliers)
    for new, old in zip(got, (x, value, mu, lam)):
        if exact:
            assert np.array_equal(new, old)
        else:
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-10)
    return sol


@pytest.mark.parametrize("seed", range(25))
def test_block_path_matches_dense_oracle(seed, oracle_paths):
    problem, _, _ = strongly_convex_instance(seed)
    _agrees_with_dense(problem)
    assert len(oracle_paths) == 1 and isinstance(oracle_paths[0], oracle._BlockKkt)


@pytest.mark.parametrize("seed", range(12))
def test_semidefinite_blocks_take_the_dense_path(seed, oracle_paths):
    problem, _, _ = reduced_space_instance(seed)
    _agrees_with_dense(problem, exact=True)
    assert oracle_paths == [None]


@pytest.fixture
def doubled(toy):
    problem, _, _ = toy
    obj = problem.objectives[0]
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=2)
    for k in (1, 2):  # the same coupled row twice
        cons.add_eq_row(1, k, [1.0], -1.0)
        cons.add_eq_row(2, k, [1.0], -1.0)
    cons.add_ineq_row(1, 1, [-1.0], 1.25)  # x1 >= 1.25, active at the optimum
    return cs.ProblemSpec((obj, obj), cons, problem.graph)


def test_block_path_keeps_dependent_equality_reduction(doubled, oracle_paths):
    sol = _agrees_with_dense(doubled)
    assert isinstance(oracle_paths[0], oracle._BlockKkt)
    assert not sol.unique_multipliers
    assert sol.active_set == (1,)
    assert sol.x == pytest.approx([1.25, 0.75])


def test_any_semidefinite_block_keeps_the_dense_path(oracle_paths):
    # min 1/2 x1^2 + x2  s.t.  x1 + x2 = 2: agent 2's block is singular
    # (PSD) although the stacked program is bounded.
    objs = (cs.AgentObjective(np.eye(1), np.zeros(1)),
            cs.AgentObjective(np.zeros((1, 1)), np.ones(1)))
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=1)
    cons.add_eq_row(1, 1, [1.0], -1.0)
    cons.add_eq_row(2, 1, [1.0], -1.0)
    problem = cs.ProblemSpec(objs, cons, cs.Graph.from_edges(2, [(1, 2)]))
    sol = _agrees_with_dense(problem, exact=True)
    assert oracle_paths == [None]
    assert sol.x == pytest.approx([1.0, 1.0])
    h, c, _, a, _, e, _ = stacked_arrays(problem)
    with pytest.raises(np.linalg.LinAlgError):
        oracle._BlockKkt(problem, h, c, np.vstack([a, e]))


def _compiled(problem):
    h, c, _, a, b, e, g = stacked_arrays(problem)
    return oracle._BlockKkt(problem, h, c, np.vstack([a, e])), np.concatenate([b, g])


def _dense(block, working, offsets):
    sel = [*range(block.n_ineq, len(offsets)), *working]
    return _kkt_solve(block.hessian, block.linear, block.rows[sel], -offsets[sel])


def _same_answer(got, want):
    if want is None:
        return got is None
    return got is not None and all(map(np.array_equal, got, want))


def test_working_set_missing_the_residual_bound_is_solved_densely():
    for seed in range(25):
        problem, _, _ = strongly_convex_instance(seed)
        block, offsets = _compiled(problem)
        for working in {(), tuple(range(block.n_ineq))}:
            answer = block.kkt_solve(working, offsets)
            want = _dense(block, working, offsets)
            assert want is not None
            np.testing.assert_allclose(np.concatenate(answer), np.concatenate(want),
                                       rtol=0, atol=1e-10)
            block.x0 = block.x0 + 1e-3  # a Schur solution far off its KKT system
            assert _same_answer(block.kkt_solve(working, offsets), want)
            block.x0 = block.x0 - 1e-3


def test_singular_working_set_answers_like_dense():
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    cons = cs.CouplingConstraints(2, m_ineq=2, q_eq=1)
    for m in (1, 2):  # one inequality twice: working both is singular
        cons.add_ineq_row(1, m, [-1.0, 0.0], 0.5)
        cons.add_ineq_row(2, m, [-1.0, 0.0], 0.5)
    cons.add_eq_row(1, 1, [0.0, 1.0], -1.0)
    cons.add_eq_row(2, 1, [0.0, 1.0], -1.0)
    problem = cs.ProblemSpec((obj, obj), cons, cs.Graph.from_edges(2, [(1, 2)]))
    block, offsets = _compiled(problem)
    for working in ((0, 1), (0,), ()):
        assert _same_answer(block.kkt_solve(working, offsets),
                            _dense(block, working, offsets))
    assert block.kkt_solve((0, 1), offsets) is None
    sol = _agrees_with_dense(problem)
    assert sol.active_set == (1,)
