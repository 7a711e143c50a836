from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize

import couplesolve as cs
from couplesolve import oracle
from couplesolve.exceptions import DimensionMismatchError, InfeasibleProblemError
from couplesolve.oracle import stacked_arrays

from gen import (benchmark_ring, doubled_equality_instance, mixed_dims_instance,
                 psd_benchmark_ring, reduced_space_instance, scaled_problem,
                 shifted_offsets, strongly_convex_instance)
from reference import cold_active_set, dense_oracle, scalar_stacked_arrays, solve_rows_cold


def test_toy_solution_is_exact(toy):
    problem, _, _ = toy
    sol = cs.solve_centralized(problem)
    assert sol.x.tolist() == [1.0, 1.0]
    assert sol.value == 1.0
    assert sol.eq_multipliers.tolist() == [-1.0]
    assert sol.ineq_multipliers.size == 0
    assert sol.active_set == ()
    assert sol.unique_multipliers


@pytest.mark.parametrize("instance, seed", [
    *(pytest.param(strongly_convex_instance, seed, id=f"sc{seed}") for seed in range(25)),
    *(pytest.param(reduced_space_instance, seed, id=f"rs{seed}") for seed in range(12)),
    pytest.param(doubled_equality_instance, 0, id="sc0-doubled-eq"),
    pytest.param(mixed_dims_instance, 0, id="mixed-dims-2-7-9-3"),
    pytest.param(benchmark_ring, 1, id="ring1")])
def test_stacked_arrays_scatter_the_blocks_bit_for_bit(instance, seed):
    # The blocks' costs and rows scattered by their columns, and the offsets
    # as the residuals at 0, give the agent-by-agent construction exactly.
    problem, _, _ = instance(seed)
    got, want = stacked_arrays(problem), scalar_stacked_arrays(problem)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


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


def test_infeasible_problem_is_reported(oracle_paths, linprog_calls):
    graph = cs.Graph.from_edges(2, [(1, 2)])
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=1)
    cons.add_eq_row(1, 1, [1.0], -1.0)
    cons.add_eq_row(2, 1, [1.0], -1.0)   # x1 + x2 = 2
    cons.add_ineq_row(1, 1, [1.0], 5.0)
    cons.add_ineq_row(2, 1, [1.0], 5.0)  # x1 + x2 <= -10
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    with pytest.raises(InfeasibleProblemError, match=r"Phase-1 violation 1\.200e\+01\)$"):
        cs.solve_centralized(problem)
    assert oracle_paths == ["dense"]
    assert len(linprog_calls) == 1


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


@pytest.mark.parametrize("argument, given", [
    ("x", {"x": np.zeros(1)}),
    ("ineq_multipliers", {"ineq_multipliers": [0.0]}),
    ("eq_multipliers", {"eq_multipliers": []}),
])
def test_duality_gap_rejects_a_wrong_length(argument, given, toy):
    problem, _, _ = toy
    args = {"x": np.ones(2), "ineq_multipliers": [], "eq_multipliers": [-1.0], **given}
    expected = {"x": 2, "ineq_multipliers": 0, "eq_multipliers": 1}[argument]
    with pytest.raises(DimensionMismatchError,
                       match=rf"^{argument} has shape \({len(given[argument])},\), "
                             rf"expected \({expected},\)$"):
        cs.duality_gap(problem, **args)


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
    """The path each oracle solve took: "constraint" (answered and certified
    in constraint space) or "dense"."""
    used = []
    solve, dense = oracle._ConstraintSpace.solve, oracle._dense_solve

    def constraint_spy(space):
        solved = solve(space)
        if solved is not None:
            used.append("constraint")
        return solved

    def dense_spy(*args):
        used.append("dense")
        return dense(*args)

    monkeypatch.setattr(oracle._ConstraintSpace, "solve", constraint_spy)
    monkeypatch.setattr(oracle, "_dense_solve", dense_spy)
    return used


@pytest.fixture
def linprog_calls(monkeypatch):
    """Every Phase-1 linear program from here on."""
    calls = []
    lp = oracle.linprog

    def spy(*args, **kwargs):
        calls.append(args)
        return lp(*args, **kwargs)

    monkeypatch.setattr(oracle, "linprog", spy)
    return calls


@pytest.fixture
def proposals(monkeypatch):
    """Per constraint-space solve from here on, the working sets the
    primal-dual proposals evaluated."""
    solves = []
    primal_dual = oracle._primal_dual

    def primal_dual_spy(evaluate, n_ineq):
        solves.append(0)

        def counted(working):
            solves[-1] += 1
            return evaluate(working)

        return primal_dual(counted, n_ineq)

    monkeypatch.setattr(oracle, "_primal_dual", primal_dual_spy)
    return solves


def _cold_answer(problem):
    """The cold loop's answer in constraint space, recovered and certified
    there (None on a certificate miss)."""
    space = oracle._ConstraintSpace.compile(problem)
    return space.recover(*cold_active_set(space.evaluate, space.m))


def _identical(sol, other):
    """Equal bit for bit in every field."""
    return all(np.array_equal(getattr(sol, f), getattr(other, f))
               for f in ("x", "value", "ineq_multipliers", "eq_multipliers", "active_set",
                         "unique_multipliers"))


def _agrees_with_dense(problem, exact=False):
    """``solve_centralized`` against the LU reference ``dense_oracle``: the
    same active set and multiplier flag, and each of x, the value and the
    multipliers within 1e-12 absolute.  With ``exact`` (where the dense path
    answers) x, the multipliers and the active set equal the lock-step loop's
    on the stacked program bit for bit, and LU's within 1e-14 relative to
    each vector's largest entry (the value: to its largest term).  Either
    path reads its value off the certificate."""
    sol = cs.solve_centralized(problem)
    nu = np.concatenate([sol.ineq_multipliers, sol.eq_multipliers])
    assert sol.value == oracle._certificate(problem, sol.x, nu)[0]
    x, value, mu, lam, active, unique = dense_oracle(problem)
    assert (sol.active_set, sol.unique_multipliers) == (active, unique)
    got = (sol.x, sol.value, sol.ineq_multipliers, sol.eq_multipliers)
    if not exact:
        for new, old in zip(got, (x, value, mu, lam)):
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)
        return sol
    x_, _, mu_, lam_, active_, _ = dense_oracle(problem, solve_rows_cold)
    assert sol.active_set == active_
    for new, old in zip((sol.x, sol.ineq_multipliers, sol.eq_multipliers), (x_, mu_, lam_)):
        assert np.array_equal(new, old)
    h, c, const, *_ = stacked_arrays(problem)
    terms = np.abs([value, 0.5 * x @ h @ x, c @ x, const])
    for new, old, size in zip(got, (x, value, mu, lam), (x, terms, mu, lam)):
        assert np.abs(new - old).max(initial=0.0) <= 1e-14 * np.abs(size).max(initial=0.0)
    return sol


# Positive definite blocks under per-agent LICQ: the constraint space's premise.
PREMISE = ([pytest.param(partial(strongly_convex_instance, seed), id=f"sc{seed}")
            for seed in range(25)]
           + [pytest.param(partial(benchmark_ring, seed), id=f"ring{seed}")
              for seed in (1, 2, 3)])


@pytest.mark.parametrize("instance", PREMISE)
def test_constraint_space_matches_dense_oracle(instance, oracle_paths, linprog_calls):
    problem, _, _ = instance()
    sol = _agrees_with_dense(problem)
    assert sol.unique_multipliers
    assert oracle_paths == ["constraint"]
    assert linprog_calls == []


def _offsets_moved(seed):
    return (shifted_offsets(strongly_convex_instance(seed)[0], 1e4),)


def _costs_scaled(seed):
    return (scaled_problem(strongly_convex_instance(seed)[0], 1e8),)


@pytest.mark.parametrize("instance", [
    *PREMISE,
    *(pytest.param(partial(_offsets_moved, seed), id=f"sc{seed}+1e4") for seed in range(25)),
    *(pytest.param(partial(_costs_scaled, seed), id=f"sc{seed}x1e8") for seed in range(25))])
def test_proposals_answer_as_the_cold_loop(instance, proposals, oracle_paths):
    # The answer depends only on the accepted set: the proposals reach the
    # cold loop's in a handful of steps, with no fallback.
    problem = instance()[0]
    sol = cs.solve_centralized(problem)
    [steps] = proposals
    assert steps <= 5 and oracle_paths == ["constraint"]
    cold = _cold_answer(problem)
    assert cold is not None and _identical(sol, cold)


def test_primal_dual_proposals_on_scripted_sets():
    calls = []

    def scripted(working):  # a working row's own residual does not keep it
        calls.append(working)
        mults, residual = {(): ([], [1.0, 0.0]), (0,): ([-1.0], [5.0, 1.0]),
                           (1,): ([0.5], [-1.0, 0.0])}[working]
        return np.array(mults), np.array(residual)

    (mults, _), working = oracle._primal_dual(scripted, 2)
    assert working == (1,) and mults.tolist() == [0.5]
    assert calls == [(), (0,), (1,)]
    calls.clear()

    def cycling(working):  # row 0 and row 1 each push the other out
        calls.append(working)
        residual = {(): [1.0, -1.0], (0,): [0.0, 1.0], (1,): [1.0, 0.0]}[working]
        return -np.ones(len(working)), np.array(residual)

    assert oracle._primal_dual(cycling, 2) is None
    assert calls == [(), (0,), (1,)]
    calls.clear()

    def shifting(working):  # each set proposes a new row alone
        calls.append(working)
        residual = np.zeros(30)
        residual[len(calls)] = 1.0
        return -np.ones(len(working)), residual

    assert oracle._primal_dual(shifting, 30) is None
    assert calls == [(), *((k,) for k in range(1, oracle._PDAS_STEPS))]


def _proposed_on(monkeypatch, tamper):
    """The primal-dual proposals see ``tamper(evaluate)``."""
    primal_dual = oracle._primal_dual
    monkeypatch.setattr(oracle, "_primal_dual",
                        lambda evaluate, n_ineq: primal_dual(tamper(evaluate), n_ineq))


def _repeating(evaluate):
    def evaluate_(working):  # every working row dropped, no free row violated
        mults, residual = evaluate(working)
        if working:
            mults, residual = -np.ones_like(mults), -np.ones_like(residual)
        return mults, residual
    return evaluate_


def _singular(evaluate):
    def evaluate_(working):
        if working:
            raise np.linalg.LinAlgError("Singular matrix")
        return evaluate(working)
    return evaluate_


def _capped(monkeypatch):
    monkeypatch.setattr(oracle, "_PDAS_STEPS", 1)


def _missed_once(monkeypatch):
    recover, calls = oracle._ConstraintSpace.recover, []

    def first_missed(space, *found):
        calls.append(found)
        return None if len(calls) == 1 else recover(space, *found)

    monkeypatch.setattr(oracle._ConstraintSpace, "recover", first_missed)


@pytest.mark.parametrize("force, always", [
    pytest.param(partial(_proposed_on, tamper=_repeating), False, id="repeated-set"),
    pytest.param(_capped, False, id="capped"),
    pytest.param(partial(_proposed_on, tamper=_singular), False, id="singular-set"),
    pytest.param(_missed_once, True, id="certificate-miss")])
def test_each_fallback_returns_the_dense_answer(force, always, proposals, oracle_paths,
                                                monkeypatch):
    # Where the proposals accept no set (a repeated set, the cap, a singular
    # S[W, W]) or their answer misses the certificate, the dense path answers,
    # at the accepted set of the unforced solve.  Only the first three keep a
    # one-step solve, accepted at the empty set.
    fell = []
    for seed in range(25):
        problem, _, _ = strongly_convex_instance(seed)
        proposals.clear()
        base = cs.solve_centralized(problem)
        oracle_paths.clear()
        with monkeypatch.context() as patch:
            force(patch)
            sol = cs.solve_centralized(problem)
        [steps, _] = proposals
        fell_back = oracle_paths == ["dense"]
        fell.append(fell_back)
        assert fell_back == (always or steps > 1), seed
        assert sol.active_set == base.active_set
        assert _identical(sol, oracle._dense_solve(problem) if fell_back else base)
    assert sum(fell) >= 14  # the seeds whose proposals take two steps, at least


def test_a_fallback_without_a_cold_answer_takes_the_dense_path(proposals, oracle_paths,
                                                               monkeypatch):
    # Every nonempty working set is singular in constraint space, so neither
    # the proposals nor the cold loop answers there: the dense path does.
    evaluate = oracle._ConstraintSpace.evaluate
    monkeypatch.setattr(oracle._ConstraintSpace, "evaluate",
                        lambda space, working: _singular(partial(evaluate, space))(working))
    problem, _, _ = strongly_convex_instance(0)
    with pytest.raises(np.linalg.LinAlgError):
        _cold_answer(problem)
    _agrees_with_dense(problem, exact=True)
    assert oracle_paths == ["dense"] and proposals == [2]


@pytest.mark.parametrize("shift", [-1e3, 1e3])
@pytest.mark.parametrize("instance", PREMISE)
def test_every_offset_is_feasible_in_constraint_space(instance, shift, oracle_paths,
                                                     linprog_calls):
    problem = shifted_offsets(instance()[0], shift)
    sol = cs.solve_centralized(problem)
    assert oracle_paths == ["constraint"]
    assert linprog_calls == []
    vi, ve = cs.max_violation(problem, sol.x)
    assert vi <= 1e-8 and ve <= 1e-8


@pytest.mark.parametrize("seed", range(12))
def test_semidefinite_blocks_take_the_dense_path(seed, oracle_paths):
    problem, _, _ = reduced_space_instance(seed)
    _agrees_with_dense(problem, exact=True)
    assert oracle_paths == ["dense"]


@pytest.mark.parametrize("instance", [
    *(pytest.param(partial(reduced_space_instance, seed), id=f"rs{seed}") for seed in range(12)),
    *(pytest.param(partial(psd_benchmark_ring, seed), id=f"psd{seed}") for seed in range(1, 11))])
def test_rank_premise_skips_phase1_and_moves_no_bit(instance, oracle_paths, linprog_calls,
                                                    monkeypatch):
    # Semidefinite blocks under the rank premise: the dense path, whose
    # Phase-1 could only answer "feasible", so it is not run.
    problem, _, _ = instance()
    assert oracle._independent_rows(problem)
    sol = cs.solve_centralized(problem)
    assert oracle_paths == ["dense"] and linprog_calls == []
    monkeypatch.setattr(oracle, "_independent_rows", lambda problem: False)
    assert _identical(cs.solve_centralized(problem), sol)  # with Phase-1 run
    assert len(linprog_calls) == 1


def test_certificate_miss_returns_the_dense_answer(oracle_paths, monkeypatch):
    minimizer = oracle.lagrangian_minimizer

    def perturbed(*args):  # x far off its KKT system, whatever the working set
        return minimizer(*args) + 1e-3

    monkeypatch.setattr(oracle, "lagrangian_minimizer", perturbed)
    for seed in range(25):
        problem, _, _ = strongly_convex_instance(seed)
        _agrees_with_dense(problem, exact=True)
        assert oracle_paths == ["dense"]
        oracle_paths.clear()


@pytest.mark.parametrize("scale", [1e-2, 1e2, 1e4])
@pytest.mark.parametrize("instance, seeds, path", [
    (strongly_convex_instance, range(25), "constraint"),
    (reduced_space_instance, range(12), "dense")], ids=["sc", "rs"])
def test_scaled_problems_are_certified(instance, seeds, path, scale, oracle_paths):
    # Offsets and linear terms times s give x and the multipliers times s,
    # and complementarity times s^2: the certificate bounds each residual
    # relative to its terms, so every scale is certified on its usual path.
    for seed in seeds:
        problem, _, _ = instance(seed)
        base = cs.solve_centralized(problem)
        oracle_paths.clear()
        sol = cs.solve_centralized(scaled_problem(problem, scale))
        assert oracle_paths == [path], seed
        np.testing.assert_allclose(sol.x / scale, base.x, rtol=0,
                                   atol=1e-9 * max(1.0, np.abs(base.x).max()))


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


def test_dependent_equality_rows_take_the_dense_reduction(doubled, oracle_paths,
                                                         linprog_calls):
    sol = _agrees_with_dense(doubled, exact=True)
    assert oracle_paths == ["dense"]
    assert len(linprog_calls) == 1
    assert not sol.unique_multipliers
    assert sol.active_set == (1,)
    assert sol.x == pytest.approx([1.25, 0.75])


def test_doubled_equality_row_of_a_generated_instance_is_reduced(oracle_paths):
    problem, _, _ = doubled_equality_instance(0)
    sol = _agrees_with_dense(problem, exact=True)
    assert oracle_paths == ["dense"]
    assert not sol.unique_multipliers
    lam = sol.eq_multipliers
    assert lam[0] == pytest.approx(lam[-1])  # the two copies share the weight


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
    assert oracle_paths == ["dense"]
    assert sol.x == pytest.approx([1.0, 1.0])
    assert oracle._ConstraintSpace.compile(problem) is None


def test_row_without_an_agent_keeps_the_dense_path(oracle_paths):
    # Equality row 2 is stored by no agent, so the stacked rows lose rank
    # although every agent's own rows are independent.
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=2)
    cons.add_eq_row(1, 1, [1.0], -1.0)
    cons.add_eq_row(2, 1, [1.0], -1.0)
    problem = cs.ProblemSpec((obj, obj), cons, cs.Graph.from_edges(2, [(1, 2)]))
    assert cs.validate_licq(problem).all_full_rank
    assert oracle._ConstraintSpace.compile(problem) is None
    sol = _agrees_with_dense(problem, exact=True)
    assert oracle_paths == ["dense"]
    assert not sol.unique_multipliers


def test_numerically_singular_working_set_keeps_the_dense_path(oracle_paths):
    # Rows [1, 0] and [1, 1e-8] pass the rank rule, but 1 + 1e-16 rounds to
    # 1, so S[W, W] is exactly singular in floating point.
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    cons = cs.CouplingConstraints(2, m_ineq=0, q_eq=2)
    for i in (1, 2):
        cons.add_eq_row(i, 1, [1.0, 0.0], -1.0)
        cons.add_eq_row(i, 2, [1.0, 1e-8], -1.0)
    problem = cs.ProblemSpec((obj, obj), cons, cs.Graph.from_edges(2, [(1, 2)]))
    assert cs.validate_licq(problem).all_full_rank
    with pytest.raises(np.linalg.LinAlgError):
        oracle._ConstraintSpace.compile(problem).evaluate(())
    _agrees_with_dense(problem, exact=True)
    assert oracle_paths == ["dense"]


def test_repeated_inequality_answers_like_dense(oracle_paths):
    obj = cs.AgentObjective(np.eye(2), np.zeros(2))
    cons = cs.CouplingConstraints(2, m_ineq=2, q_eq=1)
    for m in (1, 2):  # one inequality twice: working both is singular
        cons.add_ineq_row(1, m, [-1.0, 0.0], 0.5)
        cons.add_ineq_row(2, m, [-1.0, 0.0], 0.5)
    cons.add_eq_row(1, 1, [0.0, 1.0], -1.0)
    cons.add_eq_row(2, 1, [0.0, 1.0], -1.0)
    problem = cs.ProblemSpec((obj, obj), cons, cs.Graph.from_edges(2, [(1, 2)]))
    sol = _agrees_with_dense(problem, exact=True)
    assert oracle_paths == ["dense"]
    assert sol.active_set == (1,)
