"""The active-set rules on small subproblems, run by every loop that applies them.

Each case runs on the scalar reference ``solve_kkt``, on a one-agent
``AgentBatch.solve_rows`` started cold and on ``solve_centralized`` (see
``tests/reference.py``).
"""

import numpy as np
import pytest

import couplesolve as cs
from bruteforce import brute_force_solve
from couplesolve.exceptions import (
    DegenerateSubproblemError,
    InfeasibleProblemError,
    UnboundedSubproblemError,
)
from reference import (KktSolution, LocalSubproblem, centralized_kkt, solve_kkt, solve_rows_cold,
                       verify_kkt)

SOLVERS = pytest.mark.parametrize("solve", [solve_kkt, solve_rows_cold, centralized_kkt],
                                  ids=["reference", "solve_rows", "centralized"])


def _sub(hessian, linear, ineq=(), eq=()):
    obj = cs.AgentObjective(np.atleast_2d(np.asarray(hessian, dtype=float)),
                            np.asarray(linear, dtype=float))
    return LocalSubproblem.build(obj, ineq, eq)


@SOLVERS
def test_unconstrained_minimum(solve):
    sol = solve(_sub([[2.0]], [4.0]))
    assert sol.x[0] == pytest.approx(-2.0)
    assert sol.active_set == ()
    assert sol.ineq_multipliers == {}


@SOLVERS
def test_single_equality_projection(solve):
    # min 1/2 ||x||^2 s.t. x1 + x2 = 2
    sol = solve(_sub(np.eye(2), [0.0, 0.0],
                     eq=[(1, [1.0, 1.0], -2.0)]))
    assert sol.x == pytest.approx([1.0, 1.0])
    assert sol.eq_multipliers[1] == pytest.approx(-1.0)


@SOLVERS
def test_inactive_inequality_keeps_zero_multiplier(solve):
    sol = solve(_sub([[1.0]], [0.0], ineq=[(3, [1.0], -1.0)]))
    assert sol.x[0] == pytest.approx(0.0)
    assert sol.ineq_multipliers == {3: 0.0}
    assert sol.active_set == ()


@SOLVERS
def test_active_inequality_multiplier(solve):
    # min 1/2 (x - 2)^2 s.t. x <= 1: clamps at 1 with multiplier 1
    sol = solve(_sub([[1.0]], [-2.0], ineq=[(1, [1.0], -1.0)]))
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.ineq_multipliers[1] == pytest.approx(1.0)
    assert sol.active_set == (1,)


@SOLVERS
def test_add_then_drop_path(solve):
    # Pulling toward (2, 2) under x1 <= 0 and x1 + x2 <= 1: the solver must
    # enter with one row and end with the other binding pattern.
    sol = solve(_sub(np.eye(2), [-2.0, -2.0],
                     ineq=[(1, [1.0, 0.0], 0.0),
                           (2, [1.0, 1.0], -1.0)]))
    assert sol.x == pytest.approx([0.0, 1.0])
    assert sol.ineq_multipliers[1] == pytest.approx(1.0)
    assert sol.ineq_multipliers[2] == pytest.approx(1.0)


@SOLVERS
def test_multiplier_combined_indexing(solve):
    sol = solve(_sub(np.eye(2), [-2.0, 0.0],
                     ineq=[(2, [1.0, 0.0], 0.0)],
                     eq=[(1, [0.0, 1.0], -3.0)]))
    # combined index: inequality 2 is l=2; equality 1 is l = m_ineq + 1
    assert sol.multiplier(2, m_ineq=2) == pytest.approx(2.0)
    assert sol.multiplier(3, m_ineq=2) == pytest.approx(-3.0)


@SOLVERS
def test_flat_direction_raises_unbounded(solve):
    with pytest.raises(UnboundedSubproblemError):
        solve(_sub([[0.0]], [1.0]))


@SOLVERS
def test_flat_direction_with_only_inequalities_raises(solve):
    # inequalities never repair missing curvature here: the first
    # equality-only solve already fails
    with pytest.raises(UnboundedSubproblemError):
        solve(_sub(np.diag([1.0, 0.0]), [0.0, -1.0],
                   ineq=[(1, [0.0, 1.0], -1.0)]))


@SOLVERS
def test_equality_pins_flat_direction(solve):
    # same flat Hessian, but an equality row pins the flat coordinate
    sol = solve(_sub(np.diag([1.0, 0.0]), [0.0, -1.0],
                     eq=[(1, [0.0, 1.0], -1.0)]))
    assert sol.x == pytest.approx([0.0, 1.0])


@pytest.mark.parametrize("solve, error", [(solve_kkt, DegenerateSubproblemError),
                                          (solve_rows_cold, DegenerateSubproblemError),
                                          (centralized_kkt, InfeasibleProblemError)],
                         ids=["reference", "solve_rows", "centralized"])
def test_conflicting_parallel_rows_raise_degenerate(solve, error):
    # x <= -1 together with -x <= -0: jointly infeasible, the working set
    # saturates into a singular system; the oracle's Phase-1 sees the
    # infeasibility first
    with pytest.raises(error):
        solve(_sub([[1.0]], [0.0],
                   ineq=[(1, [1.0], 1.0), (2, [-1.0], 0.0)]))


@SOLVERS
def test_verify_kkt_accepts_solver_output(solve):
    sub = _sub(np.eye(2), [-2.0, -2.0],
               ineq=[(1, [1.0, 0.0], 0.0), (2, [1.0, 1.0], -1.0)])
    sol = solve(sub)
    report = verify_kkt(sub, sol)
    assert report.ok()
    assert report.stationarity <= 1e-12
    assert report.complementarity <= 1e-12


def test_verify_kkt_flags_wrong_point():
    sub = _sub([[1.0]], [-2.0], ineq=[(1, [1.0], -1.0)])
    sol = solve_kkt(sub)
    fake = KktSolution(np.array([0.5]), sol.ineq_multipliers,
                       sol.eq_multipliers, sol.active_set)
    assert not verify_kkt(sub, fake).ok()


def _random_subproblem(rng, n_ineq, n_eq, dim):
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    h = basis @ np.diag(rng.uniform(0.3, 3.0, size=dim)) @ basis.T
    ineq = [(m + 1, rng.uniform(-1, 1, size=dim), rng.uniform(-1.5, 0.5))
            for m in range(n_ineq)]
    eq = [(q + 1, rng.uniform(-1, 1, size=dim), rng.uniform(-0.5, 0.5))
          for q in range(n_eq)]
    return _sub(0.5 * (h + h.T), rng.uniform(-2, 2, size=dim), ineq, eq)


@SOLVERS
def test_matches_brute_force_enumeration(solve):
    rng = np.random.default_rng(42)
    solved = 0
    for _ in range(80):
        dim = int(rng.integers(1, 5))
        n_eq = int(rng.integers(0, min(dim, 2) + 1))
        n_ineq = int(rng.integers(0, 5 - n_eq))
        sub = _random_subproblem(rng, n_ineq, n_eq, dim)
        expected = brute_force_solve(sub)
        if expected is None:
            continue  # randomly infeasible; covered by dedicated tests
        x_ref, mu_ref, lam_ref = expected
        sol = solve(sub)
        assert sol.x == pytest.approx(x_ref, abs=1e-8)
        for idx, val in mu_ref.items():
            assert sol.ineq_multipliers[idx] == pytest.approx(val, abs=1e-8)
        for idx, val in lam_ref.items():
            assert sol.eq_multipliers[idx] == pytest.approx(val, abs=1e-8)
        solved += 1
    assert solved >= 60  # the family must mostly produce solvable instances
