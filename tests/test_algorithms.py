import gc
import logging
import math
import re
import types
import weakref

import numpy as np
import pytest

import couplesolve as cs
from couplesolve import algorithms, local_qp
from couplesolve.exceptions import (DegenerateSubproblemError, RankDeficiencyError,
                                    ValidationError)
from couplesolve.trace import traces_equal

from gen import psd_benchmark_ring, reduced_space_instance, strongly_convex_instance
from reference import fresh_solutions


def _slack(topology, values):
    layout = cs.SlackLayout.from_topology(topology)
    return cs.SlackState(layout, np.array(values, dtype=float))


def test_schedule_values():
    assert cs.ada_schedule(1, 0.25) == (0.5, 0.5)
    assert cs.ada_schedule(3, 0.1) == pytest.approx((0.4, 0.9))
    assert cs.half_squared_diameter(2.0, 3) == 24.0
    assert cs.pgd_stepsize(1, 2.0, 2.0) == pytest.approx(1 / math.sqrt(2))


def test_config_validation():
    with pytest.raises(ValidationError):
        cs.AdaConfig(gamma=0.0, rounds=5)
    with pytest.raises(ValidationError):
        cs.AdaConfig(gamma=0.1, rounds=-1)
    with pytest.raises(ValidationError):
        cs.PgdConfig(box_bound=-1.0, grad_bound=1.0, rounds=5)
    with pytest.raises(ValidationError):
        cs.PgdConfig(box_bound=1.0, grad_bound=0.0, rounds=5)


@pytest.mark.parametrize("make, field, value, message", [
    (lambda v: cs.AdaConfig(v, 5), "gamma", math.nan, "a finite number > 0"),
    (lambda v: cs.AdaConfig(v, 5), "gamma", math.inf, "a finite number > 0"),
    (lambda v: cs.AdaConfig(v, 5), "gamma", True, "a finite number > 0"),
    (lambda v: cs.AdaConfig(0.1, v), "rounds", 2.0, "an integer >= 0"),
    (lambda v: cs.AdaConfig(0.1, v), "rounds", True, "an integer >= 0"),
    (lambda v: cs.AdaConfig(0.1, 5, v), "grad_tolerance", math.nan, "None or a finite"),
    (lambda v: cs.AdaConfig(0.1, 5, v), "grad_tolerance", -1e-3, "None or a finite"),
    (lambda v: cs.PgdConfig(v, 1.0, 5), "box_bound", math.nan, "a finite number > 0"),
    (lambda v: cs.PgdConfig(v, 1.0, 5), "box_bound", math.inf, "a finite number > 0"),
    (lambda v: cs.PgdConfig(1.0, v, 5), "grad_bound", math.nan, "a finite number > 0"),
    (lambda v: cs.PgdConfig(1.0, v, 5), "grad_bound", math.inf, "a finite number > 0"),
    (lambda v: cs.PgdConfig(1.0, v, 5), "grad_bound", False, "a finite number > 0"),
    (lambda v: cs.PgdConfig(1.0, 1.0, 5, v), "grad_tolerance", math.inf, "None or a finite"),
], ids=["gamma-nan", "gamma-inf", "gamma-bool", "rounds-float", "rounds-bool", "tol-nan",
        "tol-negative", "box-nan", "box-inf", "grad-nan", "grad-inf", "grad-bool", "tol-inf"])
def test_config_rejects_non_finite_settings_naming_the_field(make, field, value, message):
    with pytest.raises(ValidationError, match=f"{field} must be {message}.*got {value!r}"):
        make(value)


def test_config_accepts_zero_tolerance_and_numpy_numbers():
    assert cs.AdaConfig(np.float64(0.1), np.int64(3), 0.0).grad_tolerance == 0.0
    assert cs.PgdConfig(np.float32(2.0), 1, 0, None).rounds == 0


@pytest.mark.parametrize("box", [math.nan, math.inf, 0.0, -1.0])
def test_gradient_bound_rejects_a_bad_box(toy, box):
    with pytest.raises(ValidationError, match=f"box_bound must be a finite number > 0, got {box}"):
        cs.estimate_gradient_bound(*toy, box)


@pytest.mark.parametrize("seed", [-1, 1.0, True])
def test_gradient_bound_rejects_a_bad_seed(toy, seed):
    with pytest.raises(ValidationError, match=f"seed must be an integer >= 0, got {seed}"):
        cs.estimate_gradient_bound(*toy, 1.0, seed=seed)


def test_ada_first_round_from_known_start(toy):
    problem, topology, weights = toy
    oracle = cs.solve_centralized(problem)
    result = cs.run(problem, topology, weights,
                    cs.AdaConfig(gamma=0.25, rounds=1),
                    initial_slack=_slack(topology, [2.0, 0.0]),
                    oracle=oracle)
    # round 1 evaluates at the start; gradient there is (1, -1)
    config = cs.AdaConfig(gamma=0.25, rounds=1)
    start = cs.AdaState(np.array([2.0, 0.0]), np.zeros(2), np.zeros(2), 0)
    state, _, _ = cs.ada_round(start, lambda point, t: (None, np.array([1.0, -1.0])), config)
    assert state.point.tolist() == [2.0, 0.0]
    assert state.accumulator.tolist() == [-0.5, 0.5]
    assert state.average.tolist() == [-0.5, 0.5]
    assert result.output_slack.values.tolist() == [-0.5, 0.5]  # the run's average

    row = result.trace.records[1]
    assert row.phi == 2.0
    assert row.phi_hat == 1.25          # average gives x = (1.5, 0.5)
    assert row.obj_err == 0.25
    assert row.max_eq_resid == 0.0
    assert row.dual_cons_err == (pytest.approx(math.sqrt(2)),)
    assert row.msgs == 4

    assert result.output_primal.tolist() == [1.5, 0.5]
    assert result.output_slack.values.tolist() == [-0.5, 0.5]


def test_ada_row_zero_is_the_start(toy):
    problem, topology, weights = toy
    result = cs.run(problem, topology, weights,
                    cs.AdaConfig(gamma=0.25, rounds=3),
                    initial_slack=_slack(topology, [2.0, 0.0]))
    row0 = result.trace.records[0]
    assert row0.round == 0
    assert row0.phi == 2.0
    assert math.isnan(row0.phi_hat) and math.isnan(row0.obj_err)
    assert row0.msgs == 0
    assert result.trace.column("msgs").tolist() == [0, 4, 8, 12]
    assert result.messages == 12
    assert len(result.trace) == 4
    assert result.box_active is None


def test_zero_rounds(toy):
    problem, topology, weights = toy
    for config in (cs.AdaConfig(gamma=0.25, rounds=0),
                   cs.PgdConfig(box_bound=3.0, grad_bound=3.0, rounds=0)):
        result = cs.run(problem, topology, weights, config,
                        initial_slack=_slack(topology, [2.0, 0.0]))
        assert len(result.trace) == 1
        assert result.trace.records[0].round == 0
        assert result.messages == 0
        assert not result.converged
        assert result.output_slack.values.tolist() == [2.0, 0.0]


def test_ada_early_stop_on_zero_gradient(toy):
    # the all-zero allocation is optimal on this symmetric instance, and the
    # assembled gradient there is bitwise zero
    problem, topology, weights = toy
    result = cs.run(problem, topology, weights,
                    cs.AdaConfig(gamma=0.25, rounds=50, grad_tolerance=1e-12))
    assert result.converged
    assert len(result.trace) == 2  # row 0 plus the single round


def test_pgd_trace_is_iterate_aligned(toy):
    problem, topology, weights = toy
    config = cs.PgdConfig(box_bound=5.0, grad_bound=5.0, rounds=4)
    result = cs.run(problem, topology, weights, config,
                    initial_slack=_slack(topology, [2.0, 0.0]))
    trace = result.trace
    assert len(trace) == 5  # iterates 0..3 plus the final monitoring row
    assert trace.column("round").tolist() == [0, 1, 2, 3, 4]
    assert trace.column("msgs").tolist() == [0, 4, 8, 12, 16]
    assert trace.records[0].phi == 2.0
    assert all(math.isnan(v) for v in trace.column("phi_hat"))
    # final row is monitoring only: message counter stops at the last exchange
    assert result.messages == 16
    assert result.box_active is False


def test_pgd_early_stop_keeps_preupdate_point(toy):
    problem, topology, weights = toy
    config = cs.PgdConfig(box_bound=5.0, grad_bound=5.0, rounds=10,
                          grad_tolerance=1e-12)
    result = cs.run(problem, topology, weights, config)  # start at zero
    assert result.converged
    assert len(result.trace) == 1  # no extra monitoring row after the stop
    assert result.output_slack.values.tolist() == [0.0, 0.0]  # pgd's output is its point
    assert result.output_primal.tolist() == [1.0, 1.0]


def test_pgd_clips_start_into_box(toy, caplog):
    problem, topology, weights = toy
    config = cs.PgdConfig(box_bound=0.5, grad_bound=5.0, rounds=0)
    with caplog.at_level(logging.WARNING, logger="couplesolve"):
        result = cs.run(problem, topology, weights, config,
                        initial_slack=_slack(topology, [2.0, 0.0]))
    assert result.output_slack.values.tolist() == [0.5, 0.0]
    assert result.box_active is True
    assert "box is active" in caplog.text


def test_gamma_warning_only_above_the_safe_step(toy, caplog):
    problem, topology, weights = toy
    # gradient Lipschitz bound here is sqrt(2), so 0.5 > 1/(2 sqrt(2))
    config = cs.AdaConfig(gamma=0.5, rounds=1)
    with caplog.at_level(logging.WARNING, logger="couplesolve"):
        cs.run(problem, topology, weights, config)
    assert "convergence guarantee void" in caplog.text

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="couplesolve"):
        cs.run(problem, topology, weights, cs.AdaConfig(gamma=0.25, rounds=1))
    assert caplog.text == ""  # inside the safe range


def test_gamma_check_reports_missing_curvature(path4, caplog):
    # zero-curvature objectives leave the step-size bound undefined
    obj = cs.AgentObjective(np.zeros((1, 1)), np.zeros(1))
    cons = cs.CouplingConstraints(4, m_ineq=0, q_eq=1)
    for i in range(1, 5):
        cons.add_eq_row(i, 1, [1.0], -1.0)
    problem = cs.ProblemSpec((obj,) * 4, cons, path4)
    topology = cs.induce_topology(problem, path4)
    weights = cs.build_weights(topology)
    with caplog.at_level(logging.INFO, logger="couplesolve"):
        cs.run(problem, topology, weights, cs.AdaConfig(gamma=1.0, rounds=0))
    assert "Lipschitz bound unavailable" in caplog.text


@pytest.mark.parametrize("config", [cs.AdaConfig(gamma=0.1, rounds=3),
                                    cs.PgdConfig(box_bound=5.0, grad_bound=5.0, rounds=3)],
                         ids=["ada", "pgd"])
def test_run_rejects_dependent_rows_before_any_exchange(monkeypatch, caplog, config,
                                                        dependent_rows):
    # Each agent's two equality rows are parallel: the run names both agents
    # at its boundary, before any gather or lock-step solve, and does not
    # blame the curvature.
    problem, topology, weights = dependent_rows
    events = []

    class Marking(cs.SimnetTransport):
        def gather(self, phase, values):
            events.append(phase)
            return super().gather(phase, values)

    loop = local_qp.AgentBatch._lockstep

    def spy(*args):
        events.append("lockstep")
        return loop(*args)

    monkeypatch.setattr(local_qp.AgentBatch, "_lockstep", spy)
    with caplog.at_level(logging.INFO, logger="couplesolve"):
        with pytest.raises(RankDeficiencyError,
                           match=r"^agents \(1, 2\) have linearly dependent constraint rows$"):
            cs.run(problem, topology, weights, config, transport=Marking(topology))
    assert events == []
    assert caplog.text == ""


def _bad_starts(toy_topology, layout):
    """Starts ``run`` must refuse, keyed by case: off the run's slack layout
    (a plain array has none), or not finite."""
    reordered = cs.SlackLayout(layout.members[::-1].copy(), layout.starts)
    values = {"nan": (0, math.nan), "inf": (-1, math.inf), "minus-inf": (1, -math.inf)}
    starts = {"smaller-topology": cs.SlackState.zeros(cs.SlackLayout.from_topology(toy_topology)),
              "reordered-members": cs.SlackState.zeros(reordered),
              "plain-array": np.zeros(layout.size)}
    for name, (k, value) in values.items():
        starts[name] = cs.SlackState.zeros(layout)
        starts[name].values[k] = value
    return starts


@pytest.mark.parametrize("start", ["smaller-topology", "reordered-members", "plain-array",
                                   "nan", "inf", "minus-inf"])
@pytest.mark.parametrize("config", [cs.AdaConfig(gamma=0.1, rounds=3),
                                    cs.PgdConfig(box_bound=5.0, grad_bound=5.0, rounds=3)],
                         ids=["ada", "pgd"])
def test_run_rejects_a_bad_initial_slack_before_any_solve(toy, config, start, affine_calls):
    # A start of another layout, or one holding NaN or inf, is bad input: it
    # fails at the boundary, before any exchange or local solve, not as an
    # IndexError or a singular KKT system.
    problem, topology, weights = strongly_convex_instance(0)
    events = []

    class Marking(cs.SimnetTransport):
        def gather(self, phase, values):
            events.append(phase)
            return super().gather(phase, values)

    initial = _bad_starts(toy[1], cs.SlackLayout.from_topology(topology))[start]
    with pytest.raises(ValidationError, match=r"^initial_slack must be finite, in the "
                                              r"topology's slack layout$"):
        cs.run(problem, topology, weights, config, initial_slack=initial,
               transport=Marking(topology))
    assert events == [] and affine_calls == []


def test_gradient_bound_rejects_dependent_rows_before_any_solve(dependent_rows, affine_calls):
    # The sampled bound names the agents as run does, not the singular KKT
    # system its first lock-step solve would meet.
    with pytest.raises(RankDeficiencyError,
                       match=r"^agents \(1, 2\) have linearly dependent constraint rows$"):
        cs.estimate_gradient_bound(*dependent_rows, box_bound=5.0)
    assert affine_calls == []


def test_replay_is_deterministic(toy):
    problem, topology, weights = toy
    config = cs.AdaConfig(gamma=0.25, rounds=20)
    a = cs.run(problem, topology, weights, config,
               initial_slack=_slack(topology, [2.0, 0.0]))
    b = cs.run(problem, topology, weights, config,
               initial_slack=_slack(topology, [2.0, 0.0]))
    assert traces_equal(a.trace, b.trace)
    assert a.output_slack.values.tolist() == b.output_slack.values.tolist()


def test_every_recorded_iterate_is_feasible(toy):
    problem, topology, weights = toy
    for config in (cs.AdaConfig(gamma=0.25, rounds=30),
                   cs.PgdConfig(box_bound=5.0, grad_bound=5.0, rounds=30)):
        result = cs.run(problem, topology, weights, config,
                        initial_slack=_slack(topology, [2.0, 0.0]))
        assert result.trace.column("max_ineq_viol").max() <= 1e-12
        assert result.trace.column("max_eq_resid").max() <= 1e-12


def test_ada_average_objective_approaches_optimum(toy):
    problem, topology, weights = toy
    oracle = cs.solve_centralized(problem)
    result = cs.run(problem, topology, weights,
                    cs.AdaConfig(gamma=0.25, rounds=60),
                    initial_slack=_slack(topology, [2.0, 0.0]),
                    oracle=oracle)
    errs = result.trace.column("obj_err")[1:]
    assert errs[-1] <= 1e-3
    assert errs[-1] <= errs[1]


def test_estimate_gradient_bound_is_deterministic(toy):
    problem, topology, weights = toy
    a = cs.estimate_gradient_bound(problem, topology, weights, 1.0, seed=3)
    b = cs.estimate_gradient_bound(problem, topology, weights, 1.0, seed=3)
    assert a == b
    assert a > 0
    # the corner (1, -1) has gradient (1, -1) scaled by the consensus gap;
    # doubling guarantees strict domination of every sampled norm
    assert a >= 2 * math.sqrt(2) * 0.5


def _sample_points(n, box_bound, seed):
    """estimate_gradient_bound's points, built corner by corner."""
    rng = np.random.default_rng(seed)
    if n <= 10:
        points = [np.array([box_bound if mask >> k & 1 else -box_bound for k in range(n)])
                  for mask in range(2 ** n)]
    else:
        points = list(box_bound * (rng.integers(0, 2, size=(2 ** 10, n)) * 2 - 1).astype(float))
    points.extend(rng.uniform(-box_bound, box_bound, size=(50, n)))
    return np.array(points)


def _sequential_gradient_bound(problem, topology, weights, box_bound, seed=0):
    """estimate_gradient_bound's points, solved one at a time through one warm stream."""
    n = cs.SlackLayout.from_topology(topology).size
    batch = local_qp.AgentBatch(problem, topology, weights)
    warm = local_qp.WarmStart(batch)
    worst = 0.0
    for flat in _sample_points(n, box_bound, seed):
        grad = batch.gradient(batch.multipliers(warm.solve_stacked(batch.offsets(flat))))
        worst = max(worst, float(np.linalg.norm(grad)))
    return 2.0 * worst


@pytest.mark.parametrize("make, seed",
                         [(strongly_convex_instance, seed) for seed in range(25)]
                         + [(reduced_space_instance, seed) for seed in range(12)])
def test_gradient_bound_matches_a_sequential_warm_reference(make, seed):
    # Cold lock-step rows in chunks give the bits of one warm solve per point.
    problem, topology, weights = make(seed)
    for box in (0.5, 2.0, 10.0):
        got = cs.estimate_gradient_bound(problem, topology, weights, box, seed=seed)
        assert got == _sequential_gradient_bound(problem, topology, weights, box, seed)


def _psd_ring(seed):
    """The pgd-psd12 ring with the benchmark's box."""
    problem, topology, weights = psd_benchmark_ring(seed)
    box = cs.default_box_bound(problem, topology, weights, cs.solve_centralized(problem))
    return problem, topology, weights, box


def _sample_rows(batch, points):
    """Every (point, agent) row of a sample, point by point: (agents, offsets)."""
    agents = np.tile(np.arange(batch.n_agents), len(points))
    return agents, batch.offsets(points).reshape(len(agents), -1)


@pytest.mark.parametrize("make, seed", [(strongly_convex_instance, 7), (strongly_convex_instance, 21),
                                        (reduced_space_instance, 0), (psd_benchmark_ring, 1)])
def test_gradient_bound_samples_the_reference_points(monkeypatch, make, seed):
    # The corners (n <= 10: 3 and 10 coordinates) or the random sign
    # vectors, then the interior points, bit for bit.
    problem, topology, weights = make(seed)
    seen = []
    offsets = local_qp.AgentBatch.offsets
    monkeypatch.setattr(local_qp.AgentBatch, "offsets",
                        lambda self, values: seen.append(values) or offsets(self, values))
    cs.estimate_gradient_bound(problem, topology, weights, 2.0, seed=seed)
    sampled = np.concatenate(seen)
    expected = _sample_points(topology.layout.size, 2.0, seed)
    assert sampled.dtype == expected.dtype and sampled.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(1, 11))
def test_gradient_bound_solves_each_distinct_row_once(monkeypatch, seed):
    # An agent's offsets read only its own hops, so most rows repeat across
    # the sample; each distinct (agent, offsets bits) row is solved once, in
    # order of first occurrence, at most _SAMPLE_ROWS rows per call.
    problem, topology, weights, box = _psd_ring(seed)
    solved, calls = [], []
    solve_rows = local_qp.AgentBatch.solve_rows

    def recording(self, agents, offsets, start):
        calls.append(len(agents))
        solved.extend(zip(np.asarray(agents).tolist(), (row.tobytes() for row in offsets)))
        return solve_rows(self, agents, offsets, start)

    monkeypatch.setattr(local_qp.AgentBatch, "solve_rows", recording)
    cs.estimate_gradient_bound(problem, topology, weights, box, seed=0)
    batch = local_qp.AgentBatch(problem, topology, weights)
    agents, offsets = _sample_rows(batch, _sample_points(topology.layout.size, box, 0))
    rows = list(zip(agents.tolist(), (row.tobytes() for row in offsets)))
    assert solved == list(dict.fromkeys(rows))
    assert len(solved) < len(rows) / 10
    assert max(calls) <= algorithms._SAMPLE_ROWS


@pytest.mark.parametrize("seed", range(1, 11))
def test_gradient_bound_matches_a_per_point_norm_reference(seed):
    # Every row solved cold, one lock-step call per point, and one
    # np.linalg.norm per point: the stacked norms keep its bits.
    problem, topology, weights, box = _psd_ring(seed)
    batch = local_qp.AgentBatch(problem, topology, weights)
    cold = batch.sets.ids_of(np.arange(batch.n_agents))
    worst = 0.0
    for point in _sample_points(topology.layout.size, box, 0):
        agents, offsets = _sample_rows(batch, point[None])
        z, _ = batch.solve_rows(agents, offsets, cold[agents])
        worst = max(worst, float(np.linalg.norm(batch.gradient(batch.multipliers(z)))))
    assert cs.estimate_gradient_bound(problem, topology, weights, box, seed=0) == 2.0 * worst


@pytest.mark.parametrize("seed", range(1, 11))
def test_gradient_bound_raises_the_first_failing_rows_diagnosis(monkeypatch, seed):
    # Rows whose offsets sum to a value none of the first 300 rows has fail
    # their residual check, and each agent's diagnosis names its Hessian.
    # In chunks of 20 distinct rows the sample raises what solving the
    # rows one by one, in order, meets first.
    problem, topology, weights, box = _psd_ring(seed)
    batch = local_qp.AgentBatch(problem, topology, weights)
    agents, offsets = _sample_rows(batch, _sample_points(topology.layout.size, box, 0))
    passing = offsets[:300].sum(-1)
    residual_ok = local_qp._residual_ok

    def failing(h, c, c_max, rows, kkt, z, row_offsets):
        ok, row_residual = residual_ok(h, c, c_max, rows, kkt, z, row_offsets)
        return ok & np.isin(row_offsets.sum(-1), passing), row_residual

    monkeypatch.setattr(local_qp, "_residual_ok", failing)
    monkeypatch.setattr(local_qp, "_singular",
                        lambda h, rows: DegenerateSubproblemError(f"Hessian {h.tolist()}"))
    monkeypatch.setattr(algorithms, "_SAMPLE_ROWS", 20)
    cold = batch.sets.ids_of(np.arange(batch.n_agents))
    first = None
    for r, a in enumerate(agents.tolist()):
        try:
            batch.solve_rows([a], offsets[r:r + 1], cold[[a]])
        except DegenerateSubproblemError as error:
            first = error
            break
    assert first is not None and r >= 300
    with pytest.raises(DegenerateSubproblemError, match=f"^{re.escape(str(first))}$"):
        cs.estimate_gradient_bound(problem, topology, weights, box, seed=0)


def test_default_box_bound_scales_with_offsets(toy):
    problem, topology, weights = toy
    assert cs.default_box_bound(problem, topology, weights) == 10.0
    oracle = cs.solve_centralized(problem)
    # optimal slack is zero here, so the offset scale still wins
    assert cs.default_box_bound(problem, topology, weights, oracle) == 10.0


def test_output_stacked_is_the_fresh_reference_solve(toy):
    # Agent i's row of z holds its x, then its multipliers in
    # topology.constraints_of(i) order; work marks its working rows.
    for (problem, topology, weights), gamma in ((toy, 0.25), (strongly_convex_instance(3), 0.01)):
        for config in (cs.AdaConfig(gamma, 10), cs.PgdConfig(5.0, 2.0, 10)):
            result = cs.run(problem, topology, weights, config)
            stacked = result.output_stacked
            reference = fresh_solutions(problem, topology, weights,
                                        result.output_slack.values)
            for a, ref in enumerate(reference):
                ineq = topology.agent_ineq_sets[a]
                mults = [*ref.ineq_multipliers.values(), *ref.eq_multipliers.values()]
                assert np.array_equal(stacked.z[a, :stacked.dims[a]], ref.x)
                assert stacked.z[a, stacked.dim:stacked.dim + len(mults)].tolist() == mults
                assert tuple(ineq[p] for p in np.flatnonzero(stacked.work[a])) == (
                    ref.active_set)


def test_run_result_keeps_no_batch_alive(monkeypatch):
    problem, topology, weights = strongly_convex_instance(3)
    batches = []

    class Tracked(local_qp.AgentBatch):
        def __init__(self, *args):
            super().__init__(*args)
            batches.append(weakref.ref(self))

    monkeypatch.setattr(algorithms, "AgentBatch", Tracked)
    for config in (cs.AdaConfig(0.01, 5), cs.PgdConfig(10.0, 10.0, 5)):
        del batches[:]
        result = cs.run(problem, topology, weights, config)
        gc.collect()
        assert batches and all(ref() is None for ref in batches)
        assert result.output_stacked.z.shape[0] == problem.n_agents


def _reachable(root) -> set:
    """Ids of every object reachable from ``root``, not entering types, modules or functions."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return seen


def test_run_result_keeps_no_topology_index_tuple():
    # A kept result stores its solutions and its slack layout as arrays.
    problem, topology, weights = strongly_convex_instance(3)
    sets = (topology.agent_ineq_sets, topology.agent_eq_sets, topology.participants)
    tuples = {id(t) for group in sets for t in (group, *group) if t}
    for config in (cs.AdaConfig(0.01, 5), cs.PgdConfig(10.0, 10.0, 5)):
        result = cs.run(problem, topology, weights, config)
        assert not _reachable(result) & tuples


def test_seeded_first_round_needs_no_fallback(monkeypatch):
    # Round 1 evaluates the start the monitor just solved; its stream starts
    # from the working sets the monitor ended on, so the stacked pass
    # accepts every agent, while the cold monitor solve itself falls back.
    events = []
    loop = local_qp.AgentBatch._lockstep

    def spy(*args):
        events.append("lockstep")
        return loop(*args)

    class Marking(cs.SimnetTransport):
        def gather(self, phase, values):
            events.append(phase)
            return super().gather(phase, values)

    monkeypatch.setattr(local_qp.AgentBatch, "_lockstep", spy)
    cold = 0
    for seed in range(25):
        problem, topology, weights = strongly_convex_instance(seed)
        layout = cs.SlackLayout.from_topology(topology)
        start = cs.SlackState(layout, np.random.default_rng(seed).uniform(-2, 2, layout.size))
        del events[:]
        cs.run(problem, topology, weights, cs.AdaConfig(0.01, 2), initial_slack=start,
               transport=Marking(topology))
        first = events.index(cs.Phase.SLACK_EXCHANGE)
        cold += "lockstep" in events[:first]
        assert events[first + 1] == cs.Phase.MULTIPLIER_EXCHANGE
    assert cold
