"""The compiled, warm-started, batched local solver against its references.

Every check runs over the ``tests/gen.py`` families: strongly convex seeds
0-24 and reduced-space seeds 0-11, at random slack allocations.  The compile
checks add strongly convex seed 3 on lazy (I + P) / 2 weights, which the
batch must read from the given matrices.
"""

from functools import partial

import numpy as np
import pytest

import couplesolve as cs
from couplesolve import cbf, oracle
from couplesolve.local_qp import AgentBatch, WarmStart, _residual_ok, _SetTable
from couplesolve.problem import aggregate_violation
from couplesolve.simnet import Exchange, Neighborhoods, ReadPass
from bruteforce import brute_force_solve
from reference import (AgentView, consensus_gradient, fresh_solutions, lu_kkt_solve,
                       scalar_factors, scalar_moved, set_keys, solve_kkt, stacked_multipliers,
                       stored_row, total_objective, work_of, working_of)
from gen import (benchmark_ring, failing_instance, lazy_weights_instance, mixed_dims_instance,
                 psd_benchmark_ring, reduced_space_instance, strongly_convex_instance)

FAMILIES = ([(strongly_convex_instance, seed) for seed in range(25)]
            + [(reduced_space_instance, seed) for seed in range(12)])
IDS = [f"{make.__name__.split('_')[0]}{seed}" for make, seed in FAMILIES]
TOL = 1e-12


def served(batch, views) -> np.ndarray:
    """The delivery of ``views`` as the batch reads it, through its checked read pass."""
    return views.serve(ReadPass(views.neighborhoods, batch.readers, batch.flat))


def _points(topology, seed, count=3):
    layout = cs.SlackLayout.from_topology(topology)
    rng = np.random.default_rng(1000 + seed)
    return layout, [rng.uniform(-2.0, 2.0, size=layout.size) for _ in range(count)]


def _padded(qp, x, mu, lam):
    """A keyed solution as a padded z row: x, then the row multipliers in row order."""
    dim, width, _ = qp.shape
    z = np.zeros(dim + width)
    z[:qp.objective.dim] = x
    z[dim:dim + qp.n_rows] = ([mu[idx] for idx in qp.ineq_indices]
                              + [lam[idx] for idx in qp.eq_indices])
    return z


def _row(qp, sol):
    """A ``KktSolution`` as a padded z row."""
    return _padded(qp, sol.x, sol.ineq_multipliers, sol.eq_multipliers)


def _working(qp, sol):
    """A ``KktSolution``'s working rows as positions into the agent's inequality rows."""
    return tuple(qp.position[idx] for idx in sol.active_set)


def _qps(topology, batch):
    """Every agent's ``AgentView``: the QPs the batch stacks."""
    return [AgentView(batch, topology, a) for a in range(batch.n_agents)]


def _starts(qp, active):
    """Correct, empty and deliberately wrong first working sets (positions)."""
    correct = tuple(qp.position[idx] for idx in active)
    wrong = tuple(p for p in range(qp.n_ineq) if p not in correct)
    return {"correct": correct, "empty": (), "wrong": wrong}


@pytest.mark.parametrize("make, seed", FAMILIES, ids=IDS)
def test_warm_and_batched_solves_match_cold_and_enumeration(make, seed, monkeypatch):
    problem, topology, weights = make(seed)
    batch = AgentBatch(problem, topology, weights)
    qps = _qps(topology, batch)
    layout, points = _points(topology, seed)

    fallbacks = []  # rows entering the lock-step loop
    loop = solve_kkt
    lockstep = AgentBatch._lockstep

    def counted(self, agents, *args):
        fallbacks.extend(agents)
        return lockstep(self, agents, *args)

    monkeypatch.setattr(AgentBatch, "_lockstep", counted)
    ran = {"correct": 0, "empty": 0, "wrong": 0}
    misled = 0  # agents whose wrong start differs from the correct one
    for flat in points:
        views = Exchange(Neighborhoods(topology), flat)
        subs = [qp.subproblem(qp.offsets(view)) for qp, view in zip(qps, views)]
        cold = [loop(sub) for sub in subs]
        starts = [_starts(qp, sol.active_set) for qp, sol in zip(qps, cold)]
        misled += sum(s["wrong"] != s["correct"] for s in starts)
        offsets = batch.offsets(served(batch, views))
        for kind in ran:
            del fallbacks[:]
            warm = WarmStart(batch, work_of([s[kind] for s in starts], batch.shape[1]))
            batched = warm.solve_stacked(offsets)
            ran[kind] += len(fallbacks)
            if kind == "correct":
                assert not fallbacks  # the acceptance pass takes every correct set
            for a, (sub, ref, z) in enumerate(zip(subs, cold, batched)):
                qp = qps[a]
                first = tuple(qp.ineq_indices[p] for p in starts[a][kind])
                expected = brute_force_solve(sub)
                assert expected is not None
                others = [loop(sub, first), loop(sub, first, qp)]
                assert working_of(warm.work)[a] == _working(qp, ref)
                assert all(sol.active_set == ref.active_set for sol in others)
                for other in (z, *(_row(qp, sol) for sol in others)):
                    assert np.abs(other - _row(qp, ref)).max() <= TOL
                    assert np.abs(other - _padded(qp, *expected)).max() <= TOL
    assert ran["wrong"] == misled  # each wrong start went through the loop


@pytest.mark.parametrize("make, seed", FAMILIES, ids=IDS)
def test_answer_depends_only_on_the_final_working_set(make, seed):
    # Accepted by the stacked pass or found by the loop from any start, one
    # working set gives one set of bits.
    problem, topology, weights = make(seed)
    batch = AgentBatch(problem, topology, weights)
    qps = _qps(topology, batch)
    layout, points = _points(topology, seed)
    for flat in points:
        offsets = batch.offsets(flat)
        cold = WarmStart(batch)
        z = cold.solve_stacked(offsets)
        starts = [_starts(qp, [qp.ineq_indices[p] for p in working])
                  for qp, working in zip(qps, working_of(cold.work))]
        for kind in ("correct", "wrong"):
            again = WarmStart(batch, work_of([s[kind] for s in starts], batch.shape[1]))
            assert np.array_equal(again.solve_stacked(offsets), z)
            assert np.array_equal(again.work, cold.work)


@pytest.mark.parametrize("make, seed", FAMILIES, ids=IDS)
def test_lockstep_rows_match_cold_solves(make, seed):
    # One agent at many offsets, and every agent at every offset shuffled
    # into one batch: each row is the cold compiled solve_kkt, bit for bit.
    problem, topology, weights = make(seed)
    batch = AgentBatch(problem, topology, weights)
    layout = cs.SlackLayout.from_topology(topology)
    rng = np.random.default_rng(2000 + seed)
    offsets = batch.offsets(rng.uniform(-3.0, 3.0, size=(12, layout.size)))
    cold = batch.sets.ids_of(np.arange(batch.n_agents))
    expected = {}
    for a, qp in enumerate(_qps(topology, batch)):
        z, ids = batch.solve_rows(np.full(len(offsets), a), offsets[:, a],
                                  np.full(len(offsets), cold[a]))
        for p, (got, sid) in enumerate(zip(z, ids)):
            sol = solve_kkt(qp.subproblem(offsets[p, a]), (), qp)
            expected[p, a] = _row(qp, sol)
            assert np.array_equal(got, expected[p, a])
            assert set_keys(batch.sets)[sid] == (a, tuple(qp.position[i] for i in sol.active_set))
    pairs = [(p, a) for p in range(len(offsets)) for a in range(batch.n_agents)]
    order = rng.permutation(len(pairs))
    agents = np.array([pairs[k][1] for k in order])
    z, _ = batch.solve_rows(agents, np.array([offsets[pairs[k]] for k in order]),
                            cold[agents])
    for got, k in zip(z, order):
        assert np.array_equal(got, expected[pairs[k]])


def test_residual_check_is_padding_free():
    # One agent's KKT solution checked alone and zero-padded beside a wider
    # agent, as in a batch: the same verdict and the same row residual bits.
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, d + 1))
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        h = basis @ np.diag(rng.uniform(0.3, 3.0, size=d)) @ basis.T
        c, rows, offsets = rng.normal(size=d), rng.normal(size=(k, d)), rng.normal(size=k)
        x, mults = lu_kkt_solve(h, c, rows, -offsets)
        ok, residual = _residual_ok(h, c, np.abs(c).max(), rows, np.ones(k, dtype=bool),
                                    np.concatenate([x, mults]), offsets)
        assert ok

        dim, width = d + int(rng.integers(1, 7)), k + int(rng.integers(1, 4))
        h_pad, c_pad = np.zeros((2, dim, dim)), np.zeros((2, dim))
        rows_pad = np.zeros((2, width, dim))
        h_pad[0, :d, :d], c_pad[0, :d], rows_pad[0, :k, :d] = h, c, rows
        h_pad[1], c_pad[1], rows_pad[1] = (np.eye(dim), rng.normal(size=dim),
                                           rng.normal(size=(width, dim)))
        z, off, kkt = np.zeros((2, dim + width)), np.zeros((2, width)), np.zeros((2, width), bool)
        z[0, :d], z[0, dim:dim + k], off[0, :k], kkt[0, :k] = x, mults, offsets, True
        padded_ok, padded = _residual_ok(h_pad, c_pad, np.abs(c_pad).max(-1), rows_pad, kkt, z,
                                         off)
        assert padded_ok[0] == ok
        assert padded[0, :k].tobytes() == residual.tobytes()


def _failing_batch():
    """At its FAILING offsets, 0-based agent 0 cycles and agent 1 has a flat, unpinned direction.

    Returns the batch and the ``AgentView``s of its agents.
    """
    _, topology, weights = instance = failing_instance()
    batch = AgentBatch(*instance)
    return batch, _qps(topology, batch)


FAILING = {0: [-2.0, -1.0, 2.0, 0.0], 1: [0.0, 0.0, 0.0, 0.0]}


def test_lockstep_failures_raise_what_solve_kkt_raises():
    batch, qps = _failing_batch()
    good = [(0, [-5.0, -5.0, -5.0, -5.0]), (2, [0.5, -1.0, 0.25, -2.0]), (2, [-1.0] * 4)]
    raised = set()
    for bad in ([0, 1], [1, 0]):
        # The lowest failing row decides, as in one solve_kkt per row.
        rows = [good[0], (bad[0], FAILING[bad[0]]), good[1], (bad[1], FAILING[bad[1]]),
                good[2]]
        agents = np.array([a for a, _ in rows])
        offsets = np.array([off for _, off in rows])
        qp = qps[bad[0]]
        with pytest.raises(cs.SolverError) as expected:
            solve_kkt(qp.subproblem(offsets[1]), (), qp)
        cold = batch.sets.ids_of(agents)
        with pytest.raises(cs.SolverError) as got:
            batch.solve_rows(agents, offsets, cold)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        raised.add((type(got.value), str(got.value)))
    assert {kind for kind, _ in raised} == {cs.UnboundedSubproblemError,
                                             cs.DegenerateSubproblemError}
    assert any("revisited" in message for _, message in raised)
    # The good rows alone solve.
    z, _ = batch.solve_rows([a for a, _ in good], np.array([off for _, off in good]),
                            batch.sets.ids_of([a for a, _ in good]))
    assert np.isfinite(z).all()


@pytest.mark.parametrize("start, offset", [((), -1.0), ((0, 1), -3.0)],
                         ids=["add", "drop"])
def test_lockstep_breaks_ties_as_solve_kkt(start, offset):
    # min 1/2|x|^2 - 2(x1 + x2) s.t. x1 + b <= 0, x2 + b <= 0: from the empty
    # set both rows are equally violated, from both rows both multipliers
    # are equally negative; the lowest row goes first either way.
    obj = cs.AgentObjective(np.eye(2), np.array([-2.0, -2.0]))
    cons = cs.CouplingConstraints(2, m_ineq=2, q_eq=0)
    for l in (1, 2):
        cons.add_ineq_row(1, l, np.eye(2)[l - 1], 0.0)
        cons.add_ineq_row(2, l, np.eye(2)[l - 1], 0.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topology = cs.induce_topology(problem, graph)
    weights = cs.build_weights(topology)
    batch = AgentBatch(problem, topology, weights)
    qp, offsets = AgentView(batch, topology, 0), np.array([offset, offset])

    visited = []
    kkt_solve = qp.kkt_solve

    def spy(working, padded):
        visited.append(working)
        return kkt_solve(working, padded)

    qp.kkt_solve = spy
    solve_kkt(qp.subproblem(offsets), tuple(qp.ineq_indices[p] for p in start), qp)
    batch.solve_rows([0], offsets[None], batch.sets.ids_of([0], work_of([start], batch.shape[1])))
    assert [working for _, working in set_keys(batch.sets)] == visited
    assert len(visited) == 3


@pytest.mark.parametrize("make, seed", FAMILIES + [(lazy_weights_instance, 3)],
                         ids=IDS + ["lazy3"])
def test_batched_offsets_are_consensus_gap_plus_base(make, seed):
    problem, topology, weights = make(seed)
    batch = AgentBatch(problem, topology, weights)
    layout, points = _points(topology, seed)
    cons = problem.constraints
    width = batch.shape[1]
    for flat in points:
        views = Exchange(Neighborhoods(topology), flat)
        mediated = cs.SimnetTransport(topology).gather(cs.Phase.SLACK_EXCHANGE, flat)
        expected = np.zeros((problem.n_agents, width))
        for i in range(1, problem.n_agents + 1):
            for r, l in enumerate(topology.constraints_of(i)):
                gap = cs.consensus_gap(l, i, topology, weights, views[i - 1])
                expected[i - 1, r] = gap + stored_row(cons, i, l)[1]
        for got in (batch.offsets(served(batch, views)),
                    batch.offsets(served(batch, mediated)), batch.offsets(flat),
                    np.array([qp.offsets(v) for qp, v in zip(_qps(topology, batch), views)])):
            assert np.array_equal(got, expected)
        for i in range(1, problem.n_agents + 1):
            qp = AgentView(batch, topology, i - 1)
            sub = qp.subproblem(qp.offsets(views[i - 1]))
            k_i = len(sub.ineq_indices)
            assert np.array_equal(sub.ineq_offsets, expected[i - 1, :k_i])
            assert np.array_equal(sub.eq_offsets,
                                  expected[i - 1, k_i:k_i + len(sub.eq_indices)])

        # The gradient reads the multiplier views through the same terms.
        solutions = fresh_solutions(problem, topology, weights, flat)
        reference = consensus_gradient(solutions, topology, weights, layout)
        mults = stacked_multipliers(solutions, topology)
        mult_views = cs.SimnetTransport(topology).gather(cs.Phase.MULTIPLIER_EXCHANGE, mults)
        z = WarmStart(batch).solve_stacked(batch.offsets(flat))
        assert np.array_equal(batch.gradient(batch.multipliers(z)), reference)
        assert np.array_equal(batch.gradient(served(batch, mult_views)), reference)


def _close(got, ref):
    ref = np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(np.asarray(got) - ref) <= 1e-13 * (1.0 + np.abs(ref))))


@pytest.mark.parametrize("make, seed", FAMILIES + [(mixed_dims_instance, 0)],
                         ids=IDS + ["mixed-dims-2-7-9-3"])
def test_stacked_metrics_match_the_reference_functions(make, seed):
    # What rounds read from z against the per-agent functions the trace was
    # computed with before: the objective, the coupled rows, the dense
    # (I - P) mu and every agent's reference solve, row by row of z with its
    # working set.  The objective and the coupled rows are bit for bit, blocks
    # padded to 9 or not.
    problem, topology, weights = make(seed)
    # Objective constants too, which the generators leave at 0.
    problem = cs.ProblemSpec(tuple(cs.AgentObjective(obj.hessian, obj.linear, 0.25 * i)
                                   for i, obj in enumerate(problem.objectives)),
                             problem.constraints, problem.graph)
    batch = AgentBatch(problem, topology, weights)
    layout, points = _points(topology, seed)
    warm = WarmStart(batch)
    for flat in points:
        z = warm.solve_stacked(batch.offsets(flat))
        solutions = fresh_solutions(problem, topology, weights, flat)
        primal = np.concatenate([sol.x for sol in solutions])
        assert np.array_equal(batch.primal(z), primal)
        mults = stacked_multipliers(solutions, topology)
        assert np.array_equal(batch.multipliers(z), mults)
        for a, (qp, ref) in enumerate(zip(_qps(topology, batch), solutions)):
            assert np.array_equal(z[a], _row(qp, ref))
            assert np.flatnonzero(warm.work[a]).tolist() == list(_working(qp, ref))

        assert _close(batch.objective(z), total_objective(problem, solutions))
        # objective_value's bits, whether z is row-major or agent-contiguous.
        assert (batch.objective(np.ascontiguousarray(z)) == batch.objective(np.asfortranarray(z))
                == cs.objective_value(problem, primal))
        for got, ref in zip(batch.residuals(z), aggregate_violation(problem, primal)):
            assert got.shape == ref.shape and np.array_equal(got, ref)
        assert batch.violation(z) == cs.max_violation(problem, primal)
        dense = [np.linalg.norm(weights[l].gap @ mults[layout.block(l)])
                 if members else 0.0
                 for l, members in zip(layout.constraints, layout.participants)]
        assert _close(batch.dual_errors(batch.gradient(batch.multipliers(z))), dense)


STACKED = ([(strongly_convex_instance, seed) for seed in (1, 3, 10, 22)]
           + [(mixed_dims_instance, seed) for seed in (0, 3)] + [(reduced_space_instance, 0)])


@pytest.mark.parametrize("make, seed", STACKED,
                         ids=[f"{make.__name__.split('_')[0]}{seed}" for make, seed in STACKED])
def test_stacked_residuals_and_violation_equal_per_solution_calls(make, seed):
    # Solutions stacked ahead of the agent axis, as the safety filter checks a
    # step's inner iterates: each solution's rows are summed in bins of their
    # own, so every answer has the bits of that solution's own call.  The
    # seeds have equality rows; sc10 and sc22 have agents without rows, the
    # mixed-dims seeds blocks of 2 to 9 columns padded to 9.
    problem, topology, weights = make(seed)
    batch = AgentBatch(problem, topology, weights)
    _, points = _points(topology, seed, count=4)
    warm = WarmStart(batch)
    solved = np.stack([warm.solve_stacked(batch.offsets(flat)) for flat in points])
    # Off the solutions too, where rows are violated; zero beyond each block.
    shape = (2,) + solved.shape
    off = np.random.default_rng(seed).normal(size=shape)
    off[..., :batch.shape[0]] *= batch.x_mask
    for stacked in (solved, solved.reshape((2, 2) + solved.shape[1:]), off,
                    off[..., :batch.shape[0]]):
        ineq, eq = batch.residuals(stacked)
        worst = batch.violation(stacked)
        lead = stacked.shape[:-2]
        assert ineq.shape == lead + (topology.m_ineq,)
        assert eq.shape == lead + (topology.n_constraints - topology.m_ineq,)
        assert worst[0].shape == worst[1].shape == lead
        for index in np.ndindex(lead):
            alone = batch.residuals(stacked[index])
            assert ineq[index].tobytes() == alone[0].tobytes()
            assert eq[index].tobytes() == alone[1].tobytes()
            assert [float(w[index]).hex() for w in worst] == [
                w.hex() for w in batch.violation(stacked[index])]


def test_unbounded_agent_keeps_its_diagnosis():
    # No row pins the flat direction of agent 1: the batch hands it to the
    # loop, which names the missing curvature.
    obj = cs.AgentObjective(np.diag([1.0, 0.0]), np.array([0.0, -1.0]))
    cons = cs.CouplingConstraints(2, m_ineq=1, q_eq=0)
    cons.add_ineq_row(1, 1, [1.0, 0.0], -1.0)
    cons.add_ineq_row(2, 1, [1.0, 0.0], -1.0)
    graph = cs.Graph.from_edges(2, [(1, 2)])
    problem = cs.ProblemSpec((obj, obj), cons, graph)
    topology = cs.induce_topology(problem, graph)
    weights = cs.build_weights(topology)
    state = cs.SlackState.zeros(cs.SlackLayout.from_topology(topology))
    warm = WarmStart(AgentBatch(problem, topology, weights))
    with pytest.raises(cs.UnboundedSubproblemError):
        warm.solve_stacked(warm.batch.offsets(state.values))


def _refreshed_filter():
    """The safety filter's batch compiled at the start and refreshed at a moved state.

    Returns the batch and the (problem, topology, weights) it now holds.
    """
    scenario, graph, state = cs.line_consensus_scenario()
    rows = cbf._FilterRows(scenario, graph, state.n_agents)
    problem = cbf.assemble_step_problem(state, scenario, graph)
    topology = cs.induce_topology(problem, graph)
    weights = cs.build_weights(topology)
    batch = AgentBatch(problem, topology, weights)
    moved = cs.MultiAgentState(0.5, state.positions
                               + np.random.default_rng(5).normal(scale=0.5, size=(7, 2)))
    step = rows.at(moved)
    batch.refresh(step.linear, step.constant, step.coeffs[rows.order], step.offsets[rows.order])
    return batch, (cbf.assemble_step_problem(moved, scenario, graph), topology, weights)


def _compiled(make, *args):
    instance = make(*args)
    return AgentBatch(*instance), instance


COMPILED = ([partial(_compiled, make, seed) for make, seed in FAMILIES]
            + [partial(_compiled, failing_instance), partial(_compiled, benchmark_ring),
               _refreshed_filter, partial(_compiled, lazy_weights_instance, 3)])
COMPILED_IDS = IDS + ["failing", "ring400", "filter", "lazy3"]


def _oracle_batch(make, seed):
    """The one-row batch in which the oracle's dense path solves ``make(seed)``'s stacked program."""
    built = []

    def recording(*args):
        built.append(AgentBatch(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "AgentBatch", recording)
        oracle._dense_solve(make(seed)[0])
    return built[0], None


SET_TABLES = (COMPILED + [partial(_oracle_batch, reduced_space_instance, seed) for seed in range(12)]
              + [partial(_oracle_batch, psd_benchmark_ring, seed) for seed in (1, 2, 3)])
SET_TABLE_IDS = (COMPILED_IDS + [f"oracle-rs{seed}" for seed in range(12)]
                 + [f"oracle-psd{seed}" for seed in (1, 2, 3)])


@pytest.mark.parametrize("build", SET_TABLES, ids=SET_TABLE_IDS)
def test_set_table_matches_the_per_pair_reference(build):
    # Cold sets, every single add from them, seeded random sets and every
    # single add and drop from those: ids follow first use, as the reference
    # numbers its (agent, working) keys, and every map and mask is the
    # per-pair reference's bit for bit.
    batch = build()[0]
    width, n_ineq = batch.shape[1], batch.counts[:, 1]
    table = _SetTable(batch)
    known = {}  # (agent, working) -> id, in order of first use

    def check(got, keys):
        for key in keys:
            known.setdefault(key, len(known))
        assert got.tolist() == [known[key] for key in keys]
        return got

    def every_move(ids):
        keys = set_keys(table)
        pairs = [(sid, r + width * (r in keys[sid][1])) for sid in ids.tolist()
                 for r in range(n_ineq[keys[sid][0]])]
        sids, moves = np.array(pairs, dtype=int).reshape(-1, 2).T
        check(table.moved(sids, moves), scalar_moved(keys, width, sids, moves))

    agents = np.arange(batch.n_agents)
    every_move(check(table.ids_of(agents), [(a, ()) for a in agents.tolist()]))
    rng = np.random.default_rng(batch.n_agents * width)
    working = [tuple(np.flatnonzero(rng.random(k) < 0.4).tolist()) for k in n_ineq]
    every_move(check(table.ids_of(agents, work_of(working, width)),
                     list(zip(agents.tolist(), working))))

    assert set_keys(table) == list(known)
    expected = scalar_factors(batch.hessian, batch.linear, batch.rows, batch.counts, list(known))
    for name, want in zip(("m", "s", "kkt", "work", "free", "ready"), expected):
        assert getattr(table, name)[:table.size].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("build", COMPILED, ids=COMPILED_IDS)
def test_transport_permits_exactly_the_batch_reads(build):
    # The transport's permitted pairs and the batch's read pass come from
    # the same hops: a strict run can raise on no read the batch makes.
    batch, (_, topology, _) = build()
    size = topology.layout.size
    assert np.array_equal(Neighborhoods(topology).codes[:-1],
                          np.unique(batch.readers * size + batch.flat))


@pytest.mark.parametrize("build", COMPILED, ids=COMPILED_IDS)
def test_probed_offsets_are_the_offsets_at_the_probed_vector(build):
    # Half the probes move a coordinate the agent reads, half any agent's
    # and any coordinate; each row equals offsets at its probed vector.
    batch, (_, topology, _) = build()
    size = topology.layout.size
    rng = np.random.default_rng(size)
    values = rng.uniform(-2.0, 2.0, size)
    reads = rng.integers(0, len(batch.flat), 30)
    agents = np.concatenate([batch.readers[reads], rng.integers(0, batch.n_agents, 30)])
    coords = np.concatenate([batch.flat[reads], rng.integers(0, size, 30)])
    probes = rng.uniform(-2.0, 2.0, 60)
    expected = []
    for a, k, v in zip(agents, coords, probes):
        point = values.copy()
        point[k] = v
        expected.append(batch.offsets(point)[a])
    got = batch.probed_offsets(values, agents, coords, probes)
    assert got.tobytes() == np.array(expected).tobytes()
    assert batch.probed_offsets(values, [], [], []).shape == (0, batch.shape[1])


@pytest.mark.parametrize("build", COMPILED, ids=COMPILED_IDS)
def test_compiled_arrays_are_the_problem_and_the_weights(build):
    # Entry by entry from the ProblemSpec and the weights, each checked entry
    # then cleared: what is left is padding and must be zero.
    batch, (problem, topology, weights) = build()
    cons = problem.constraints
    constraints = [topology.constraints_of(i) for i in range(1, problem.n_agents + 1)]
    neighbours = {(l, i): [j for j in topology.neighborhood(l, i) if j != i]
                  for i, ls in enumerate(constraints, start=1) for l in ls}
    assert batch.shape == (max(problem.dims), max(map(len, constraints)),
                           max(map(len, neighbours.values()), default=0))
    layout = cs.SlackLayout.from_topology(topology)
    width = batch.shape[1]
    left = {name: getattr(batch, name).copy()
            for name in ("hessian", "linear", "constant", "rows", "base", "p")}
    cells, coords, rows_of = [], [], []
    for a, (obj, ls) in enumerate(zip(problem.objectives, constraints)):
        i, d = a + 1, obj.dim
        for name, got, want in (("hessian", left["hessian"][a, :d, :d], obj.hessian),
                                ("linear", left["linear"][a, :d], obj.linear),
                                ("constant", left["constant"][a:a + 1], [obj.constant])):
            assert np.array_equal(got, want), (name, a)
            got[...] = 0.0
        assert batch.counts[a].tolist() == [d, sum(l <= cons.m_ineq for l in ls), len(ls)]
        for r, l in enumerate(ls):
            coeffs, offset = stored_row(cons, i, l)
            assert np.array_equal(left["rows"][a, r, :d], coeffs), (a, r)
            assert left["base"][a, r] == offset, (a, r)
            left["rows"][a, r, :d] = left["base"][a, r] = 0.0
            for k, j in enumerate(neighbours[l, i]):  # consensus_gap's order
                assert left["p"][a, r, k] == weights[l].weight(i, j), (a, r, k)
                left["p"][a, r, k] = 0.0
            cells.append(a * width + r)
            coords.append(layout.index(l, i))
            rows_of.append(l - 1)
    for name, rest in left.items():
        assert not rest.any(), name
    for name, want in (("cells", cells), ("coords", coords), ("constraint", rows_of)):
        assert getattr(batch, name).tolist() == want, name
    assert batch.licq() == cs.validate_licq(problem)


def test_each_entry_point_compiles_one_batch(monkeypatch):
    built = []
    init = AgentBatch.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(AgentBatch, "__init__", counted)
    ada, pgd = strongly_convex_instance(0), reduced_space_instance(0)
    slack = cs.SlackState.zeros(cs.SlackLayout.from_topology(pgd[1]))
    line = {solver: cs.line_consensus_scenario(horizon=0.03, solver=solver)
            for solver in cbf.SOLVERS}
    calls = {
        "run-ada": lambda: cs.run(*ada, cs.AdaConfig(0.01, 3)),
        "run-pgd": lambda: cs.run(*pgd, cs.PgdConfig(5.0, 5.0, 3)),
        "closed-loop-distributed": lambda: cs.run_closed_loop(*line["distributed"]),
        "closed-loop-centralized": lambda: cs.run_closed_loop(*line["centralized"]),
        "gradient-bound": lambda: cs.estimate_gradient_bound(*pgd, 1.0),
        "finite-difference": lambda: cs.finite_difference_gradient(slack, *pgd),
    }
    for name, call in calls.items():
        del built[:]
        call()
        assert len(built) == 1, name
