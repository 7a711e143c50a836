import numpy as np
import pytest

import couplesolve as cs
from couplesolve import simnet
from couplesolve.exceptions import LocalityViolationError
from couplesolve.algorithms import iterate_rounds
from couplesolve.local_qp import AgentBatch, WarmStart
from couplesolve.trace import RunTrace, traces_equal

from gen import strongly_convex_instance


def test_exchange_counts_messages(toy):
    _, topology, _ = toy
    transport = cs.SimnetTransport(topology)
    views = transport.gather(cs.Phase.SLACK_EXCHANGE, [2.0, 0.0])
    assert transport.messages == 2  # one edge, both directions
    assert views[0][(1, 2)] == 0.0
    assert views[1][(1, 1)] == 2.0


def test_strict_view_raises_outside_neighborhood(path4):
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(4, m_ineq=1, q_eq=0)
    for i in range(1, 5):
        cons.add_ineq_row(i, 1, [1.0], 0.0)
    problem = cs.ProblemSpec((obj,) * 4, cons, path4)
    topology = cs.induce_topology(problem, path4)
    views = cs.SimnetTransport(topology).gather(cs.Phase.SLACK_EXCHANGE, [0.1, 0.2, 0.3, 0.4])
    assert views[0][(1, 2)] == 0.2
    assert (1, 4) not in views[0]
    # agents 1 and 4 are not adjacent on the path: a locality error, not a KeyError
    with pytest.raises(LocalityViolationError, match="agent 1 read constraint 1") as caught:
        views[0][(1, 4)]
    assert not isinstance(caught.value, KeyError)


def test_audit_mode_serves_and_records(path4):
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(4, m_ineq=1, q_eq=0)
    for i in range(1, 5):
        cons.add_ineq_row(i, 1, [1.0], 0.0)
    problem = cs.ProblemSpec((obj,) * 4, cons, path4)
    topology = cs.induce_topology(problem, path4)
    views = cs.SimnetTransport(topology, audit=True).gather(cs.Phase.SLACK_EXCHANGE,
                                                            [0.1, 0.2, 0.3, 0.4])
    assert views[0][(1, 4)] == 0.4  # served, not raised
    auditor = views.auditor
    assert not auditor.ok
    assert auditor.violations == [(1, 1, 4)]


def test_gathered_views_read_values_bitwise(toy):
    _, topology, _ = toy
    layout = cs.SlackLayout.from_topology(topology)
    values = [0.12345678901234567, -3.2109876543210987]
    views = cs.SimnetTransport(topology).gather(cs.Phase.SLACK_EXCHANGE, values)
    for view in views:
        assert sorted(view) == [(1, 1), (1, 2)]  # the whole closed neighbourhood
        for (l, j), value in view.items():
            assert value.hex() == values[layout.index(l, j)].hex()


def test_algorithm_runs_bit_identical_across_transports(toy):
    problem, topology, weights = toy
    config = cs.AdaConfig(gamma=0.25, rounds=15)
    res_direct = cs.run(problem, topology, weights, config,
                        transport="direct")
    res_simnet = cs.run(problem, topology, weights, config,
                        transport="simnet")
    assert len(res_direct.trace) == len(res_simnet.trace)
    n = res_direct.trace.n_constraints
    for a, b in zip(res_direct.trace.records, res_simnet.trace.records):
        assert traces_equal(RunTrace(n, (a,)), RunTrace(n, (b,)))  # exact, NaN-aware
    assert res_direct.messages == res_simnet.messages


def test_run_rejects_an_unknown_transport(toy):
    problem, topology, weights = toy
    with pytest.raises(cs.ValidationError, match="bogus"):
        cs.run(problem, topology, weights, cs.AdaConfig(gamma=0.25, rounds=1),
               transport="bogus")


def test_run_rejects_a_transport_over_another_topology():
    problem, topology, weights = strongly_convex_instance(0)
    other = strongly_convex_instance(3)[1]
    assert other != topology
    with pytest.raises(cs.ValidationError, match="another topology"):
        cs.run(problem, topology, weights, cs.AdaConfig(gamma=0.01, rounds=1),
               transport=cs.SimnetTransport(other))


def test_run_without_a_hook_builds_no_per_agent_view(toy, monkeypatch):
    problem, topology, weights = toy
    built = []
    init = simnet.NeighborView.__init__

    def spy(self, exchange, agent):
        built.append(agent)
        init(self, exchange, agent)

    monkeypatch.setattr(simnet.NeighborView, "__init__", spy)
    transport = cs.SimnetTransport(topology)
    cs.run(problem, topology, weights, cs.AdaConfig(gamma=0.25, rounds=3),
           transport=transport)
    assert transport.messages == 3 * 2 * transport.messages_per_phase
    assert built == []
    # A hook that reads agent 2's view builds that view only.
    cs.run(problem, topology, weights, cs.AdaConfig(gamma=0.25, rounds=3),
           slack_phase_hook=lambda views, t: views[1][(1, 1)])
    assert built == [2, 2, 2]


class DroppingTransport(cs.SimnetTransport):
    """Leaves agent 1's permitted read of agent 2 out of one phase's views."""

    def __init__(self, topology, dropped, audit=False):
        super().__init__(topology, audit=audit)
        self.dropped = dropped

    def gather(self, phase, values):
        views = super().gather(phase, values)
        if phase is self.dropped:
            del views[0][(1, 2)]
        return views


@pytest.mark.parametrize("dropped", list(cs.Phase), ids=lambda p: p.value)
def test_audited_run_records_withheld_reads_and_serves_them(toy, dropped):
    problem, topology, weights = toy
    config = cs.AdaConfig(gamma=0.25, rounds=4)
    strict = cs.run(problem, topology, weights, config)
    transport = DroppingTransport(topology, dropped, audit=True)
    audited = cs.run(problem, topology, weights, config, transport=transport)
    # Agent 1 reads agent 2's value of constraint 1 once per phase.
    assert transport.auditor.violations == [(1, 1, 2)] * config.rounds
    assert traces_equal(strict.trace, audited.trace)
    assert np.array_equal(strict.output_primal, audited.output_primal)


def _wide_batch_on_a_path(path4):
    """A batch compiled over the complete graph's topology, that topology
    and the path's, for one row shared by 4 agents."""
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(4, m_ineq=1, q_eq=0)
    for i in range(1, 5):
        cons.add_ineq_row(i, 1, [1.0], -0.25)
    complete = cs.Graph.from_edges(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    problem = cs.ProblemSpec((obj,) * 4, cons, complete)
    wide = cs.induce_topology(problem, complete)
    return AgentBatch(problem, wide, cs.build_weights(wide)), wide, cs.induce_topology(
        problem, path4)


def test_batch_over_a_wider_topology_reads_outside_a_narrower_transport(path4):
    batch, wide, narrow = _wide_batch_on_a_path(path4)
    flat = [0.1, 0.2, 0.3, 0.4]
    transport = cs.SimnetTransport(narrow)
    # Compiling the pass raises nothing; serving a phase through it raises.
    reads = simnet.ReadPass(transport.neighborhoods, batch.readers, batch.flat)
    views = transport.gather(cs.Phase.SLACK_EXCHANGE, flat)
    # Agent 1 reads agents 2, 3 and 4 on the complete graph; only 2 is its
    # neighbour on the path.
    with pytest.raises(LocalityViolationError,
                       match="agent 1 read constraint 1 value of agent 3 outside"):
        views.serve(reads)
    transport = cs.SimnetTransport(wide)
    views = transport.gather(cs.Phase.SLACK_EXCHANGE, flat)
    reads = simnet.ReadPass(transport.neighborhoods, batch.readers, batch.flat)
    assert np.array_equal(batch.offsets(views.serve(reads)), batch.offsets(np.array(flat)))


def test_rounds_of_a_wider_batch_raise_at_the_first_phase(path4):
    batch, _, narrow = _wide_batch_on_a_path(path4)
    phases = []

    class Counting(cs.SimnetTransport):
        def gather(self, phase, values):
            phases.append(phase)
            return super().gather(phase, values)

    state = cs.AdaState(np.zeros(batch.size), np.zeros(batch.size), np.zeros(batch.size), 0)
    with pytest.raises(LocalityViolationError,
                       match="agent 1 read constraint 1 value of agent 3 outside"):
        list(iterate_rounds(WarmStart(batch), cs.AdaConfig(0.1, 3), state, Counting(narrow)))
    assert phases == [cs.Phase.SLACK_EXCHANGE]


def test_audited_rounds_of_a_wider_batch_record_each_phase_in_read_order(path4):
    batch, wide, narrow = _wide_batch_on_a_path(path4)
    recorded = []  # the auditor's records at each gather, then at the end

    class Snapshotting(cs.SimnetTransport):
        def gather(self, phase, values):
            recorded.append(len(self.auditor.violations))
            return super().gather(phase, values)

    transport = Snapshotting(narrow, audit=True)
    state = cs.AdaState(np.zeros(batch.size), np.zeros(batch.size), np.zeros(batch.size), 0)
    rounds = list(iterate_rounds(WarmStart(batch), cs.AdaConfig(0.1, 3), state, transport))
    assert len(rounds) == 3
    recorded.append(len(transport.auditor.violations))
    # Per phase, every read outside the path in read order: agent by agent,
    # each agent's own value first, then its neighbours' ascending.
    per_phase = [(1, 1, 3), (1, 1, 4), (2, 1, 4), (3, 1, 1), (4, 1, 1), (4, 1, 2)]
    assert recorded == [6 * k for k in range(7)]
    assert transport.auditor.violations == per_phase * 6
    # The audited reads are served: the rounds equal a strict run on the batch's own topology.
    strict = list(iterate_rounds(WarmStart(batch), cs.AdaConfig(0.1, 3), state,
                                 cs.SimnetTransport(wide)))
    for (a, z_a, g_a), (b, z_b, g_b) in zip(rounds, strict):
        assert np.array_equal(z_a, z_b) and np.array_equal(g_a, g_b)
        assert np.array_equal(a.average, b.average)


def test_a_read_pass_refuses_another_transports_exchange(toy):
    _, topology, _ = toy
    batch = AgentBatch(*toy)
    reads = simnet.ReadPass(cs.SimnetTransport(topology).neighborhoods, batch.readers,
                            batch.flat)
    views = cs.SimnetTransport(topology).gather(cs.Phase.SLACK_EXCHANGE, [2.0, 0.0])
    with pytest.raises(cs.ValidationError, match="other neighborhoods than the exchange's"):
        views.serve(reads)


def test_a_reused_transport_reports_each_runs_own_messages(toy):
    problem, topology, weights = toy
    config = cs.AdaConfig(0.25, 3)
    transport = cs.SimnetTransport(topology)
    first = cs.run(problem, topology, weights, config, transport=transport)
    second = cs.run(problem, topology, weights, config, transport=transport)
    assert first.messages == second.messages == 12
    assert second.messages == second.trace.records[-1].msgs
    assert transport.messages == 24


@pytest.mark.parametrize("dropped", list(cs.Phase), ids=lambda p: p.value)
def test_run_reads_offsets_and_gradient_only_through_the_views(toy, dropped):
    problem, topology, weights = toy
    with pytest.raises(LocalityViolationError, match="agent 1 read constraint 1"):
        cs.run(problem, topology, weights, cs.AdaConfig(gamma=0.25, rounds=2),
               transport=DroppingTransport(topology, dropped))


@pytest.mark.parametrize("seed", range(5))
def test_audited_run_is_bit_identical_to_strict(seed):
    problem, topology, weights = strongly_convex_instance(seed)
    gamma = 1.0 / (2.0 * cs.lipschitz_bound(problem, topology, weights))
    config = cs.AdaConfig(gamma, 15)
    strict = cs.run(problem, topology, weights, config)
    transport = cs.SimnetTransport(topology, audit=True)
    audited = cs.run(problem, topology, weights, config, transport=transport)
    assert transport.auditor.ok
    assert traces_equal(strict.trace, audited.trace)
    assert np.array_equal(strict.output_primal, audited.output_primal)
    assert strict.messages == audited.messages


def test_locality_audit_clean_run(toy):
    problem, topology, weights = toy
    assert cs.locality_audit(problem, topology, weights,
                             cs.AdaConfig(gamma=0.25, rounds=5))


def test_locality_audit_catches_injected_fault(path4):
    obj = cs.AgentObjective(np.eye(1), np.zeros(1))
    cons = cs.CouplingConstraints(4, m_ineq=1, q_eq=0)
    for i in range(1, 5):
        cons.add_ineq_row(i, 1, [1.0], -0.25)
    problem = cs.ProblemSpec((obj,) * 4, cons, path4)
    topology = cs.induce_topology(problem, path4)
    weights = cs.build_weights(topology)

    def probe(views, round_index):
        if round_index == 2:
            views[0][(1, 4)]  # agent 1 peeks at agent 4 across the path

    assert not cs.locality_audit(problem, topology, weights,
                                 cs.AdaConfig(gamma=0.1, rounds=3),
                                 probe=probe)
    # and the same replay without the probe is clean
    assert cs.locality_audit(problem, topology, weights,
                             cs.AdaConfig(gamma=0.1, rounds=3))
