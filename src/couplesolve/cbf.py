"""Closed-loop multi-agent safety filter built on the distributed solver.

Single-integrator agents z_i' = x_i run a consensus controller
x_nom,i = sum_{j ~ i} (z_j - z_i).  Safety is encoded by barrier functions

    g(z) = radius^2 - sum_{i in participants} ||z_i - center||^2  >= 0,

one per protected region.  At every sampling instant the applied inputs are
the minimizers of sum_i 1/2 ||x_i - x_nom,i||^2 subject to the barrier
decrease conditions  d/dt g >= -alpha(g), which split into per-agent rows

    2 (z_i - center)' x_i  +  (||z_i - center||^2 - radius^2 / n_g)  <= 0

(identity alpha; n_g = number of participants), i.e. exactly the coupled
problem shape this package solves.  The filter QP is re-solved each step,
either centrally or by a fixed number of distributed rounds with the slack
allocation reset to zero; every inner iterate already satisfies the coupled
rows, so even a truncated inner loop never applies an unsafe input.

The rows are the continuous-time decrease condition, so under the sampled
Euler step the barrier obeys only  g[k+1] >= (1 - dt) g[k] - dt^2 sum_i ||u_i||^2
and can settle below 0 by O(dt^2 ||u||^2): the exact (centralized) filter on
``line_consensus_scenario()`` ends at g1(20 s) = -1.1e-6, every row satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import AdaConfig, AdaState, iterate_rounds
from .exceptions import RankDeficiencyError, ValidationError
from .graph import Graph, build_weights, induce_topology
from .local_qp import AgentBatch, WarmStart
from .oracle import solve_centralized
from .problem import (
    AgentObjective,
    CouplingConstraints,
    ProblemSpec,
    max_violation,
    validate_licq,
)
from .simnet import SimnetTransport
from .slack import SlackLayout


@dataclass(frozen=True)
class MultiAgentState:
    """Planar positions of all agents at one instant."""

    time: float
    positions: np.ndarray  # (n, 2)

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValidationError(f"positions must be (n, 2), got {p.shape}")
        object.__setattr__(self, "positions", p)

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class Barrier:
    """Disk-sum barrier: radius_sq - sum_i ||z_i - center||^2 >= 0."""

    center: tuple[float, float]
    radius_sq: float
    agents: tuple[int, ...]

    def value(self, positions: np.ndarray) -> float:
        deltas = positions[[i - 1 for i in self.agents]] - np.asarray(self.center)
        return float(self.radius_sq - np.sum(deltas * deltas))


SOLVERS = ("distributed", "centralized")


@dataclass(frozen=True)
class CbfScenario:
    barriers: tuple[Barrier, ...]
    dt: float = 0.01
    horizon: float = 20.0
    inner_iterations: int = 10
    gamma: float = 0.01
    solver: str = "distributed"
    warm_start: bool = False
    alpha: object = None  # optional scalar hook applied to the barrier value

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise ValidationError("dt and horizon must be positive")
        if self.inner_iterations < 1:
            raise ValidationError("inner_iterations must be >= 1")
        if self.solver not in SOLVERS:
            raise ValidationError(f"unknown solver '{self.solver}'")


def line_consensus_scenario(**overrides) -> tuple[CbfScenario, Graph, MultiAgentState]:
    """Seven agents on a line graph with two overlapping protected disks."""
    scenario = CbfScenario(
        barriers=(
            Barrier((0.0, 0.0), 4.0, (1, 2, 3, 4)),
            Barrier((2.0, 2.0), 16.0, (4, 5, 6, 7)),
        ),
        **overrides,
    )
    graph = Graph.from_edges(7, [(i, i + 1) for i in range(1, 7)])
    return scenario, graph, initial_state()


def initial_state(n: int = 7) -> MultiAgentState:
    """Agents spread on a circle of radius 2 centered at (2, 1)."""
    idx = np.arange(1, n + 1)
    pos = np.stack([
        2.0 * np.cos(2.0 * np.pi * idx / n) + 2.0,
        2.0 * np.sin(2.0 * np.pi * idx / n) + 1.0,
    ], axis=1)
    return MultiAgentState(0.0, pos)


def nominal_consensus(state: MultiAgentState, graph: Graph) -> np.ndarray:
    """Consensus inputs: each agent steers toward its neighbors' positions."""
    out = np.zeros_like(state.positions)
    for i in range(1, graph.n_agents + 1):
        for j in graph.neighborhood(i):
            if j != i:
                out[i - 1] += state.positions[j - 1] - state.positions[i - 1]
    return out


def assemble_step_problem(state: MultiAgentState, scenario: CbfScenario,
                          graph: Graph) -> ProblemSpec:
    """The safety-filter QP at the current positions."""
    nominal = nominal_consensus(state, graph)
    objectives = tuple(
        AgentObjective(np.eye(2), -nominal[i], 0.5 * float(nominal[i] @ nominal[i]))
        for i in range(graph.n_agents)
    )
    cons = CouplingConstraints(graph.n_agents, m_ineq=len(scenario.barriers), q_eq=0)
    for m, barrier in enumerate(scenario.barriers, start=1):
        n_g = len(barrier.agents)
        if scenario.alpha is not None:
            # Custom decrease rates need the barrier value, so the offsets are
            # an even split of -alpha(g); the default identity alpha admits
            # the purely local split below.
            decrease = float(scenario.alpha(barrier.value(state.positions)))
        for i in barrier.agents:
            delta = state.positions[i - 1] - np.asarray(barrier.center)
            if scenario.alpha is None:
                offset = float(delta @ delta) - barrier.radius_sq / n_g
            else:
                offset = -decrease / n_g
            cons.add_ineq_row(i, m, 2.0 * delta, offset)
    return ProblemSpec(objectives, cons, graph)


def euler_step(state: MultiAgentState, inputs: np.ndarray, dt: float) -> MultiAgentState:
    return MultiAgentState(state.time + dt, state.positions + dt * inputs)


@dataclass
class ClosedLoopResult:
    times: np.ndarray            # (S+1,)
    positions: np.ndarray        # (S+1, n, 2)
    barrier_values: np.ndarray   # (S+1, K)
    inputs: np.ndarray           # (S, n, 2)
    inner_worst_violation: np.ndarray    # (S,) worst coupled residual over inner iterates
    applied_worst_violation: np.ndarray  # (S,) coupled residual of the applied input
    scenario: CbfScenario = field(repr=False, default=None)

    def max_pairwise_distance(self, step: int = -1) -> float:
        pos = self.positions[step]
        diffs = pos[:, None, :] - pos[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def run_closed_loop(scenario: CbfScenario, graph: Graph,
                    state: MultiAgentState) -> ClosedLoopResult:
    """Simulate the sampled closed loop over the scenario horizon.

    The constraint topology is fixed (participants never change), so the
    induced subgraphs and weights are computed once; per step only the row
    coefficients and offsets are refreshed.  Inner rounds exchange over one
    strict ``SimnetTransport``, so agents read one-hop values only.  Aborts
    with a diagnostic when an agent's barrier rows become linearly dependent
    (LICQ failure, e.g. an agent exactly at a barrier center or two barrier
    gradients aligned).
    """
    steps = int(round(scenario.horizon / scenario.dt))
    n, k = graph.n_agents, len(scenario.barriers)

    times = np.zeros(steps + 1)
    positions = np.zeros((steps + 1, n, 2))
    barrier_values = np.zeros((steps + 1, k))
    inputs = np.zeros((steps, n, 2))
    inner_worst = np.zeros(steps)
    applied_worst = np.zeros(steps)

    problem = assemble_step_problem(state, scenario, graph)
    topology = induce_topology(problem, graph)
    weights = build_weights(topology)
    layout = SlackLayout.from_topology(topology)
    transport = SimnetTransport(topology)
    config = AdaConfig(scenario.gamma, scenario.inner_iterations)
    slack = np.zeros(layout.size)
    # Working sets carry over from step to step; factors are per step problem.
    rounds = final = None

    for s in range(steps):
        times[s] = state.time
        positions[s] = state.positions
        barrier_values[s] = [b.value(state.positions) for b in scenario.barriers]

        problem = assemble_step_problem(state, scenario, graph)
        licq = validate_licq(problem)
        if not licq.all_full_rank:
            raise RankDeficiencyError(
                f"step {s} (t={state.time:.3f}): agents {licq.failures()} have "
                "linearly dependent barrier rows; the sampled problem is "
                "degenerate at this state"
            )

        if scenario.solver == "centralized":
            sol = solve_centralized(problem)
            u = sol.x.reshape(n, 2)
            inner_worst[s] = 0.0
        else:
            # Truncated averaging rounds; the input is the primal at the average.
            start = slack if scenario.warm_start else np.zeros(layout.size)
            inner = AdaState(start, np.zeros(layout.size), np.zeros(layout.size), 0)
            batch = AgentBatch(problem, topology, weights)
            rounds = WarmStart(batch, rounds.working if rounds else None)
            final = WarmStart(batch, final.working if final else None)
            worst = 0.0
            for inner, z, _ in iterate_rounds(
                    problem, topology, weights, config, inner, transport, warm=rounds):
                worst = max(worst, batch.violation(z)[0])
            slack = inner.average
            u = batch.primal(final.solve_stacked(batch.offsets(slack))).reshape(n, 2)
            inner_worst[s] = worst

        applied_worst[s], _ = max_violation(problem, u.reshape(-1))
        inputs[s] = u
        state = euler_step(state, u, scenario.dt)

    times[steps] = state.time
    positions[steps] = state.positions
    barrier_values[steps] = [b.value(state.positions) for b in scenario.barriers]
    return ClosedLoopResult(times, positions, barrier_values, inputs,
                            inner_worst, applied_worst, scenario)
