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
rows, so even a truncated inner loop never applies an unsafe input.  The
filter QP has one builder, ``_FilterRows``, which computes each state's
parameters in one array pass.  From step to step only the nominal inputs
and the rows move, so the filter compiles its ``AgentBatch`` once and
refreshes it in place.

The rows are the continuous-time decrease condition, so under the sampled
Euler step the barrier obeys only  g[k+1] >= (1 - dt) g[k] - dt^2 sum_i ||u_i||^2
and can settle below 0 by O(dt^2 ||u||^2): the exact (centralized) filter on
``line_consensus_scenario()`` ends at g1(20 s) = -1.1e-6, every row satisfied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algorithms import AdaConfig, AdaState, _positive, iterate_rounds
from .exceptions import RankDeficiencyError, ValidationError
from .graph import Graph, build_weights, induce_topology
from .local_qp import AgentBatch, WarmStart
from .oracle import solve_centralized
from .problem import AgentObjective, CouplingConstraints, ProblemSpec, _integer, validate_licq
from .simnet import SimnetTransport


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
    """Disk-sum barrier: radius_sq - sum_i ||z_i - center||^2 >= 0.

    Raises ValidationError unless the center is two finite numbers,
    ``radius_sq`` a finite number > 0 and ``agents`` a non-empty tuple of
    distinct agent numbers, each at least 1.
    """

    center: tuple[float, float]
    radius_sq: float
    agents: tuple[int, ...]

    def __post_init__(self):
        try:
            center = np.asarray(self.center, dtype=float)
        except (TypeError, ValueError):
            center = None
        if center is None or center.shape != (2,) or not np.isfinite(center).all():
            raise ValidationError(f"barrier center must be two finite numbers, got {self.center!r}")
        if not _positive(self.radius_sq):
            raise ValidationError(
                f"barrier radius_sq must be a finite number > 0, got {self.radius_sq!r}")
        agents = tuple(self.agents)
        if (not agents or len(set(agents)) != len(agents) or not all(map(_integer, agents))
                or min(agents) < 1):
            raise ValidationError(
                f"barrier agents must be distinct agent numbers, at least one, got {self.agents!r}")

    def value(self, positions: np.ndarray) -> float:
        deltas = positions[[i - 1 for i in self.agents]] - np.asarray(self.center)
        return float(self.radius_sq - np.sum(deltas * deltas))


SOLVERS = ("distributed", "centralized")


@dataclass(frozen=True)
class CbfScenario:
    """The filter's barriers and how the loop runs.

    Raises ValidationError, naming the field, unless ``dt``, ``horizon`` and
    ``gamma`` are finite numbers > 0, the horizon spans a finite number of
    steps, at least one (``steps`` >= 1), ``inner_iterations`` is an integer >= 1 and ``solver``
    one of ``SOLVERS``.
    """

    barriers: tuple[Barrier, ...]
    dt: float = 0.01
    horizon: float = 20.0
    inner_iterations: int = 10
    gamma: float = 0.01
    solver: str = "distributed"
    warm_start: bool = False
    alpha: object = None  # optional scalar hook applied to the barrier value

    @property
    def steps(self) -> int:
        """Control steps in the horizon: horizon / dt, rounded."""
        return int(round(self.horizon / self.dt))

    def __post_init__(self):
        for name in ("dt", "horizon", "gamma"):
            value = getattr(self, name)
            if not _positive(value):
                raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")
        if not math.isfinite(self.horizon / self.dt):
            raise ValidationError(f"horizon / dt must be finite, got {self.horizon!r} / "
                                  f"{self.dt!r}")
        if self.steps < 1:
            raise ValidationError(f"horizon must span at least one step of dt={self.dt!r}, "
                                  f"got {self.horizon!r}")
        inner = self.inner_iterations
        if not (_integer(inner) and inner >= 1):
            raise ValidationError(f"inner_iterations must be an integer >= 1, got {inner!r}")
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
    if graph.n_agents != state.n_agents:
        raise ValidationError(
            f"graph has {graph.n_agents} agents but the state has {state.n_agents}")
    return _consensus(state.positions, *_neighbour_table(graph))


def _neighbour_table(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(table, real): row a of ``table`` lists 0-based agent a's closed
    neighbourhood, ascending, padded to the widest (``Graph.closed``), and
    ``real`` marks the entries that are a neighbour other than a itself."""
    indptr, indices = graph.closed
    first, last = indptr[:-1, None], indptr[1:, None]
    at = first + np.arange((last - first).max())
    table = indices.take(at, mode="clip") - 1  # the padding reads later rows, or the last entry
    return table, (at < last) & (table != np.arange(graph.n_agents)[:, None])


def _consensus(positions: np.ndarray, table: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Each agent's sum of z_j - z_i over its neighbours j, added up in
    neighbourhood order from 0.0; the entries ``real`` leaves out add an
    exact +0.0 and are not computed."""
    deltas = np.subtract(positions[table], positions[:, None], where=real[..., None],
                         out=np.zeros(table.shape + (2,)))
    out = 0.0
    for column in deltas.transpose(1, 0, 2):
        out = out + column
    return out


class _Step(NamedTuple):
    """The filter QP's parameters at one state (pairs as in ``_FilterRows``)."""

    linear: np.ndarray    # (n, 2) minus the nominal inputs
    constant: np.ndarray  # (n,) half their squared norms
    coeffs: np.ndarray    # (P, 2) pair p's row coefficients 2 (z_i - center)
    offsets: np.ndarray   # (P,) pair p's row offset


class _FilterRows:
    """The filter QP's one builder: its layout, fixed per scenario and graph.

    Pair p is 0-based agent ``agent[p]`` in 0-based barrier ``barrier[p]``,
    in the order ``problem`` adds the rows: barrier by barrier, each
    barrier's agents in its order.  ``order`` lists their pair numbers agent
    by agent, each agent's barriers ascending: the order of ``AgentBatch``'s
    rows.  ``neighbours`` is the graph's padded neighbour table
    (``_neighbour_table``), off which ``at`` sums the consensus inputs.
    Raises ValidationError when the graph and the state disagree on the
    agent count or a barrier names an agent outside 1..n.
    """

    def __init__(self, scenario: CbfScenario, graph: Graph, n_agents: int):
        if graph.n_agents != n_agents:
            raise ValidationError(f"graph has {graph.n_agents} agents but the state has {n_agents}")
        barriers = scenario.barriers
        pairs = [(i - 1, m) for m, barrier in enumerate(barriers) for i in barrier.agents]
        for a, m in pairs:
            if not 0 <= a < n_agents:
                raise ValidationError(f"barrier {m + 1} names agent {a + 1}, outside 1..{n_agents}")
        self.scenario, self.graph, self.n = scenario, graph, n_agents
        self.agent = np.array([a for a, _ in pairs], dtype=int)
        self.barrier = np.array([m for _, m in pairs], dtype=int)
        self.center = np.array([barriers[m].center for _, m in pairs], dtype=float).reshape(-1, 2)
        self.n_g = np.array([len(barriers[m].agents) for _, m in pairs], dtype=int)
        self.share = np.array([barriers[m].radius_sq / len(barriers[m].agents)
                               for _, m in pairs], dtype=float)
        self.order = np.argsort(self.agent, kind="stable")
        self.neighbours = _neighbour_table(graph)

    def at(self, state: MultiAgentState) -> _Step:
        """The parameters at ``state``, in one array pass.

        A pair's offset is ||z_i - center||^2 - radius_sq / n_g under the identity
        alpha, and the even split -alpha(g) / n_g of a custom alpha's decrease.
        Each squared norm is a stacked (1, 2) @ (2, 1) product, whose bits are
        a 2-vector dot's.  Raises the ValidationError the problem's
        constructors raise for the first value that is not finite, or the
        ``nominal_consensus`` one for a state of another agent count.
        """
        scenario = self.scenario
        if state.n_agents != self.n:
            raise ValidationError(f"graph has {self.n} agents but the state has {state.n_agents}")
        nominal = _consensus(state.positions, *self.neighbours)
        deltas = state.positions[self.agent] - self.center
        if scenario.alpha is None:
            offsets = (deltas[:, None, :] @ deltas[:, :, None])[:, 0, 0] - self.share
        else:
            decrease = np.array([float(scenario.alpha(barrier.value(state.positions)))
                                 for barrier in scenario.barriers])
            offsets = -decrease[self.barrier] / self.n_g
        step = _Step(-nominal, 0.5 * (nominal[:, None, :] @ nominal[:, :, None])[:, 0, 0],
                     2.0 * deltas, offsets)
        if not all(np.isfinite(values).all() for values in step):
            self.problem(step)  # raises the constructors' ValidationError
        return step

    def problem(self, step: _Step) -> ProblemSpec:
        """The filter QP with these parameters."""
        objectives = tuple(AgentObjective(np.eye(2), linear, float(constant))
                           for linear, constant in zip(step.linear, step.constant))
        cons = CouplingConstraints(self.n, m_ineq=len(self.scenario.barriers), q_eq=0)
        for a, m, coeffs, offset in zip(self.agent.tolist(), self.barrier.tolist(),
                                        step.coeffs, step.offsets.tolist()):
            cons.add_ineq_row(a + 1, m + 1, coeffs, offset)
        return ProblemSpec(objectives, cons, self.graph)


def assemble_step_problem(state: MultiAgentState, scenario: CbfScenario,
                          graph: Graph) -> ProblemSpec:
    """The safety-filter QP at the current positions, built by ``_FilterRows``.

    Raises ValidationError when the graph and the state disagree on the
    agent count, a barrier names an agent outside 1..n, or a value is not
    finite.
    """
    rows = _FilterRows(scenario, graph, state.n_agents)
    return rows.problem(rows.at(state))


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

    The participants never change, so the step problems differ only in the
    nominal inputs (each agent's linear term and constant) and the barrier
    rows and offsets.  Compiled once, from the problem ``_FilterRows``
    builds at ``state``: the induced subgraphs, the weights, the filter QP
    as one ``AgentBatch`` and, for the distributed solver, one strict
    ``SimnetTransport`` (agents read one-hop values only).  Per step the
    parameters are computed in one pass (``_FilterRows.at``) and the batch
    is refreshed in place; the run aborts with a diagnostic when an agent's
    barrier rows become linearly dependent (LICQ failure, e.g. an agent
    exactly at a barrier center or two barrier gradients aligned), by
    ``AgentBatch.licq`` or, for the centralized solver, by the report of the
    step's ``ProblemSpec`` that it solves.  The distributed solver's two
    streams, the inner rounds' and the applied solve's, keep their working
    sets across steps.  The batch checks every input against the rows
    (``AgentBatch.violation``): a step's inner iterates, stacked, in one
    call, and the applied input.  Raises ValidationError when a parameter is
    not finite, when the graph and the state disagree on the agent count or
    when a barrier names an agent outside 1..n.
    """
    rows = _FilterRows(scenario, graph, state.n_agents)
    steps = scenario.steps
    n, k = graph.n_agents, len(scenario.barriers)

    times = np.zeros(steps + 1)
    positions = np.zeros((steps + 1, n, 2))
    barrier_values = np.zeros((steps + 1, k))
    inputs = np.zeros((steps, n, 2))
    inner_worst = np.zeros(steps)
    applied_worst = np.zeros(steps)

    problem = rows.problem(rows.at(state))
    topology = induce_topology(problem, graph)
    weights = build_weights(topology)
    batch = AgentBatch(problem, topology, weights)
    distributed = scenario.solver == "distributed"
    if distributed:
        transport = SimnetTransport(topology)
        config = AdaConfig(scenario.gamma, scenario.inner_iterations)
        slack = np.zeros(batch.size)
    # Working sets carry over from step to step; their maps are built again
    # over each step's rows.
    rounds = final = None

    for s in range(steps):
        times[s] = state.time
        positions[s] = state.positions
        barrier_values[s] = [b.value(state.positions) for b in scenario.barriers]

        step = rows.at(state)
        seeds = (rounds.work, final.work) if rounds else (None, None)
        batch.refresh(step.linear, step.constant, step.coeffs[rows.order],
                      step.offsets[rows.order])
        step_problem = None if distributed else rows.problem(step)
        failures = (batch.licq() if distributed else validate_licq(step_problem)).failures()
        if failures:
            raise RankDeficiencyError(
                f"step {s} (t={state.time:.3f}): agents {failures} have "
                "linearly dependent barrier rows; the sampled problem is "
                "degenerate at this state"
            )

        if not distributed:
            sol = solve_centralized(step_problem)
            u = sol.x.reshape(n, 2)
            inner_worst[s] = 0.0
        else:
            # Truncated averaging rounds; the input is the primal at the average.
            rounds, final = (WarmStart(batch, work) for work in seeds)
            start = slack if scenario.warm_start else np.zeros(batch.size)
            inner = AdaState(start, np.zeros(batch.size), np.zeros(batch.size), 0)
            iterates = []
            for inner, z, _ in iterate_rounds(rounds, config, inner, transport):
                iterates.append(z)
            slack = inner.average
            u = batch.primal(final.solve_stacked(batch.offsets(slack))).reshape(n, 2)
            inner_worst[s] = max([0.0, *batch.violation(np.stack(iterates))[0].tolist()])

        applied_worst[s] = batch.violation(u)[0]
        inputs[s] = u
        state = euler_step(state, u, scenario.dt)

    times[steps] = state.time
    positions[steps] = state.positions
    barrier_values[steps] = [b.value(state.positions) for b in scenario.barriers]
    return ClosedLoopResult(times, positions, barrier_values, inputs,
                            inner_worst, applied_worst, scenario)
