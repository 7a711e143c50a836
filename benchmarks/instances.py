"""Seeded benchmark instances on ring graphs.

Every coupled row covers a contiguous arc of the ring, so its participants
induce a path and are connected by construction.  Each agent holds at most
``dim`` rows and its rows form a scaled orthonormal family, so every agent's
stacked rows have full row rank (LICQ).  Offsets are balanced around an
anchor point that satisfies every equality row exactly and every inequality
row with a strict margin, so each instance is feasible.

Draws come from ``Draws``: a fixed base stream, perturbed per seed.

``checked`` asserts all of this after generation, together with a
successful centralized solve, and returns that solve so callers can use its
optimum as the reference value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import couplesolve as cs

ROW_SCALE = 1.5  # row Gram 2.25 I dominates Hessian eigenvalues in [0.5, 2]


class InstanceError(RuntimeError):
    """A generated instance broke one of the generator's guarantees."""


class Draws:
    """Random numbers for one instance: a base stream perturbed by a seed.

    Each value is drawn from the ``base_seed`` stream and scaled by
    (1 + jitter * N(0, 1)) from the ``seed`` stream; integer and sign draws
    (the instance's structure) come from the base stream alone.  Every seed
    gives different inputs, while the structure and scale of the instance,
    and so its cost and accuracy figures, stay comparable across seeds.
    """

    def __init__(self, base_seed: int, seed: int, jitter: float):
        self._base = np.random.default_rng(base_seed)
        self._noise = np.random.default_rng([base_seed, seed % 2**63])
        self._jitter = jitter

    def _perturb(self, values):
        return values * (1.0 + self._jitter * self._noise.standard_normal(np.shape(values)))

    def uniform(self, low, high, size=None):
        return self._perturb(self._base.uniform(low, high, size))

    def normal(self, size):
        return self._perturb(self._base.standard_normal(size))

    def integer(self, low, high) -> int:
        return int(self._base.integers(low, high))

    def sign(self) -> float:
        return 1.0 if self._base.random() < 0.5 else -1.0


@dataclass(frozen=True)
class Instance:
    problem: cs.ProblemSpec
    arcs: tuple[tuple[int, ...], ...]  # participants per constraint index


def ring_graph(n: int) -> cs.Graph:
    return cs.Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _place_arcs(draws, n, n_rows, width, capacity):
    """One contiguous arc of ``width`` agents per row, evenly spaced.

    The arcs start at a random rotation of the ring.  Raises rather than
    shrink or drop a row when an arc would exceed some agent's capacity.
    """
    rotation = draws.integer(0, n)
    arcs = []
    for r in range(n_rows):
        start = rotation + (r * n) // n_rows
        members = tuple(sorted((start + k) % n + 1 for k in range(width)))
        for i in members:
            if capacity[i] == 0:
                raise InstanceError(f"row {r + 1}: agent {i} has no row capacity left")
            capacity[i] -= 1
        arcs.append(members)
    return arcs


def _orthonormal_rows(draws, n_rows: int, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(draws.normal((dim, dim)))
    return ROW_SCALE * q[:, :n_rows].T


def _balanced_offsets(draws, coeffs, anchor, members, inequality):
    """Offset shares summing to -sum(a_i . anchor_i) minus a margin."""
    raw = {i: float(draws.uniform(-0.5, 0.5)) for i in members}
    aggregate = sum(float(coeffs[i] @ anchor[i]) + raw[i] for i in members)
    margin = float(draws.uniform(0.2, 1.0)) if inequality else 0.0
    raw[members[0]] -= aggregate + margin
    return raw


def strongly_convex_ring(draws: Draws, n_agents: int, dim: int, m_ineq: int,
                         q_eq: int, width: int) -> Instance:
    """Ring instance with positive-definite Hessians (eigenvalues near [0.5, 2])."""
    objectives = []
    for _ in range(n_agents):
        basis, _ = np.linalg.qr(draws.normal((dim, dim)))
        hessian = basis @ np.diag(draws.uniform(0.5, 2.0, size=dim)) @ basis.T
        objectives.append(cs.AgentObjective(0.5 * (hessian + hessian.T),
                                            draws.uniform(-1, 1, size=dim)))

    capacity = {i: dim for i in range(1, n_agents + 1)}
    arcs = _place_arcs(draws, n_agents, m_ineq + q_eq, width, capacity)
    agent_rows = {i: [] for i in range(1, n_agents + 1)}
    for l, members in enumerate(arcs, start=1):
        for i in members:
            agent_rows[i].append(l)
    coeffs = {}
    for i, ls in agent_rows.items():
        block = _orthonormal_rows(draws, len(ls), dim)
        for r, l in enumerate(ls):
            coeffs[(l, i)] = block[r]

    anchor = {i: draws.uniform(-1, 1, size=dim) for i in range(1, n_agents + 1)}
    cons = cs.CouplingConstraints(n_agents, m_ineq, q_eq)
    for l, members in enumerate(arcs, start=1):
        row = {i: coeffs[(l, i)] for i in members}
        offsets = _balanced_offsets(draws, row, anchor, members, l <= m_ineq)
        for i in members:
            if l <= m_ineq:
                cons.add_ineq_row(i, l, row[i], offsets[i])
            else:
                cons.add_eq_row(i, l - m_ineq, row[i], offsets[i])
    problem = cs.ProblemSpec(tuple(objectives), cons, ring_graph(n_agents))
    return Instance(problem, tuple(arcs))


def psd_ring(draws: Draws, n_agents: int, m_ineq: int, width: int) -> Instance:
    """Planar agents with Hessians diag(h, 0) and singleton pinning rows.

    Equality row i pins agent i's flat coordinate (participants {i}); the
    ``m_ineq`` inequality rows couple ring arcs of ``width`` agents through
    the curved coordinate, so no agent is strongly convex but every local
    problem is bounded.  Constraint indices: inequalities 1..m_ineq, then
    equality row q at m_ineq + q.
    """
    objectives = tuple(
        cs.AgentObjective(np.diag([float(draws.uniform(0.5, 2.0)), 0.0]),
                          draws.uniform(-1, 1, size=2))
        for _ in range(n_agents)
    )
    capacity = {i: 1 for i in range(1, n_agents + 1)}  # the pin takes the other slot
    ineq_arcs = _place_arcs(draws, n_agents, m_ineq, width, capacity)

    pinned = draws.uniform(-1, 1, size=n_agents)
    anchor = {i: np.array([draws.uniform(-1, 1), pinned[i - 1]])
              for i in range(1, n_agents + 1)}
    cons = cs.CouplingConstraints(n_agents, m_ineq, q_eq=n_agents)
    for i in range(1, n_agents + 1):
        cons.add_eq_row(i, i, [0.0, ROW_SCALE], -ROW_SCALE * float(pinned[i - 1]))
    for m, members in enumerate(ineq_arcs, start=1):
        sign = {i: draws.sign() for i in members}
        row = {i: np.array([sign[i] * ROW_SCALE, 0.0]) for i in members}
        offsets = _balanced_offsets(draws, row, anchor, members, True)
        for i in members:
            cons.add_ineq_row(i, m, row[i], offsets[i])
    arcs = tuple(ineq_arcs) + tuple((i,) for i in range(1, n_agents + 1))
    problem = cs.ProblemSpec(objectives, cons, ring_graph(n_agents))
    return Instance(problem, arcs)


def checked(instance: Instance) -> cs.OracleSolution:
    """Assert the generator's guarantees; returns the centralized solution.

    Raises InstanceError when a row lost participants, a participant set is
    disconnected, an agent's rows are rank deficient, or the centralized
    solve fails.
    """
    problem = instance.problem
    topology = cs.induce_topology(problem, problem.graph)
    for l, members in enumerate(instance.arcs, start=1):
        if topology.participants_of(l) != members:
            raise InstanceError(
                f"constraint {l}: participants {topology.participants_of(l)} "
                f"differ from the generated arc {members}"
            )
    connectivity = cs.check_connectivity(topology)
    if not connectivity.all_connected:
        raise InstanceError(f"disconnected constraints {connectivity.failures()}")
    licq = cs.validate_licq(problem)
    if not licq.all_full_rank:
        raise InstanceError(f"rank-deficient agents {licq.failures()}")
    try:
        return cs.solve_centralized(problem)
    except cs.CoupleSolveError as exc:
        raise InstanceError(f"centralized solve failed: {exc}") from exc
