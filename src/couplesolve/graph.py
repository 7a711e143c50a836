"""Communication graph, per-constraint topology, consensus weights, slack coordinates.

Each coupling constraint only involves a subset of agents (its participants).
All information exchange for that constraint happens on the subgraph induced
by its participants, so the solver needs, per constraint: the participant
set, the induced edge set, per-agent neighborhoods (closed, i.e. including
the agent itself), and a symmetric doubly-stochastic weight matrix supported
on the induced edges.  Metropolis-Hastings weights are the default:

    p_ij = 1 / (1 + max(deg(i), deg(j)))   for induced edges {i, j},
    p_ii = 1 - sum_{j != i} p_ij,

where degrees are taken inside the induced subgraph.  Agent indices are
1-based throughout the public API.

The weights link the slack coordinates.  Replacing each coupled row
sum_i (A_i x_i + b_i) <= 0  by per-agent rows

    A_i^[l] x_i + sum_j p_ij (y_i^[l] - y_j^[l]) + b_i^[l]  <= 0

(one slack coordinate per participant, consensus-weighted gaps) decouples the
agents: for a fixed slack allocation ``y`` every agent solves its own QP, and
summing the optimal costs gives a convex function of ``y`` whose minimum over
all allocations equals the coupled optimum.  The gradient of that function in
the coordinate (l, i) is the consensus gap of the participants' multipliers,

    d/dy_i^[l]  =  sum_{j in N_i^[l]} p_ij (mu_i^[l] - mu_j^[l]),

computable by agent i from one-hop multiplier exchange alone.  Because the
weight matrices are symmetric, each gradient block sums to zero, so slack
updates preserve the property that summing the per-agent rows reproduces the
original coupled constraint — every slack allocation yields a conservative
(violation-free) primal.  ``SlackLayout`` indexes the coordinates (l, i),
``SlackState`` holds one allocation, and ``consensus_gap`` is the one-hop
row of I - P that both the offsets and the gradient read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .exceptions import (
    DisconnectedSubgraphError,
    ValidationError,
    WeightMatrixError,
)
from .problem import _integer

_WEIGHT_TOL = 1e-12  # WeightMatrix.validate's bound on signs, symmetry and row sums
_KERNEL_TOL = 1e-10  # null_range_check's singular-value floor


def _endpoint(value) -> int:
    """An edge endpoint as a Python int; ValidationError naming it unless it is an integer."""
    if not _integer(value):
        raise ValidationError(f"edge endpoint must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Graph:
    """Undirected communication graph on agents 1..n_agents."""

    n_agents: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not _integer(self.n_agents):
            raise ValidationError(f"n_agents must be an integer, got {self.n_agents!r}")
        if self.n_agents < 1:
            raise ValidationError(f"graph needs at least one agent, got {self.n_agents}")
        for edge in self.edges:
            i, j = map(_endpoint, edge)
            if not 1 <= i < j <= self.n_agents:
                raise ValidationError(
                    f"edge ({i}, {j}) out of range or not canonical (i < j)"
                )

    @classmethod
    def from_edges(cls, n_agents: int, edges) -> "Graph":
        """Build from any iterable of pairs; orientation and duplicates ignored."""
        canonical = set()
        for i, j in edges:
            i, j = _endpoint(i), _endpoint(j)
            if i == j:
                raise ValidationError(f"self-loop on agent {i}")
            canonical.add((min(i, j), max(i, j)))
        return cls(n_agents, frozenset(canonical))

    def neighborhood(self, i: int) -> tuple[int, ...]:
        """Closed neighborhood of agent i (includes i), ascending."""
        out = {i}
        for a, b in self.edges:
            if a == i:
                out.add(b)
            elif b == i:
                out.add(a)
        return tuple(sorted(out))


def _connected(nodes: tuple[int, ...], edges) -> bool:
    # BFS over the given edge set restricted to `nodes`.
    if len(nodes) <= 1:
        return True
    adjacency = {v: set() for v in nodes}
    for a, b in edges:
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(nodes)


@dataclass(frozen=True)
class ConstraintTopology:
    """Participant sets, induced edges and closed neighborhoods per constraint.

    Constraints are indexed 1..n_constraints with inequalities first:
    constraint l <= m_ineq is inequality row l, constraint l > m_ineq is
    equality row l - m_ineq.
    """

    n_agents: int
    m_ineq: int
    q_eq: int
    participants: tuple[tuple[int, ...], ...]
    induced_edges: tuple[frozenset[tuple[int, int]], ...]
    agent_ineq_sets: tuple[tuple[int, ...], ...]
    agent_eq_sets: tuple[tuple[int, ...], ...]
    _neighborhoods: dict = field(repr=False)

    @property
    def n_constraints(self) -> int:
        return self.m_ineq + self.q_eq

    def participants_of(self, l: int) -> tuple[int, ...]:
        return self.participants[l - 1]

    def edges_of(self, l: int) -> frozenset[tuple[int, int]]:
        return self.induced_edges[l - 1]

    def neighborhood(self, l: int, i: int) -> tuple[int, ...]:
        """Closed neighborhood of agent i inside constraint l's subgraph."""
        return self._neighborhoods[(l, i)]

    def constraints_of(self, i: int) -> tuple[int, ...]:
        """All constraint indices (inequalities then shifted equalities) of agent i."""
        ineq = self.agent_ineq_sets[i - 1]
        eq = tuple(self.m_ineq + q for q in self.agent_eq_sets[i - 1])
        return ineq + eq


def induce_topology(problem, graph: Graph) -> ConstraintTopology:
    """Compute participant sets, induced subgraphs and neighborhoods.

    An agent participates in a constraint row iff its coefficient row is
    nonzero or its offset contribution is nonzero, which is exactly when
    ``CouplingConstraints`` stores the row.  So the participant sets and each
    agent's row sets come from one pass over the rows' positions in
    ``problem.blocks``, agent by agent, and each constraint's induced edges
    and closed neighborhoods from one adjacency map of ``graph``.
    Deterministic: all sets are stored in ascending order, independent of
    edge insertion order.
    """
    m_ineq, q_eq = problem.constraints.m_ineq, problem.constraints.q_eq
    n = graph.n_agents

    members = [[] for _ in range(m_ineq + q_eq)]
    agent_ineq, agent_eq = [], []
    rows_of = [None] * n  # each agent's row positions, ascending
    for block in problem.blocks:
        for a, positions in zip(block.agents.tolist(), block.index.tolist()):
            rows_of[a] = positions
    for i, positions in enumerate(rows_of, start=1):
        for l in positions:
            members[l].append(i)
        agent_ineq.append(tuple(l + 1 for l in positions if l < m_ineq))
        agent_eq.append(tuple(l + 1 - m_ineq for l in positions if l >= m_ineq))
    participants = tuple(map(tuple, members))  # ascending: agents come in order

    adjacency = {i: set() for i in range(1, n + 1)}
    for a, b in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    induced = []
    neighborhoods = {}
    for l, agents in enumerate(participants, start=1):
        inside = set(agents)
        edges = []
        for i in agents:
            near = adjacency[i] & inside
            edges += [(i, j) for j in near if i < j]
            neighborhoods[(l, i)] = tuple(sorted((i, *near)))
        induced.append(frozenset(edges))

    return ConstraintTopology(
        n_agents=n,
        m_ineq=m_ineq,
        q_eq=q_eq,
        participants=participants,
        induced_edges=tuple(induced),
        agent_ineq_sets=tuple(agent_ineq),
        agent_eq_sets=tuple(agent_eq),
        _neighborhoods=neighborhoods,
    )


@dataclass(frozen=True)
class ConnectivityReport:
    """Per-constraint connectivity of the induced subgraphs."""

    connected: tuple[bool, ...]

    @property
    def all_connected(self) -> bool:
        return all(self.connected)

    def failures(self) -> tuple[int, ...]:
        return tuple(l for l, ok in enumerate(self.connected, start=1) if not ok)


def check_connectivity(topology: ConstraintTopology) -> ConnectivityReport:
    """Check that every constraint's participants induce a connected subgraph.

    Empty and singleton participant sets count as connected.
    """
    flags = tuple(
        _connected(topology.participants_of(l), topology.edges_of(l))
        for l in range(1, topology.n_constraints + 1)
    )
    return ConnectivityReport(flags)


# ---------------------------------------------------------------------------
# consensus weight matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric doubly-stochastic weights on one constraint's subgraph.

    ``entries[a, b]`` is the weight between the a-th and b-th participant in
    ascending agent order.  Positive exactly on closed-neighborhood pairs.
    """

    constraint_index: int
    participants: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        k = len(self.participants)
        if self.entries.shape != (k, k):
            raise WeightMatrixError(
                f"constraint {self.constraint_index}: weight matrix shape "
                f"{self.entries.shape} does not match {k} participants"
            )
        object.__setattr__(
            self, "_pos", {i: a for a, i in enumerate(self.participants)}
        )

    def position(self, i: int) -> int:
        return self._pos[i]

    def weight(self, i: int, j: int) -> float:
        return float(self.entries[self.position(i), self.position(j)])

    @property
    def gap(self) -> np.ndarray:
        """The consensus operator I - P, dense, in participant order."""
        return np.eye(len(self.participants)) - self.entries

    def validate(self, topology: ConstraintTopology) -> None:
        """Raise WeightMatrixError unless all structural invariants hold, to ``_WEIGHT_TOL``."""
        p = self.entries
        l = self.constraint_index
        if not np.all(np.isfinite(p)):
            raise WeightMatrixError(f"constraint {l}: weight matrix entries must be finite")
        k = len(self.participants)
        if k == 0:
            return
        if np.any(p < -_WEIGHT_TOL):
            raise WeightMatrixError("negative weight entry")
        if not np.allclose(p, p.T, atol=_WEIGHT_TOL, rtol=0):
            raise WeightMatrixError("weight matrix is not symmetric")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > _WEIGHT_TOL:
            raise WeightMatrixError("weight matrix rows do not sum to 1")
        for a, i in enumerate(self.participants):
            hood = topology.neighborhood(l, i)
            for b, j in enumerate(self.participants):
                inside = j in hood
                if inside and p[a, b] <= 0:
                    raise WeightMatrixError(
                        f"constraint {l}: weight ({i},{j}) should be positive"
                    )
                if not inside and p[a, b] != 0:
                    raise WeightMatrixError(
                        f"constraint {l}: nonzero weight ({i},{j}) off the subgraph"
                    )
        if not null_range_check(self):
            raise WeightMatrixError(
                f"constraint {l}: kernel of I - P is not spanned by the ones vector"
            )


def metropolis_weights(l: int, topology: ConstraintTopology) -> WeightMatrix:
    """Metropolis-Hastings weights on constraint l's induced subgraph."""
    members = topology.participants_of(l)
    k = len(members)
    entries = np.zeros((k, k))
    degree = {
        i: len(topology.neighborhood(l, i)) - 1 for i in members
    }
    pos = {i: a for a, i in enumerate(members)}
    for i, j in sorted(topology.edges_of(l)):
        w = 1.0 / (1.0 + max(degree[i], degree[j]))
        entries[pos[i], pos[j]] = w
        entries[pos[j], pos[i]] = w
    for a in range(k):
        entries[a, a] = 1.0 - (entries[a].sum() - entries[a, a])
    return WeightMatrix(l, members, entries)


def build_weights(topology: ConstraintTopology) -> dict[int, WeightMatrix]:
    """Metropolis weights for every constraint, keyed by constraint index."""
    report = check_connectivity(topology)
    if not report.all_connected:
        raise DisconnectedSubgraphError(
            f"constraints {report.failures()} induce disconnected subgraphs"
        )
    return {
        l: metropolis_weights(l, topology)
        for l in range(1, topology.n_constraints + 1)
    }


def null_range_check(weights: WeightMatrix) -> bool:
    """True iff the kernel of I - P is exactly the span of the ones vector.

    Checked via the rank of I - P: for k participants the rank must be k - 1
    (singular values above ``_KERNEL_TOL``).  Trivially true for k <= 1.
    """
    k = len(weights.participants)
    if k <= 1:
        return True
    rank = int(np.sum(np.linalg.svd(weights.gap, compute_uv=False) > _KERNEL_TOL))
    return rank == k - 1


# ---------------------------------------------------------------------------
# slack coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SlackLayout:
    """Flat indexing of per-constraint slack blocks, participants ascending.

    Two int arrays, so a layout kept with a result holds no topology tuple:
    ``members``, the participants block after block, and ``starts``, block
    l's first coordinate at l - 1, then the size.
    """

    members: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_topology(cls, topology) -> "SlackLayout":
        participants = topology.participants
        return cls(np.fromiter(chain.from_iterable(participants), dtype=int),
                   np.fromiter(accumulate(map(len, participants), initial=0), dtype=int))

    @property
    def constraints(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.starts)))

    @property
    def participants(self) -> tuple[tuple[int, ...], ...]:
        members, starts = self.members.tolist(), self.starts.tolist()
        return tuple(tuple(members[a:b]) for a, b in zip(starts, starts[1:]))

    @property
    def size(self) -> int:
        return int(self.starts[-1])

    def index(self, l: int, agent: int) -> int:
        try:
            index = self._index
        except AttributeError:
            # Built on first use: a layout kept with a result holds no dict.
            # Coordinate k is the k-th (constraint, participant) pair.
            constraint = np.repeat(np.arange(1, len(self.starts)), np.diff(self.starts))
            index = dict(zip(zip(constraint.tolist(), self.members.tolist()), range(self.size)))
            object.__setattr__(self, "_index", index)
        return index[(l, agent)]

    def block(self, l: int) -> slice:
        return slice(int(self.starts[l - 1]), int(self.starts[l]))


@dataclass
class SlackState:
    """One slack value per (constraint, participant), flat storage."""

    layout: SlackLayout
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.layout.size,):
            raise ValidationError(
                f"slack vector has length {self.values.shape}, "
                f"layout expects {self.layout.size}"
            )

    @classmethod
    def zeros(cls, layout: SlackLayout) -> "SlackState":
        return cls(layout, np.zeros(layout.size))

    def block(self, l: int) -> np.ndarray:
        return self.values[self.layout.block(l)]

    def value(self, l: int, agent: int) -> float:
        return float(self.values[self.layout.index(l, agent)])

    def copy(self) -> "SlackState":
        return SlackState(self.layout, self.values.copy())


def consensus_gap(l: int, agent: int, topology, weights, view) -> float:
    """Row ``agent`` of (I - P^[l]) v from one-hop data ``view[(l, j)] = v_j``.

    Computes sum_{j in N_i^[l], j != i} p_ij (v_i - v_j): the slack term of a
    row offset, or a gradient coordinate on the multipliers.  The difference
    form gives exactly 0 for any constant v, not just 0 up to roundoff.
    """
    w = weights[l]
    own = view[(l, agent)]
    gap = 0.0
    for j in topology.neighborhood(l, agent):
        if j != agent:
            gap += w.weight(agent, j) * (own - view[(l, j)])
    return gap
