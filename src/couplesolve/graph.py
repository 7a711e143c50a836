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
``induce_topology`` finds every closed-neighbourhood read once, as the
topology's hops ((l, i) reads (l, j)), by one join of the slack coordinates
with the graph's closed neighbourhoods (CSR arrays, ``Graph.closed``).  The
weights, the transport, the batch's read pass, the finite-difference probes
and the connectivity check (label propagation) index the hops, and off
them, with the layout, the topology reads every set it hands out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def closed(self) -> tuple[np.ndarray, np.ndarray]:
        """The closed neighbourhoods as read-only CSR arrays (indptr, indices),
        built once: agent i's, ascending and i included, is
        ``indices[indptr[i - 1]:indptr[i]]``."""
        n = self.n_agents
        edges = np.array(list(self.edges), dtype=int).reshape(-1, 2)
        agents = np.arange(1, n + 1)
        row = np.concatenate([edges[:, 0], edges[:, 1], agents])
        col = np.concatenate([edges[:, 1], edges[:, 0], agents])
        indices = col[np.argsort(row * (n + 1) + col)]
        indptr = np.concatenate([[0], np.bincount(row, minlength=n + 1)[1:].cumsum()])
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    def neighborhood(self, i: int) -> tuple[int, ...]:
        """Closed neighborhood of agent i (includes i), ascending; KeyError
        unless i is an integer in 1..n_agents."""
        if not (_integer(i) and 1 <= i <= self.n_agents):
            raise KeyError(i)
        indptr, indices = self.closed
        return tuple(indices[indptr[i - 1]:indptr[i]].tolist())


@dataclass(frozen=True, eq=False)
class ConstraintTopology:
    """The slack layout and the one-hop reads, off which every set is read.

    Constraints are indexed 1..n_constraints with inequalities first:
    constraint l <= m_ineq is inequality row l, constraint l > m_ineq is
    equality row l - m_ineq.  ``layout`` indexes the slack coordinates (l, i).
    Hop k, one per (l, i, j) with j in N_i^[l] (i included), is the agent of
    coordinate ``reader[k]`` reading coordinate ``read[k]``; the hops ascend
    by (reader, read), the order ``consensus_gap`` visits.  Equality compares
    the counts and the four arrays; the accessors raise KeyError for a
    constraint or an agent number that is not an integer in range.
    """

    n_agents: int
    m_ineq: int
    q_eq: int
    layout: SlackLayout = field(repr=False)
    reader: np.ndarray = field(repr=False)
    read: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConstraintTopology) and all(map(np.array_equal, *(
            (t.n_agents, t.m_ineq, t.q_eq, t.layout.members, t.layout.starts, t.reader, t.read)
            for t in (self, other))))

    @property
    def n_constraints(self) -> int:
        return self.m_ineq + self.q_eq

    @cached_property
    def participants(self) -> tuple[tuple[int, ...], ...]:
        """Each constraint's participants, ascending, read off the layout once."""
        return self.layout.participants

    def participants_of(self, l: int) -> tuple[int, ...]:
        return tuple(self.layout.members[self.layout.block(l)].tolist())

    def edges_of(self, l: int) -> frozenset[tuple[int, int]]:
        """Constraint l's induced edges (i, j), i < j: its hops between two participants."""
        block = self.layout.block(l)
        hops = slice(*self.reader.searchsorted((block.start, block.stop)))
        i, j = self.layout.members[self.reader[hops]], self.layout.members[self.read[hops]]
        return frozenset(zip(i[i < j].tolist(), j[i < j].tolist()))

    def neighborhood(self, l: int, i: int) -> tuple[int, ...]:
        """Closed neighborhood of agent i inside constraint l's subgraph, ascending."""
        coord = self.layout.index(l, i)
        first, last = self.reader.searchsorted((coord, coord + 1))
        return tuple(self.layout.members[self.read[first:last]].tolist())

    def constraints_of(self, i: int) -> tuple[int, ...]:
        """All constraint indices (inequalities then shifted equalities) of agent i."""
        if not (_integer(i) and 1 <= i <= self.n_agents):
            raise KeyError(i)
        return tuple(l for l, _ in self.layout.keys(np.flatnonzero(self.layout.members == i)))


def induce_topology(problem, graph: Graph) -> ConstraintTopology:
    """Compute the slack layout and the one-hop reads.

    An agent participates in a constraint row iff its coefficient row is
    nonzero or its offset contribution is nonzero, which is exactly when
    ``CouplingConstraints`` stores the row.  So the layout is one sort of
    the rows' positions in ``problem.blocks``, and the hops are one join:
    each slack coordinate (l, i) is repeated once per agent j of i's closed
    graph neighbourhood (``Graph.closed``), and the pair is kept where the
    code of (l, j) is found, by ``searchsorted``, among the layout's
    ascending codes.  Participants and hops ascend, independent of edge
    insertion order.
    """
    m_ineq, q_eq = problem.constraints.m_ineq, problem.constraints.q_eq
    rows = np.concatenate([block.index.ravel() for block in problem.blocks])
    agents = np.concatenate([block.agents.repeat(block.index.shape[1])
                             for block in problem.blocks]) + 1
    order = np.lexsort((agents, rows))  # by row, then agent
    rows, members = rows[order], agents[order]
    layout = SlackLayout(members, rows.searchsorted(np.arange(m_ineq + q_eq + 1)))

    # Coordinate (l, i) has the code (l - 1) (n + 1) + i: the codes ascend.
    base = rows * (graph.n_agents + 1)
    codes = base + members
    indptr, indices = graph.closed
    ends = indptr[members]
    count = ends - indptr[members - 1]
    reader = np.arange(layout.size).repeat(count)
    wanted = base[reader] + indices[np.arange(len(reader)) + (ends - count.cumsum())[reader]]
    read = codes.searchsorted(wanted)
    found = codes.take(read, mode="clip") == wanted  # a code past the last is not found
    return ConstraintTopology(graph.n_agents, m_ineq, q_eq, layout, reader[found], read[found])


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

    Minimum labels propagate along the hops, each pass followed by one
    pointer jump (Shiloach and Vishkin, J. Algorithms 3(1), 1982), until no
    label moves: each coordinate then holds the lowest coordinate it
    reaches, its component's root, and a block is connected when it holds
    at most one root.  Every coordinate reads itself, so each has a hop.
    Empty and singleton participant sets count as connected.
    """
    read = topology.read
    coords = label = np.arange(topology.layout.size)
    if len(label):
        first = topology.reader.searchsorted(coords)
        while True:
            lower = np.minimum.reduceat(label[read], first)
            lower = lower[lower]
            if (lower == label).all():
                break
            label = lower
    roots = np.flatnonzero(label == coords).searchsorted(topology.layout.starts)
    return ConnectivityReport(tuple((roots[1:] - roots[:-1] <= 1).tolist()))


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

    def position(self, i: int) -> int:
        return self.participants.index(i)

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
        if self.participants != topology.participants_of(l):
            raise WeightMatrixError(
                f"constraint {l}: participants {self.participants} are not the "
                f"topology's {topology.participants_of(l)}"
            )
        # The support is the constraint's hops, (c, d) in its block of coordinates.
        first = int(topology.layout.starts[l - 1])
        hops = slice(*topology.reader.searchsorted((first, first + k)))
        inside = np.zeros((k, k), dtype=bool)
        inside[topology.reader[hops] - first, topology.read[hops] - first] = True
        bad = np.argwhere(np.where(inside, p <= 0, p != 0))  # row-major
        if len(bad):
            a, b = bad[0].tolist()
            i, j = self.participants[a], self.participants[b]
            if inside[a, b]:
                raise WeightMatrixError(f"constraint {l}: weight ({i},{j}) should be positive")
            raise WeightMatrixError(f"constraint {l}: nonzero weight ({i},{j}) off the subgraph")
        if not null_range_check(self):
            raise WeightMatrixError(
                f"constraint {l}: kernel of I - P is not spanned by the ones vector"
            )


def _metropolis(topology: ConstraintTopology) -> dict[int, WeightMatrix]:
    """Metropolis-Hastings weights from the hops (a degree is a hop count less
    one), filled by one scatter into (g, k, k) arrays, one per participant
    count k, whose rows are each summed alone for their diagonal."""
    starts, reader, read = topology.layout.starts, topology.reader, topology.read
    count, groups = (starts[1:] - starts[:-1]).tolist(), {}
    for l, k in enumerate(count):
        groups.setdefault(k, []).append(l)
    corner, end = [0] * len(count), 0  # hop (c, d) of constraint l at corner[l] + c k + d
    for k, group in groups.items():
        for l in group:
            corner[l], end = end - int(starts[l]) * (k + 1), end + k * k
    degree, off = np.bincount(reader, minlength=topology.layout.size) - 1, reader != read
    reader, read = reader[off], read[off]
    at = np.arange(len(count)).repeat(count)[reader]
    buffer = np.zeros(end)
    buffer[np.array(corner, dtype=int)[at] + reader * np.array(count, dtype=int)[at] + read] = (
        1.0 / (1.0 + np.maximum(degree[reader], degree[read])))
    out, end = {}, 0
    for k, group in groups.items():
        entries = buffer[end:end + len(group) * k * k].reshape(len(group), k, k)
        entries.reshape(len(group), k * k)[:, ::k + 1] = 1.0 - entries.sum(axis=2)
        out.update((l + 1, WeightMatrix(l + 1, topology.participants[l], p))
                   for l, p in zip(group, entries))
        end += len(group) * k * k
    return dict(sorted(out.items()))


def metropolis_weights(l: int, topology: ConstraintTopology) -> WeightMatrix:
    """Metropolis-Hastings weights on constraint l's induced subgraph."""
    return _metropolis(topology)[l]


def build_weights(topology: ConstraintTopology) -> dict[int, WeightMatrix]:
    """Metropolis weights for every constraint, keyed by constraint index."""
    report = check_connectivity(topology)
    if not report.all_connected:
        raise DisconnectedSubgraphError(
            f"constraints {report.failures()} induce disconnected subgraphs"
        )
    return _metropolis(topology)


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
        """The topology's layout, which ``induce_topology`` builds once."""
        return topology.layout

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
        """Coordinate (l, agent); KeyError unless agent takes part in constraint l."""
        if not (_integer(l) and _integer(agent) and 1 <= l < len(self.starts)):
            raise KeyError((l, agent))
        first, last = int(self.starts[l - 1]), int(self.starts[l])
        at = first + int(self.members[first:last].searchsorted(agent))
        if at >= last or self.members[at] != agent:
            raise KeyError((l, agent))
        return at

    def block(self, l: int) -> slice:
        """Constraint l's coordinates; KeyError unless l is an integer in 1..n_constraints."""
        if not (_integer(l) and 1 <= l < len(self.starts)):
            raise KeyError(l)
        return slice(int(self.starts[l - 1]), int(self.starts[l]))

    def keys(self, coords) -> list[tuple[int, int]]:
        """Each coordinate's (constraint, participant): the inverse of ``index``."""
        return list(zip(self.starts.searchsorted(coords, side="right").tolist(),
                        self.members[coords].tolist()))


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
