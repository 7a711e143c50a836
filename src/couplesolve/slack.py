"""Slack allocations, their optimal cost, and its gradient.

Replacing each coupled row  sum_i (A_i x_i + b_i) <= 0  by per-agent rows

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
(violation-free) primal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .exceptions import DisconnectedSubgraphError, ValidationError
from .local_qp import AgentBatch, WarmStart
from .oracle import _KKT_TOL, _certificate
from .problem import agent_blocks

_FD_STEP = 1e-5  # finite_difference_gradient's relative probe step


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


def feasible_slack_from_primal(x: np.ndarray, problem, topology, weights) -> SlackState:
    """Slack allocation whose per-agent rows reproduce a feasible primal.

    For each constraint the per-participant residuals r are redistributed to
    their mean via the minimum-norm solution of (I - P) y = mean(r) - r.
    Errors when x misses the row bound of the oracle's certificate
    (``oracle._certificate``), so it accepts every point the oracle
    certifies, or when the consensus system is inconsistent (disconnected
    participants).
    """
    cons = problem.constraints
    _, worst, size = _certificate(problem, agent_blocks(problem), x,
                                  np.zeros(cons.m_ineq + cons.q_eq))
    if max(worst[1:3]) > _KKT_TOL * max(1.0, size[1]):
        raise ValidationError(
            "primal point violates the coupled constraints; no slack "
            "allocation can certify it"
        )
    layout = SlackLayout.from_topology(topology)
    state = SlackState.zeros(layout)
    blocks = problem.split(x)
    for l in layout.constraints:
        members = topology.participants_of(l)
        if not members:
            continue
        residual = np.array([
            cons.row(i, l)[0] @ blocks[i - 1] + cons.row(i, l)[1] for i in members
        ])
        rhs = residual.mean() - residual
        gap = weights[l].gap
        y_block, *_ = np.linalg.lstsq(gap, rhs, rcond=None)
        if np.max(np.abs(gap @ y_block - rhs), initial=0.0) > 1e-8 * (1.0 + np.abs(rhs).max()):
            raise DisconnectedSubgraphError(
                f"constraint {l}: consensus system inconsistent; participants "
                "are not connected"
            )
        state.values[layout.block(l)] = y_block
    return state


def finite_difference_gradient(slack: SlackState, problem, topology, weights):
    """Central-difference gradient of the allocation cost, with kink flags.

    Per coordinate the step is ``_FD_STEP * (1 + |y_k|)``.  A coordinate is
    flagged when its forward and backward one-sided differences disagree by
    more than 1e-3 — the signature of probing across an active-set boundary —
    and should be excluded from comparisons against the analytic gradient.
    Only the agents in the perturbed coordinate's neighborhood are re-solved
    per probe, every probe's agents in one lock-step
    ``AgentBatch.solve_rows`` call started from the base solution's sets.
    Raises RankDeficiencyError, before any solve, when an agent's stacked
    constraint rows are linearly dependent.
    """
    layout = slack.layout
    batch = AgentBatch(problem, topology, weights)
    batch.full_rank_licq()
    warm = WarmStart(batch)
    base = warm.solve_stacked(batch.offsets(slack.values))
    base_costs = np.array([obj.value(z[:obj.dim])
                           for obj, z in zip(problem.objectives, base)])
    total = float(base_costs.sum())

    # Per coordinate an up and a down probe; each re-solves only the agents
    # whose offsets read the perturbed coordinate.
    steps, probes, agents, offsets = [], [], [], []
    for l in layout.constraints:
        for agent in topology.participants_of(l):
            k = layout.index(l, agent)
            h = _FD_STEP * (1.0 + abs(slack.values[k]))
            steps.append((k, h))
            affected = [i - 1 for i in topology.neighborhood(l, agent)]
            for value in (slack.values[k] + h, slack.values[k] - h):
                point = slack.values.copy()
                point[k] = value
                probes.append(affected)
                agents += affected
                offsets.extend(batch.offsets(point)[affected])
    z, _ = batch.solve_rows(agents, np.reshape(offsets, (len(agents), batch.shape[1])),
                            warm.ids[agents])

    costs, row = [], 0
    for affected in probes:
        cost = total - base_costs[affected].sum()
        for a in affected:
            obj = problem.objectives[a]
            cost += obj.value(z[row, :obj.dim])
            row += 1
        costs.append(cost)

    grad = np.zeros(layout.size)
    flagged = np.zeros(layout.size, dtype=bool)
    for (k, h), f_up, f_down in zip(steps, costs[::2], costs[1::2]):
        grad[k] = (f_up - f_down) / (2.0 * h)
        forward = (f_up - total) / h
        backward = (total - f_down) / h
        if abs(forward - backward) > 1e-3:
            flagged[k] = True
    return grad, flagged
