"""Synchronous message-passing simulation with locality enforcement.

Every algorithm round has two phases: participants first exchange their slack
values (SLACK_EXCHANGE) over each constraint's induced edges, solve their
local subproblems, then exchange the resulting multipliers
(MULTIPLIER_EXCHANGE) to form gradient coordinates.  One phase costs
``sum_l 2 |edges of constraint l|`` messages (both directions; an agent's own
value is free).  The mailbox hands each agent a view covering exactly its
closed neighborhood per constraint; reads outside that set raise by default,
or are recorded as violations in audit mode so that injected faults can be
detected rather than crash the replay.

The transports never change numerics: a mailbox-mediated run and a direct
in-memory run read identical floats, so their traces are bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .exceptions import LocalityViolationError


class Phase(enum.Enum):
    SLACK_EXCHANGE = "slack"
    MULTIPLIER_EXCHANGE = "multiplier"


@dataclass(frozen=True)
class Message:
    phase: Phase
    constraint: int
    source: int
    destination: int
    value: float


@dataclass
class Auditor:
    """Records every mediated read and any out-of-neighborhood access."""

    reads: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def verify(self, topology) -> bool:
        """Cross-check all recorded reads against the permitted neighborhoods."""
        if self.violations:
            return False
        for agent, l, source in self.reads:
            if source not in topology.neighborhood(l, agent):
                return False
        return True


class NeighborView:
    """Mapping (constraint, neighbor) -> value restricted to one agent's reach."""

    __slots__ = ("agent", "_data", "_full", "_auditor")

    def __init__(self, agent, data, full, auditor):
        self.agent = agent
        self._data = data
        self._full = full
        self._auditor = auditor

    def __getitem__(self, key):
        if key in self._data:
            if self._auditor is not None:
                self._auditor.reads.append((self.agent, key[0], key[1]))
            return self._data[key]
        if self._auditor is not None:
            # Audit mode: record the breach and serve the value anyway so a
            # replay can continue and report, rather than crash.
            self._auditor.violations.append((self.agent, key[0], key[1]))
            return self._full[key[0]][key[1]]
        raise LocalityViolationError(
            f"agent {self.agent} read constraint {key[0]} value of agent "
            f"{key[1]} outside its neighborhood"
        )

    def __contains__(self, key):
        return key in self._data


def neighbor_views(topology, values: dict) -> list[dict]:
    """Per-agent {(constraint, neighbor): value} over each closed neighborhood.

    ``values`` maps each constraint l to {participant: value}; entry i - 1 of
    the result holds what agent i may read, unmediated.
    """
    per_agent = [dict() for _ in range(topology.n_agents)]
    for l, block in values.items():
        for i in topology.participants_of(l):
            view = per_agent[i - 1]
            for j in topology.neighborhood(l, i):
                view[(l, j)] = block[j]
    return per_agent


class BaseTransport:
    """Common bookkeeping: message counting per phase."""

    def __init__(self, topology):
        self.topology = topology
        self.messages = 0
        self.messages_per_phase = sum(
            2 * len(topology.edges_of(l))
            for l in range(1, topology.n_constraints + 1)
        )


class DirectTransport(BaseTransport):
    """In-memory exchange: plain dict views, same values, no mediation."""

    def gather(self, phase: Phase, values: dict) -> list[dict]:
        self.messages += self.messages_per_phase
        return neighbor_views(self.topology, values)


class SimnetTransport(BaseTransport):
    """Mailbox-mediated exchange with locality enforcement and logging."""

    def __init__(self, topology, audit: bool = False, record: bool = True):
        super().__init__(topology)
        self.auditor = Auditor() if audit else None
        self.record = record
        self.log: list[Message] = []

    def gather(self, phase: Phase, values: dict) -> list[NeighborView]:
        if self.record:
            for l in range(1, self.topology.n_constraints + 1):
                block = values.get(l, {})
                for a, b in sorted(self.topology.edges_of(l)):
                    self.log.append(Message(phase, l, a, b, block[a]))
                    self.log.append(Message(phase, l, b, a, block[b]))
        self.messages += self.messages_per_phase
        data = neighbor_views(self.topology, values)
        return [
            NeighborView(i + 1, data[i], values, self.auditor)
            for i in range(self.topology.n_agents)
        ]


def exchange(phase: Phase, values: dict, topology,
             audit: bool = False) -> tuple[list[NeighborView], int]:
    """One standalone exchange: (per-agent views, messages sent)."""
    transport = SimnetTransport(topology, audit=audit, record=False)
    views = transport.gather(phase, values)
    return views, transport.messages


def locality_audit(problem, topology, weights, config, initial_slack=None,
                   probe=None) -> bool:
    """Replay an algorithm run in audit mode; True iff all reads were local.

    ``probe``, if given, is called as ``probe(views, round)`` after each
    slack exchange and may perform additional reads through the views — the
    hook exists to inject faults and verify they are caught.
    """
    from .algorithms import run  # local import: algorithms builds on simnet

    transport = SimnetTransport(topology, audit=True, record=False)
    run(problem, topology, weights, config, initial_slack=initial_slack,
        transport=transport, slack_phase_hook=probe)
    return transport.auditor.verify(topology)
