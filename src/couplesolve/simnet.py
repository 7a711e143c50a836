"""Synchronous message-passing simulation with locality enforcement.

Every algorithm round has two phases: participants first exchange their slack
values (SLACK_EXCHANGE) over each constraint's induced edges, solve their
local subproblems, then exchange the resulting multipliers
(MULTIPLIER_EXCHANGE) to form gradient coordinates.  One phase costs
``sum_l 2 |edges of constraint l|`` messages (both directions; an agent's own
value is free).  The transport hands each agent a view holding exactly its
closed neighborhood per constraint, so a permitted read is a plain dict
lookup; any other read raises by default, or is recorded as a violation in
audit mode so that injected faults can be detected rather than crash the
replay.  Audit mode never changes numerics: an audited and a strict run read
identical floats, so their traces are bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .exceptions import LocalityViolationError


class Phase(enum.Enum):
    SLACK_EXCHANGE = "slack"
    MULTIPLIER_EXCHANGE = "multiplier"


@dataclass
class Auditor:
    """Records every out-of-neighborhood read as (agent, constraint, source)."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class NeighborView(dict):
    """One agent's {(constraint, neighbor): value}, exactly its closed neighborhoods.

    Built only by ``neighbor_views``, which sets ``agent``, the full exchange
    ``_full`` and the ``_auditor`` (or None).  A key outside the
    neighborhoods reaches ``__missing__``: it raises LocalityViolationError,
    or with an auditor is recorded and served from the full exchange so a
    replay can continue and report.
    """

    __slots__ = ("agent", "_full", "_auditor")

    def __missing__(self, key):
        if self._auditor is not None:
            self._auditor.violations.append((self.agent, key[0], key[1]))
            return self._full[key[0]][key[1]]
        raise LocalityViolationError(
            f"agent {self.agent} read constraint {key[0]} value of agent "
            f"{key[1]} outside its neighborhood"
        )


def neighbor_views(topology, values: dict, auditor: Auditor | None = None
                   ) -> list[NeighborView]:
    """Per-agent views {(constraint, neighbor): value} over each closed neighborhood.

    ``values`` maps each constraint l to {participant: value}; entry i - 1 of
    the result holds what agent i may read.  Reads outside it raise, or are
    recorded by ``auditor`` and served.
    """
    per_agent = []
    for i in range(1, topology.n_agents + 1):
        view = NeighborView()
        view.agent, view._full, view._auditor = i, values, auditor
        per_agent.append(view)
    for l, block in values.items():
        for i in topology.participants_of(l):
            view = per_agent[i - 1]
            for j in topology.neighborhood(l, i):
                view[(l, j)] = block[j]
    return per_agent


class SimnetTransport:
    """Exchange over the constraint subgraphs: message counts and locality-checked views."""

    def __init__(self, topology, audit: bool = False):
        self.topology = topology
        self.auditor = Auditor() if audit else None
        self.messages = 0
        self.messages_per_phase = sum(
            2 * len(topology.edges_of(l))
            for l in range(1, topology.n_constraints + 1)
        )

    def gather(self, phase: Phase, values: dict) -> list[NeighborView]:
        self.messages += self.messages_per_phase
        return neighbor_views(self.topology, values, self.auditor)


def exchange(phase: Phase, values: dict, topology,
             audit: bool = False) -> tuple[list[NeighborView], int]:
    """One standalone exchange: (per-agent views, messages sent)."""
    transport = SimnetTransport(topology, audit=audit)
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

    transport = SimnetTransport(topology, audit=True)
    run(problem, topology, weights, config, initial_slack=initial_slack,
        transport=transport, slack_phase_hook=probe)
    return transport.auditor.ok
