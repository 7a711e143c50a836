"""Synchronous message-passing simulation with locality enforcement.

Every algorithm round has two phases: participants first exchange their slack
values (SLACK_EXCHANGE) over each constraint's induced edges, solve their
local subproblems, then exchange the resulting multipliers
(MULTIPLIER_EXCHANGE) to form gradient coordinates.  One phase costs
``sum_l 2 |edges of constraint l|`` messages (both directions; an agent's own
value is free).

A phase delivers one vector in slack layout (``graph.SlackLayout``) as an
``Exchange``.  Agent i may read coordinate (l, j) only when j is in its
closed neighborhood in constraint l, that is along one of the topology's
hops (``graph.ConstraintTopology``): ``Neighborhoods`` turns them into
sorted codes of the permitted (agent, coordinate) pairs, and each hop
between two agents is one message.  The batched solver reads every agent
at once through a ``ReadPass``: its (reader, coordinate) pairs, fixed for
a run, are checked against the transport's neighborhoods once, when the
pass is compiled, and each phase's ``Exchange.serve`` repeats only what
can change from phase to phase: the deliveries withheld through a view,
and the raise or record of every read outside the neighborhoods.  Hooks,
probes and references index ``exchange[i - 1]`` for agent i's ``NeighborView``, a read-only
mapping built only when indexed.  Any read outside the neighborhoods raises
by default, or is recorded as a violation in audit mode and served, so that
injected faults can be detected rather than crash the replay
(``algorithms.locality_audit``).  Audit mode never changes numerics: an
audited and a strict run read identical floats, so their traces are
bit-identical.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import LocalityViolationError, ValidationError


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


class Neighborhoods:
    """Every agent's permitted reads: the slack coordinates of its closed neighborhoods.

    ``codes`` holds one code ``agent * size + coordinate`` per permitted
    (0-based agent, coordinate) pair, ascending, then a sentinel above every
    code, so memory grows with the pairs.  ``key[k]`` is coordinate k's
    (constraint, participant).
    """

    def __init__(self, topology):
        self.layout = layout = topology.layout
        self.size = layout.size
        self.n_agents = topology.n_agents
        self.key = [(l, j) for l, members in enumerate(topology.participants, start=1)
                    for j in members]
        codes = (layout.members[topology.reader] - 1) * self.size + topology.read
        self.codes = np.append(np.unique(codes), np.iinfo(np.int64).max)

    def coords_of(self, agent: int) -> np.ndarray:
        """Agent's permitted coordinates, ascending."""
        first, last = np.searchsorted(self.codes, [(agent - 1) * self.size,
                                                   agent * self.size])
        return self.codes[first:last] - (agent - 1) * self.size


class ReadPass:
    """Many agents' reads, checked once against one ``Neighborhoods``.

    Read k is 0-based agent ``readers[k]``'s read of slack coordinate
    ``coords[k]``.  The pass keeps each read's position among the codes and
    whether it is permitted; ``Exchange.serve`` reads a phase through it.
    """

    def __init__(self, neighborhoods: Neighborhoods, readers, coords):
        nb = self.neighborhoods = neighborhoods
        self.readers, self.coords = readers, coords
        codes = readers * nb.size + coords
        self.at = np.searchsorted(nb.codes, codes)
        self.permitted = nb.codes[self.at] == codes
        self.outside = np.flatnonzero(~self.permitted).tolist()


class Exchange(Sequence):
    """One phase's delivery: ``values`` in slack layout, read within each agent's neighborhoods.

    ``exchange[i - 1]`` is agent i's ``NeighborView``, built when first
    indexed; ``serve`` serves many agents' reads at once.  A delivery
    withheld from a view (``del view[key]``) is outside the neighborhood for
    both.
    """

    def __init__(self, neighborhoods: Neighborhoods, values, auditor: Auditor | None = None):
        values = np.array(values, dtype=float)  # a copy: the delivery is a snapshot
        if values.shape != (neighborhoods.size,):
            raise ValidationError(f"exchanged vector has shape {values.shape}, "
                                  f"slack layout expects ({neighborhoods.size},)")
        self.neighborhoods = neighborhoods
        self.values = values
        self.auditor = auditor
        self._withheld = None  # per code, True once its delivery is withheld
        self._views = {}

    def __len__(self) -> int:
        return self.neighborhoods.n_agents

    def __getitem__(self, index) -> NeighborView:
        index = range(len(self))[index]
        view = self._views.get(index)
        if view is None:
            view = self._views[index] = NeighborView(self, index + 1)
        return view

    def serve(self, reads: ReadPass) -> np.ndarray:
        """``values``, read by every read of the pass ``reads``.

        A read outside the reader's neighborhoods, or of a delivery withheld
        from it, raises LocalityViolationError naming the first such read, or
        with an auditor is recorded, in read order, and served.  Raises
        ValidationError when the pass was checked against other
        neighborhoods than this exchange's.
        """
        nb = self.neighborhoods
        if reads.neighborhoods is not nb:
            raise ValidationError("read pass was checked against other neighborhoods "
                                  "than the exchange's")
        outside = reads.outside
        if self._withheld is not None:
            outside = np.flatnonzero(~reads.permitted | self._withheld[reads.at]).tolist()
        for k in outside:
            self._outside(int(reads.readers[k]) + 1, nb.key[reads.coords[k]])
        return self.values

    def _outside(self, agent: int, key) -> None:
        """A read of ``key`` outside agent's neighborhoods: raise, or record it."""
        if self.auditor is None:
            raise LocalityViolationError(
                f"agent {agent} read constraint {key[0]} value of agent "
                f"{key[1]} outside its neighborhood"
            )
        self.auditor.violations.append((agent, key[0], key[1]))

    def _withhold(self, agent: int, coord: int) -> None:
        nb = self.neighborhoods
        if self._withheld is None:
            self._withheld = np.zeros(len(nb.codes), dtype=bool)
        self._withheld[np.searchsorted(nb.codes, (agent - 1) * nb.size + coord)] = True


class NeighborView(Mapping):
    """Agent i's {(constraint, neighbor): value}, exactly its closed neighborhoods.

    Read-only; built by ``Exchange`` when indexed.  A key outside the
    neighborhoods raises LocalityViolationError, or with an auditor is
    recorded and served from the whole delivery so a replay can continue and
    report.  ``del view[key]`` withholds that delivery from the agent.
    """

    __slots__ = ("agent", "_exchange", "_coords")

    def __init__(self, exchange: Exchange, agent: int):
        key = exchange.neighborhoods.key
        self.agent = agent
        self._exchange = exchange
        self._coords = {key[c]: c for c in exchange.neighborhoods.coords_of(agent).tolist()}

    def __getitem__(self, key) -> float:
        coord = self._coords.get(key)
        if coord is None:
            self._exchange._outside(self.agent, key)
            coord = self._exchange.neighborhoods.layout.index(*key)
        return float(self._exchange.values[coord])

    def __contains__(self, key) -> bool:
        return key in self._coords

    def __iter__(self):
        return iter(self._coords)

    def __len__(self) -> int:
        return len(self._coords)

    def __delitem__(self, key) -> None:
        self._exchange._withhold(self.agent, self._coords.pop(key))


class SimnetTransport:
    """Exchange over the constraint subgraphs: message counts and locality-checked reads."""

    def __init__(self, topology, audit: bool = False):
        self.topology = topology
        self.auditor = Auditor() if audit else None
        self.neighborhoods = Neighborhoods(topology)
        self.messages = 0
        self.messages_per_phase = int(np.count_nonzero(topology.reader != topology.read))

    def gather(self, phase: Phase, values) -> Exchange:
        """Deliver ``values``, one per slack coordinate, to every agent's neighbors."""
        self.messages += self.messages_per_phase
        return Exchange(self.neighborhoods, values, self.auditor)
