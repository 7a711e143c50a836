"""Per-agent equality/inequality quadratic subproblems and their exact solve.

Each agent repeatedly solves

    minimize   1/2 x' H x + c' x
    subject to a_m' x + beta_m <= 0   (its inequality rows)
               e_q' x + eta_q  == 0   (its equality rows),

where the offsets beta/eta fold in the agent's share of the coupled
constraints.  Problems are tiny (a handful of variables and rows), the rows
are linearly independent, and the solver must return the *exact* optimizer
and its unique multipliers, since downstream gradients are built from the
multipliers directly.

The method is a primal active-set iteration on the KKT system: solve the
equality-constrained problem for the current working set, add the most
violated inequality (lowest index on ties), drop the working row with the
most negative multiplier (lowest index on ties), repeat.  A visited-set guard
and an iteration cap of 100 x (number of inequality rows) turn cycling into a
degeneracy error instead of an infinite loop.  The rules have one home:
``_accepted`` (when to stop), ``_moves`` (which row to add or drop) and
``_singular``/``_revisited``/``_capped`` (the diagnoses).  One loop drives
them, ``AgentBatch.solve_rows``: for the agents, and for the centralized
oracle's dense path, whose stacked program it solves as one agent's row.

From one round to the next only the offsets change.  ``AgentBatch``
compiles everything else once into stacked arrays: H, c, the rows and their
base offsets from ``ProblemSpec.blocks``, and the consensus terms that
turn neighbour slacks into offsets, one read per hop of the topology with
its weight from the given matrices.  For a fixed working set W the KKT
solution is affine in the offsets, z = s_W + M_W off.  The batch keeps every
working set its solves meet in one table, each (agent, working-row mask)
pair's map stacked under an id; the maps of newly met sets are built
together in array passes, one stacked inverse per (block dimension, KKT
rows) group, each KKT system listing the equalities, then the working rows.
``AgentBatch.refresh`` overwrites c, the constants, the rows and their base
offsets in place for a problem of the same structure (the safety filter's
next step) and empties the table.
``AgentBatch.licq`` applies ``validate_licq``'s rule to a refreshed batch,
whose rows the problem's report no longer describes: the safety filter's
per-step rank check.  Every other solve on a batch first passes the problem's
report (``validate_licq``) through ``LicqReport.require_full_rank``.

``AgentBatch.solve_rows`` runs the active-set loop in lock step over many
rows, a row being one agent's QP at one set of offsets from one starting
working set (an agent may fill many rows).  Each iteration gathers every
pending row's map by id, evaluates all of them in one elementwise pass, and
makes each row's move at once: add the most violated free row, else drop
the most negative working multiplier, else accept.  Each row keeps its own
visited-set guard and iteration cap, and a failing row raises its
diagnosis.  The verdicts reduce short rows (a handful of entries, or the
oracle's m + q) across many agents, so every reduction reads its array
agent-contiguous (``_by_agent``), and the largest |c| entry, which no round
changes, is taken once per compile and refresh.  ``WarmStart.solve_stacked``
evaluates every agent's map for the working set it ended on last time in
one stacked pass, accepts each solution that passes the loop's termination
test and residual bound, and continues the rest in ``solve_rows``'s loop,
the stacked pass standing as its first iteration.  An answer depends only
on its final working set and the offsets, never on where the search
started or on the rows beside it.

The answer is one stacked, padded array z, one row per agent, and
``AgentBatch`` computes from it what a round needs, whatever its layout:
the objective (``cost_shares``), the coupled-row residuals (``row_shares``),
the multipliers each exchange sends and the consensus-gap gradient.  A
run's output keeps z and the working-row masks as ``StackedSolutions``;
agent i's multiplier columns follow ``topology.constraints_of(i)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSubproblemError, UnboundedSubproblemError
from .problem import LicqReport, cost_shares, licq_report, row_shares, worst_residuals

# Residuals above this are treated as violated when growing the working set;
# multipliers below its negative are dropped.
_ADD_TOL = 1e-10
_DROP_TOL = 1e-11


def _reduced_curvature_ok(h, rows, tol=1e-10) -> bool:
    """Is H positive definite on the nullspace of the given rows?"""
    d = h.shape[0]
    if rows.shape[0] == 0:
        basis = np.eye(d)
    else:
        _, sv, vt = np.linalg.svd(rows)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0] if len(sv) else 1.0)))
        basis = vt[rank:].T
    if basis.shape[1] == 0:
        return True
    reduced = basis.T @ h @ basis
    return bool(np.linalg.eigvalsh(reduced).min() > tol)


def _singular(h, rows) -> Exception:
    """Why a working set's KKT system has no solution: missing curvature or degeneracy."""
    if not _reduced_curvature_ok(h, rows):
        return UnboundedSubproblemError(
            "Hessian is not positive definite on the working-set "
            "nullspace: subproblem unbounded or minimizer non-unique"
        )
    return DegenerateSubproblemError("singular KKT system")


def _revisited() -> Exception:
    return DegenerateSubproblemError("active-set iteration revisited a working set")


def _capped(cap: int) -> Exception:
    return DegenerateSubproblemError(f"active-set iteration exceeded {cap} iterations")


def _gap(p, own, v):
    """sum_k p[..., k] (own - v[..., k]), added up in k order from 0.0.

    The arithmetic of ``consensus_gap``: with the neighbours in its order
    and zero-weight padding after them, every entry is bit-identical to it.
    """
    gap = np.zeros(own.shape)
    for k in range(p.shape[-1]):
        gap = gap + p[..., k] * (own - v[..., k])
    return gap


def _by_agent(a, copy=False):
    """``a`` with its leading (agent) axis contiguous: Fortran order; a new
    array when ``copy``, else ``a`` itself where it is in that order already.

    The one home of the verdicts' layout.  numpy reduces a short last axis
    in a few passes along the agents only in this order; a max, min, all or
    first-index argmax/argmin reads the same values whatever the layout, so
    no answer or tie moves.
    """
    return np.array(a, order="F", copy=True if copy else None)


def _affine(m, s, offsets):
    """s + m @ offsets, added up in offset order, one agent or stacked, agent-contiguous.

    Elementwise, so an agent's entries do not depend on the batch around it.
    """
    z = _by_agent(s, copy=True)
    for j in range(offsets.shape[-1]):
        z += m[..., j] * offsets[..., j, None]
    return z


def _residual_ok(h, c, c_max, rows, kkt, z, offsets):
    """The KKT residual bound, each residual within 1e-8 x (1 + the largest
    |c|, working offset or |z| entry), on padded solutions z = (x, multipliers).

    ``c_max`` is the largest |c| entry, which no round changes; ``kkt``
    marks the rows in the KKT system.  Works on one agent or on a stack;
    returns (bound holds, every row's residual rows @ x + offsets).  The row
    residuals are ``row_shares``; the stationarity H x + rows' mults + c is
    added up in coordinate order, H's columns first, then the rows, then c.
    A zero-padded column or row adds an exact 0, so an agent's bits do not
    depend on the padding its batch needs.
    """
    dim = h.shape[-1]
    x, mults = z[..., :dim], z[..., dim:]
    row_residual = _by_agent(row_shares(rows, offsets, x))
    stationarity = np.zeros(c.shape)
    for j in range(dim):
        stationarity += h[..., :, j] * x[..., j, None]
    for r in range(rows.shape[-2]):
        stationarity += rows[..., r, :] * mults[..., r, None]
    stationarity += c
    residual = _by_agent(np.abs(np.concatenate(
        [stationarity, np.where(kkt, row_residual, 0.0)], axis=-1))).max(-1, initial=0.0)
    target = np.maximum(c_max, _by_agent(np.abs(np.where(kkt, offsets, 0.0))).max(-1, initial=0.0))
    size = _by_agent(np.abs(z)).max(-1, initial=0.0)  # not finite where some entry is not
    ok = (residual <= 1e-8 * (1.0 + target + size)) & np.isfinite(size)
    return ok, row_residual


def _accepted(free, work, row_residual, mults):
    """Where the active-set loop stops, on stacked solutions: no free row is
    violated and no working multiplier is negative."""
    return ((_by_agent(np.where(free, row_residual, -np.inf)).max(-1, initial=-np.inf)
             <= _ADD_TOL)
            & (_by_agent(np.where(work, mults, np.inf)).min(-1, initial=np.inf) >= -_DROP_TOL))


def _moves(free, work, row_residual, mults):
    """The active-set loop's next move on stacked solutions it does not accept.

    r adds free row r, the most violated (lowest index on ties); width + r
    drops working row r, the most negative multiplier (lowest index on
    ties).  Adding comes first, as in the loop.
    """
    violation = _by_agent(np.where(free, row_residual, -np.inf))
    drop = free.shape[-1] + _by_agent(np.where(work, mults, np.inf)).argmin(-1)
    return np.where(violation.max(-1) > _ADD_TOL, violation.argmax(-1), drop)


def _inverses(kkt) -> np.ndarray:
    """``np.linalg.inv`` of each stacked matrix; NaN where one is singular."""
    try:
        return np.linalg.inv(kkt)
    except np.linalg.LinAlgError:
        out = np.full_like(kkt, np.nan)
        for j, matrix in enumerate(kkt):
            try:
                out[j] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                pass
        return out


def _factors(hessian, linear, rows, counts, agents, work):
    """The affine maps of (agent, working-row mask) pairs, stacked.

    ``hessian`` (n, dim, dim), ``linear`` (n, dim) and ``rows`` (n, width,
    dim) stack the agents' padded parameters, and ``counts`` (n, 3) holds
    each agent's (block dimension, inequality rows, rows); pair j is agent
    ``agents[j]`` with the working inequality rows ``work[j]``.  Per pair: m
    (dim + width, width) and s (dim + width,), the KKT solution z = s + m @
    offsets; masks of the rows in the KKT system (equalities and working
    inequalities), of the working rows and of the free inequality rows; and
    ready, False where the KKT system is singular (m, s and the KKT mask then
    stay zero).  A KKT system lists the equalities, then the working rows,
    each ascending; pairs with the same block dimension and KKT row count
    share one stacked inverse.
    """
    n = len(agents)
    width, dim = rows.shape[-2:]
    d, k_i, k = counts[agents].T
    pos = np.arange(width)
    ineq = pos < k_i[:, None]
    kkt = work | (~ineq & (pos < k[:, None]))
    # Each pair's KKT rows first, equalities before working rows, each ascending.
    order = np.where(kkt, np.where(ineq, pos + width, pos), 2 * width).argsort(-1, kind="stable")
    groups = d * (width + 1) + kkt.sum(-1)
    m = np.zeros((n, dim + width, width))
    s = np.zeros((n, dim + width))
    ready = np.zeros(n, dtype=bool)
    for group in dict.fromkeys(groups.tolist()):
        dg, r = divmod(group, width + 1)
        at = np.flatnonzero(groups == group)
        sel = order[at, :r]
        a = agents[at]
        g = rows[a[:, None], sel, :dg]
        system = np.zeros((len(at), dg + r, dg + r))
        system[:, :dg, :dg] = hessian[a, :dg, :dg]
        system[:, :dg, dg:] = g.transpose(0, 2, 1)
        system[:, dg:, :dg] = g
        inverse = _inverses(system)
        out = np.concatenate([np.arange(dg)[None].repeat(len(at), 0), dim + sel], axis=1)
        s[at[:, None], out] = (inverse[:, :, :dg] @ -linear[a, :dg, None])[..., 0]
        m[at[:, None, None], out[:, :, None], sel[:, None, :]] = -inverse[:, :, dg:]
        ready[at] = np.isfinite(inverse).all((1, 2))
    m[~ready] = 0.0
    s[~ready] = 0.0
    return m, s, kkt & ready[:, None], work, ineq & ~work, ready


@dataclass(frozen=True)
class StackedSolutions:
    """Agents' padded solutions z with their working sets, as ``WarmStart`` leaves them.

    Row a of ``z`` is agent i = a + 1's x in its first ``dims[a]`` entries,
    then from column ``dim`` its row multipliers in ``topology.constraints_of(i)``
    order (inequalities, then equalities, each ascending); ``work[a]`` marks
    the working inequality rows among them.  Holds arrays only, so keeping it
    keeps no batch and no topology alive.
    """

    z: np.ndarray
    work: np.ndarray
    dim: int
    dims: tuple[int, ...]

    def primal(self) -> np.ndarray:
        """The stacked primal vector x_1, ..., x_n."""
        return self.z[:, :self.dim][np.arange(self.dim) < np.array(self.dims)[:, None]]


class _SetTable:
    """Every working set a batch's solves have met, with its affine map, stacked.

    A set is an (agent, working-row mask) pair and gets an id on first use;
    ``agent``, ``m``, ``s``, ``kkt``, ``work``, ``free`` and ``ready`` hold
    each id's agent, map and masks (see ``_factors``), so a gather by id
    replaces a Python lookup per agent.  Maps are built from the batch's own
    stacked parameters, which ``AgentBatch.refresh`` overwrites in place.
    """

    def __init__(self, batch):
        dim, width, _ = batch.shape
        self.params = (batch.hessian, batch.linear, batch.rows, batch.counts)
        self.ids = {}  # an agent's and its mask's bytes -> id
        self.size = 0  # ids given so far
        self.agent = np.zeros(0, dtype=int)
        self.m = np.zeros((0, dim + width, width))
        self.s = np.zeros((0, dim + width))
        self.kkt = np.zeros((0, width), dtype=bool)
        self.work = np.zeros((0, width), dtype=bool)
        self.free = np.zeros((0, width), dtype=bool)
        self.ready = np.zeros(0, dtype=bool)

    def ids_of(self, agents, work=None) -> np.ndarray:
        """The ids of (agent, working-row mask) pairs, empty sets where ``work``
        is None; the new ones are factored together."""
        pairs = np.zeros((len(agents), 1 + self.work.shape[1]), dtype=int)
        pairs[:, 0] = agents
        if work is not None:
            pairs[:, 1:] = work
        keys = pairs.view(np.dtype((np.void, pairs.itemsize * pairs.shape[1]))).ravel().tolist()
        new = [key for key in dict.fromkeys(keys) if key not in self.ids]
        if new:
            start, stop = self.size, self.size + len(new)
            if stop > len(self.ready):
                for name in ("agent", "m", "s", "kkt", "work", "free", "ready"):
                    old = getattr(self, name)
                    grown = np.zeros((max(16, 2 * stop),) + old.shape[1:], dtype=old.dtype)
                    grown[:start] = old[:start]
                    setattr(self, name, grown)
            pairs = np.frombuffer(b"".join(new), dtype=int).reshape(len(new), -1)
            self.agent[start:stop] = pairs[:, 0]
            (self.m[start:stop], self.s[start:stop], self.kkt[start:stop],
             self.work[start:stop], self.free[start:stop], self.ready[start:stop]) = _factors(
                *self.params, pairs[:, 0], pairs[:, 1:].astype(bool))
            self.ids.update(zip(new, range(start, stop)))
            self.size = stop
        return np.array([self.ids[key] for key in keys], dtype=int)

    def gather(self, ids) -> tuple[np.ndarray, ...]:
        """m, s, kkt, work, free and ready of each id, gathered agent-contiguous, as a
        ``WarmStart`` keeps them."""
        return tuple(_by_agent(a[ids]) for a in (self.m, self.s, self.kkt, self.work,
                                                  self.free, self.ready))

    def moved(self, ids, moves) -> np.ndarray:
        """The id each set reaches by its ``_moves`` move: r adds row r, width + r drops it."""
        width = self.work.shape[1]
        work = self.work[ids]
        work[np.arange(len(ids)), moves % width] = moves < width
        return self.ids_of(self.agent[ids], work)


class AgentBatch:
    """Every agent's QP, compiled once from (problem, topology, weights), stacked.

    The one owner of the layout.  Agent a (0-based) is agent i = a + 1; its
    row r is constraint l, the r-th of ``topology.constraints_of(i)``, with
    the coefficients and base offset b_i^[l] of its row r in ``problem.blocks``
    and the weights p_ij over j in N_i^[l] minus i, in ``consensus_gap``'s order.
    Arrays are zero-padded to ``shape`` = (dim, width, reach): block
    dimension, rows and neighbours per row; so is a solution z: x in
    z[a, :dim], row r's multiplier in z[a, dim + r].  The stacked arrays are
    the one copy of the parameters, which ``refresh`` overwrites; ``counts``
    (n, 3) holds each agent's (block dimension, inequality rows, rows) and
    ``c_max`` its largest |c| entry, which the residual bound reads.  ``sets``
    holds every working set its solves have met with its affine map, and
    ``solve_rows`` is the lock-step active-set loop, which ``WarmStart``
    streams over it share.  Besides the stacked QPs it reads a stacked
    solution z (see ``StackedSolutions``) in one pass each: the objective,
    the coupled-row residuals, the primal vector and the multipliers in
    slack layout.
    """

    def __init__(self, problem, topology, weights):
        layout, reader, read = topology.layout, topology.reader, topology.read
        n, size, starts = problem.n_agents, layout.size, layout.starts
        agent = layout.members - 1  # each slack coordinate's 0-based agent
        sizes = starts[1:] - starts[:-1]
        constraint = np.arange(len(sizes)).repeat(sizes)
        # Agent rows are the coordinates agent by agent, each agent's in
        # constraints_of order (ascending): coordinate c is row[c] of its agent.
        coords = agent.argsort(kind="stable")
        n_rows = np.bincount(agent, minlength=n)
        row = np.empty(size, dtype=int)
        row[coords] = np.arange(size) - (n_rows.cumsum() - n_rows)[agent[coords]]
        n_ineq = np.bincount(agent[constraint < topology.m_ineq], minlength=n)
        hops = np.bincount(reader, minlength=size)
        dim, width = max(problem.dims), int(n_rows.max())
        reach = int(hops.max(initial=1)) - 1
        self.shape = (dim, width, reach)
        self.n_agents = n
        self.hessian = np.zeros((n, dim, dim))
        self.linear = np.zeros((n, dim))
        self.constant = np.zeros(n)
        self.rows = np.zeros((n, width, dim))
        self.base = np.zeros((n, width))
        self.by_shape = []  # the rank check's: agents by (rows, block dimension)
        for b in problem.blocks:
            agents, (_, k, d) = b.agents, b.rows.shape
            self.hessian[agents, :d, :d] = b.hessian
            self.linear[agents, :d] = b.linear
            self.constant[agents] = b.constant
            self.rows[agents, :k, :d] = b.rows
            self.base[agents, :k] = b.offsets
            if k:
                self.by_shape.append((k, d, agents))
        # Each agent row, agent by agent: its cell in a (n, width) array, its
        # slack coordinate (where its gap lands in a gradient) and its
        # constraint.  Rows and slack coordinates match one to one.
        cell = agent * width + row
        self.cells, self.coords, self.constraint = cell[coords], coords, constraint[coords]
        # The read pass, one read per hop: read k is agent readers[k]'s
        # (0-based) read of slack coordinate flat[k], into its buffer slot
        # slots[k]; a row reads its own value into slot 0, then its
        # neighbours' in ascending order, with the weights p_ij beside them.
        own = reader == read
        rank = np.arange(len(reader)) - (hops.cumsum() - hops)[reader]  # among the row's hops
        rank = np.where(own, 0, rank + (rank < rank[own][reader]))
        slot = cell[reader] * (reach + 1) + rank
        order = slot.argsort()
        self.slots, self.flat, self.readers = slot[order], read[order], agent[reader][order]
        # p_ij from the given weights' entries (Metropolis or not): constraint
        # l's k x k entries, concatenated, from corner[l - 1] + S k for its
        # first coordinate S, so hop (c, d) reads corner + c k + d.
        entries = np.concatenate([np.zeros(0), *(weights[l].entries.ravel() for l, k in
                                                 enumerate(sizes.tolist(), start=1) if k)])
        corner = (sizes ** 2).cumsum() - sizes ** 2 - starts[:-1] * (sizes + 1)
        c, d = reader[~own], read[~own]
        l = constraint[c]
        self.p = np.zeros((n, width, reach))
        self.p.reshape(-1)[cell[c] * reach + rank[~own] - 1] = entries[corner[l] + c * sizes[l] + d]
        # Per agent: (block dimension, inequality rows, rows).
        self.counts = np.column_stack((problem.dims, n_ineq, n_rows))
        self.c_max = np.abs(self.linear).max(-1, initial=0.0)
        self.dims = problem.dims
        self.m_ineq = topology.m_ineq
        self.n_constraints = topology.n_constraints
        self.x_mask = np.arange(dim) < np.array(self.dims)[:, None]
        self.size = size
        self.cap = 100 * np.maximum(1, n_ineq)
        self.sets = _SetTable(self)

    def refresh(self, linear, constant, coeffs, offsets) -> None:
        """Overwrite the parameters in place: a problem of the same structure.

        ``linear`` (n, dim) and ``constant`` (n,) are laid out like the
        attributes of those names; ``coeffs`` (R, dim), zero beyond each
        agent's block dimension, and ``offsets`` (R,) hold the R agent rows
        in ``cells`` order (agent by agent, each agent's rows in
        ``constraints_of`` order), which the batch scatters into ``rows`` and
        ``base``.  Every working set's map
        depends on the rows, so ``sets`` starts empty, and a stream over the
        batch goes on as a new one seeded with the sets it ended on:
        ``WarmStart(batch, stream.work)``.
        """
        self.linear[...] = linear
        self.c_max = np.abs(self.linear).max(-1, initial=0.0)
        self.constant[...] = constant
        self.rows.reshape(-1, self.shape[0])[self.cells] = coeffs
        self.base.reshape(-1)[self.cells] = offsets
        self.sets = _SetTable(self)

    def licq(self) -> LicqReport:
        """``validate_licq``'s report from the stacked rows, refreshed or not: one
        batched SVD per (rows, block dimension) group of ``by_shape``."""
        return licq_report(self.n_agents, ((agents, self.rows[agents, :k, :d])
                                           for k, d, agents in self.by_shape))

    def solve_rows(self, agents, offsets, start) -> tuple[np.ndarray, np.ndarray]:
        """The active-set loop, run in lock step over many rows.

        Row r is 0-based agent ``agents[r]``'s QP at ``offsets[r]``, started
        from the working set ``start[r]`` (an id in ``sets``); an agent may
        fill many rows.  Each iteration evaluates every pending row's set
        through its affine map (``_affine``, ``_residual_ok``: elementwise,
        so a row's bits do not depend on the rows around it), stops the rows
        ``_accepted`` and makes the ``_moves`` move on the rest, all at once.
        Each row keeps its own visited-set guard and cap of 100 x max(1, k_i)
        iterations.  Returns the padded solutions z and each row's final set
        id.  Raises the lowest failing row's diagnosis: ``_singular``,
        ``_revisited`` or ``_capped``.
        """
        agents = np.asarray(agents, dtype=int)
        ids = np.array(start, dtype=int)
        return self._lockstep(agents, offsets, ids, *self._evaluate(agents, offsets, ids))

    def _evaluate(self, agents, offsets, ids):
        """Each row's KKT solution for its set: (z, solved, row residuals).

        Solved: the set's KKT system is regular and its solution passes
        ``_residual_ok``'s bound.
        """
        sets = self.sets
        z = _affine(sets.m[ids], sets.s[ids], offsets)
        ok, row_residual = _residual_ok(self.hessian[agents], self.linear[agents],
                                        self.c_max[agents], self.rows[agents], sets.kkt[ids], z,
                                        offsets)
        return z, ok & sets.ready[ids], row_residual

    def _lockstep(self, agents, offsets, ids, zp, ok, row_residual):
        """``solve_rows`` given the ``_evaluate`` of the start sets ``ids``."""
        sets, dim = self.sets, self.shape[0]
        z = np.zeros((len(agents), dim + self.shape[1]))
        evaluated = np.ones(len(agents), dtype=int)
        history = [ids.copy()]  # every row's set at each evaluation
        pending = np.arange(len(agents))
        failed, error = len(agents), None
        while True:
            sid = ids[pending]
            free, work, mults = sets.free[sid], sets.work[sid], zp[:, dim:]
            done = ok & _accepted(free, work, row_residual, mults)
            z[pending[done]] = zp[done]
            stepping = ok & ~done
            rows = pending[stepping]
            if rows.size:
                new = sets.moved(sid[stepping], _moves(free[stepping], work[stepping],
                                                      row_residual[stepping],
                                                      mults[stepping]))
            else:
                new = rows
            seen = np.zeros(rows.size, dtype=bool)
            for past in history:
                seen |= past[rows] == new
            stop = seen | (evaluated[rows] > self.cap[agents[rows]])
            ids[rows] = new

            # Rows after a failed one no longer matter; the lowest failure's
            # diagnosis is raised once the rows before it are done.
            if not ok.all() or stop.any():
                unsolved = pending[~ok]
                first = int(np.concatenate([unsolved, rows[stop]]).min())
                if first < failed:
                    failed = first
                    agent = agents[failed]
                    if failed in unsolved:
                        d, k_i, k = self.counts[agent]
                        kkt_rows = np.r_[k_i:k, np.flatnonzero(sets.work[ids[failed]])]
                        error = _singular(self.hessian[agent, :d, :d],
                                          self.rows[agent, kkt_rows, :d])
                    elif failed in rows[seen]:
                        error = _revisited()
                    else:
                        error = _capped(int(self.cap[agent]))
            pending = rows[~stop]
            pending = pending[pending < failed]
            if not pending.size:
                break
            history.append(ids.copy())
            evaluated[pending] += 1
            zp, ok, row_residual = self._evaluate(agents[pending], offsets[pending],
                                                  ids[pending])
        if error is not None:
            raise error
        return z, ids

    def gaps(self, values) -> np.ndarray:
        """Every agent row's sum_j p_ij (v_i - v_j): (I - P^[l]) v, per row.

        ``values`` holds flat vectors in slack layout, one per leading index
        (elementwise, so each is what it gives alone).  Every agent reads the
        terms ``consensus_gap`` reads: the read pass, 0-based agent
        ``readers[k]``'s read of coordinate ``flat[k]``, which a run serves
        through ``simnet.ReadPass``.
        """
        _, width, reach = self.shape
        lead = values.shape[:-1]
        buf = np.zeros(lead + (self.n_agents * width * (reach + 1),))
        buf.T[self.slots] = values.T[self.flat]  # .T: the slack axis first
        buf = buf.reshape(lead + (self.n_agents, width, reach + 1))
        return _gap(self.p, buf[..., 0], buf[..., 1:])

    def offsets(self, values) -> np.ndarray:
        """Every agent's row offsets ``consensus_gap(l, i, ...) + b_i^[l]``, padded."""
        return self.gaps(values) + self.base

    def probed_offsets(self, values, agents, coords, probes) -> np.ndarray:
        """Row r: 0-based agent ``agents[r]``'s ``offsets`` at the flat vector
        ``values`` with coordinate ``coords[r]`` set to ``probes[r]``.

        Each row reads only its agent's hops (a run of the read pass, whose
        readers ascend), into a buffer laid out like one agent's of ``gaps``,
        so its bits are those of ``offsets`` at the probed vector.
        """
        agents, coords = np.asarray(agents, dtype=int), np.asarray(coords, dtype=int)
        probes = np.asarray(probes, dtype=float)
        _, width, reach = self.shape
        span = width * (reach + 1)  # one agent's read buffer
        ends = self.readers.searchsorted(np.arange(self.n_agents + 1))
        counts = ends[agents + 1] - ends[agents]
        row = np.repeat(np.arange(len(agents)), counts)
        read = np.arange(counts.sum()) + np.repeat(ends[agents] - (counts.cumsum() - counts),
                                                   counts)
        coord = self.flat[read]
        buf = np.zeros((len(agents), span))
        buf.reshape(-1)[row * span + self.slots[read] - agents[row] * span] = np.where(
            coord == coords[row], probes[row], values[coord])
        buf = buf.reshape(len(agents), width, reach + 1)
        return _gap(self.p[agents], buf[..., 0], buf[..., 1:]) + self.base[agents]

    def gradient(self, values) -> np.ndarray:
        """(I - P) v in slack layout, each entry bit-identical to ``consensus_gap``."""
        gaps = self.gaps(values)
        grad = np.zeros(gaps.shape[:-2] + (self.size,))
        grad.T[self.coords] = gaps.reshape(grad.shape[:-1] + (-1,)).T[self.cells]
        return grad

    def multipliers(self, z) -> np.ndarray:
        """Every agent's row multipliers in slack layout: what the multiplier exchange sends.

        z may stack solutions ahead of the agent axis; so does the answer.
        """
        flat = np.zeros(z.shape[:-2] + (self.size,))
        flat.T[self.coords] = z[..., self.shape[0]:].reshape(flat.shape[:-1] + (-1,)).T[self.cells]
        return flat

    def primal(self, z) -> np.ndarray:
        """The stacked primal vector x_1, ..., x_n of a stacked solution."""
        return z[:, :self.shape[0]][self.x_mask]

    def objective(self, z) -> float:
        """``objective_value`` of the stacked primal, bit for bit: every agent's
        ``cost_shares`` on the padded arrays, added up in agent order."""
        return float(np.sum(cost_shares(self.hessian, self.linear, self.constant,
                                        z[:, :self.shape[0]])))

    def residuals(self, z) -> tuple[np.ndarray, np.ndarray]:
        """``aggregate_violation`` of the stacked primal: (inequality rows, equality rows).

        Each coupled row is sum_i (A_i x_i + b_i): ``row_shares`` on the padded
        arrays, added up over its participants in ascending agent order.  z may
        be the padded primal (n, dim) alone, and may stack solutions ahead of
        the agent axis; so do the answers, each solution's rows summed in
        bins of their own, so each is what it gives alone.
        """
        shares = row_shares(self.rows, self.base, z[..., :self.shape[0]])
        lead, n_cons = shares.shape[:-2], self.n_constraints
        bins = self.constraint
        if lead:
            # Solution s's rows fall in bins of its own: s * n_cons + constraint.
            bins = (np.arange(math.prod(lead))[:, None] * n_cons + bins).ravel()
        rows = np.bincount(bins, weights=shares.reshape(lead + (-1,))[..., self.cells].ravel(),
                           minlength=math.prod(lead) * n_cons).reshape(lead + (n_cons,))
        return rows[..., :self.m_ineq], rows[..., self.m_ineq:]

    def violation(self, z) -> tuple[float, float]:
        """``max_violation`` of the stacked primal: worst inequality and equality residual.

        z may stack solutions ahead of the agent axis; then each answer is an
        array of the solutions' worst residuals.
        """
        return worst_residuals(*self.residuals(z))

    def dual_errors(self, grad) -> tuple[float, ...]:
        """Per constraint the 2-norm of a gradient's block, ||(I - P^[l]) mu^[l]||."""
        squares = np.bincount(self.constraint, weights=grad[self.coords] ** 2,
                              minlength=self.n_constraints)
        return tuple(np.sqrt(squares).tolist())

    def solutions(self, z, work) -> StackedSolutions:
        """Every agent's row of z with its working-row mask."""
        return StackedSolutions(z, work, self.shape[0], self.dims)


class WarmStart:
    """One stream of batched solves and its warm-start memory.

    Keeps each agent's last working set as an id in ``batch.sets``, with
    that set's map and masks stacked agent-contiguous: ``work`` marks each
    agent's working inequality rows.  ``work`` seeds the sets, for example
    with the ``work`` of a stream over an earlier batch of the same topology.
    """

    def __init__(self, batch: AgentBatch, work=None):
        self.batch = batch
        self.ids = batch.sets.ids_of(np.arange(batch.n_agents), work)
        self.m, self.s, self.kkt, self.work, self.free, self.ready = batch.sets.gather(self.ids)

    def solve_stacked(self, offsets) -> np.ndarray:
        """Solve every agent's QP at ``offsets``.

        Returns the padded solutions z, one row per agent (see
        ``StackedSolutions``).  One stacked pass evaluates each agent's last
        working set and keeps the solutions ``_accepted`` accepts there.
        The others go on in ``AgentBatch.solve_rows``'s lock-step loop, with
        this pass as its first iteration; their answers and final sets are
        written back in one scatter.
        """
        batch = self.batch
        z = _affine(self.m, self.s, offsets)
        solved, row_residual = _residual_ok(batch.hessian, batch.linear, batch.c_max, batch.rows,
                                            self.kkt, z, offsets)
        solved &= self.ready
        redo = np.flatnonzero(~(solved & _accepted(self.free, self.work, row_residual,
                                                   z[:, batch.shape[0]:])))
        if redo.size:
            # This pass is the loop's first iteration for the rows it rejects.
            z[redo], ids = batch._lockstep(redo, offsets[redo], self.ids[redo], z[redo],
                                           solved[redo], row_residual[redo])
            self.ids[redo] = ids
            (self.m[redo], self.s[redo], self.kkt[redo], self.work[redo], self.free[redo],
             self.ready[redo]) = batch.sets.gather(ids)
        return z
