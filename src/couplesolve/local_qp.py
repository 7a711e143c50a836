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
degeneracy error instead of an infinite loop.

From one round to the next only the offsets change.  ``AgentQP`` compiles
everything else once: H, c, the rows, their base offsets and the consensus
terms that turn neighbour slacks into offsets.  For a fixed working set W the
KKT solution is affine in the offsets, z = s_W + M_W off, and ``AgentQP``
caches that map per working set.  ``WarmStart.solve_stacked`` evaluates
every agent's map for the working set it ended on last time in one stacked
pass, accepts each solution that passes the active-set loop's own
termination test and residual bound, and hands the rest to the loop, started
from that set.  The loop then solves through the same cached maps, so an
answer depends only on its final working set and the offsets, never on where
the search started.

The answer is one stacked, padded array z, one row per agent, and
``AgentBatch`` computes from it what a round needs: the objective, the
coupled-row residuals, the multipliers each exchange sends and the
consensus-gap gradient.  ``KktSolution`` objects are built only on request,
by ``WarmStart.solve`` or ``StackedSolutions.kkt_solutions``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateSubproblemError,
    UnboundedSubproblemError,
)
from .problem import AgentObjective

# Residuals above this are treated as violated when growing the working set;
# multipliers below its negative are dropped.
_ADD_TOL = 1e-10
_DROP_TOL = 1e-11


@dataclass(frozen=True)
class LocalSubproblem:
    """One agent's QP with explicit row indices for bookkeeping."""

    objective: AgentObjective
    ineq_indices: tuple[int, ...]
    ineq_matrix: np.ndarray   # (k_i, d)
    ineq_offsets: np.ndarray  # (k_i,)
    eq_indices: tuple[int, ...]
    eq_matrix: np.ndarray     # (k_e, d)
    eq_offsets: np.ndarray    # (k_e,)

    @classmethod
    def build(cls, objective, ineq_rows, eq_rows) -> "LocalSubproblem":
        """From iterables of (index, coeffs, offset), sorted by index."""
        d = objective.dim

        def pack(rows):
            rows = sorted(rows, key=lambda r: r[0])
            idx = tuple(r[0] for r in rows)
            mat = np.array([r[1] for r in rows], dtype=float).reshape(len(rows), d)
            off = np.array([r[2] for r in rows], dtype=float)
            return idx, mat, off

        ii, im, io = pack(ineq_rows)
        ei, em, eo = pack(eq_rows)
        return cls(objective, ii, im, io, ei, em, eo)


@dataclass(frozen=True)
class KktSolution:
    """Exact optimizer of a LocalSubproblem with its unique multipliers."""

    x: np.ndarray
    ineq_multipliers: dict[int, float]
    eq_multipliers: dict[int, float]
    active_set: tuple[int, ...]

    def multiplier(self, l: int, m_ineq: int) -> float:
        """Multiplier addressed by combined constraint index."""
        if l <= m_ineq:
            return self.ineq_multipliers[l]
        return self.eq_multipliers[l - m_ineq]


def _kkt_solve(h, c, rows, rhs):
    """Solve [[H, G'], [G, 0]] (x, mult) = (-c, rhs); None when singular."""
    d = h.shape[0]
    k = rows.shape[0]
    kkt = np.zeros((d + k, d + k))
    kkt[:d, :d] = h
    kkt[:d, d:] = rows.T
    kkt[d:, :d] = rows
    target = np.concatenate([-c, rhs])
    try:
        sol = np.linalg.solve(kkt, target)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    # Near-singular systems pass numpy's exact-singularity check but leave a
    # large residual; reject those too.
    scale = 1.0 + np.abs(target).max(initial=0.0) + np.abs(sol).max(initial=0.0)
    if np.abs(kkt @ sol - target).max(initial=0.0) > 1e-8 * scale:
        return None
    return sol[:d], sol[d:]


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


def solve_kkt(sub: LocalSubproblem, start=(), qp: "AgentQP | None" = None) -> KktSolution:
    """Exactly minimize the subproblem via primal active-set iteration.

    ``start`` names the inequality rows (by index, like ``active_set``) of
    the first working set.  ``qp`` is any compiled KKT solver of ``sub``:
    ``qp.padded(beta, eta)`` lays out its offsets and ``qp.kkt_solve(working,
    offsets)`` gives ``_kkt_solve``'s answer for a working set (positions),
    or None.  ``AgentQP`` solves through cached per-set factors, the oracle's
    block solver through a Schur complement.

    Raises UnboundedSubproblemError when the Hessian is not positive definite
    on the equality nullspace (no unique bounded minimizer), and
    DegenerateSubproblemError when the working-set iteration cycles or hits
    its cap.
    """
    obj = sub.objective
    h, c = obj.hessian, obj.linear
    a, beta = sub.ineq_matrix, sub.ineq_offsets
    e, eta = sub.eq_matrix, sub.eq_offsets
    k_i = a.shape[0]

    position = {idx: pos for pos, idx in enumerate(sub.ineq_indices)}
    working = sorted(position[idx] for idx in start)  # positions into the inequality rows
    visited = {frozenset(working)}
    cap = 100 * max(1, k_i)
    if qp is not None:
        offsets = qp.padded(beta, eta)

    for _ in range(cap + 1):
        if qp is None:
            rhs = np.concatenate([-eta, -beta[working]])
            solved = _kkt_solve(h, c, np.vstack([e, a[working]]), rhs)
        else:
            solved = qp.kkt_solve(tuple(working), offsets)
        if solved is None:
            if not _reduced_curvature_ok(h, np.vstack([e, a[working]])):
                raise UnboundedSubproblemError(
                    "Hessian is not positive definite on the working-set "
                    "nullspace: subproblem unbounded or minimizer non-unique"
                )
            raise DegenerateSubproblemError("singular KKT system")
        x, mults = solved
        eq_mults = mults[: e.shape[0]]
        w_mults = mults[e.shape[0]:]

        if k_i:
            residual = a @ x + beta
            residual[working] = 0.0  # working rows are solved as equalities
            worst = int(np.argmax(residual))
            if residual[worst] > _ADD_TOL:
                working = sorted(working + [worst])
                key = frozenset(working)
                if key in visited:
                    raise DegenerateSubproblemError(
                        "active-set iteration revisited a working set"
                    )
                visited.add(key)
                continue

        if len(working) and w_mults.size and w_mults.min() < -_DROP_TOL:
            drop = int(np.argmin(w_mults))
            working = working[:drop] + working[drop + 1:]
            key = frozenset(working)
            if key in visited:
                raise DegenerateSubproblemError(
                    "active-set iteration revisited a working set"
                )
            visited.add(key)
            continue

        mu = {idx: 0.0 for idx in sub.ineq_indices}
        for pos, val in zip(working, w_mults):
            mu[sub.ineq_indices[pos]] = float(val)
        lam = {idx: float(val) for idx, val in zip(sub.eq_indices, eq_mults)}
        active = tuple(sub.ineq_indices[pos] for pos in working)
        return KktSolution(x, mu, lam, active)

    raise DegenerateSubproblemError(
        f"active-set iteration exceeded {cap} iterations"
    )


def _gap(p, own, v):
    """sum_k p[..., k] (own - v[..., k]), added up in k order from 0.0.

    The arithmetic of ``consensus_gap``: with the neighbours in its order
    and zero-weight padding after them, every entry is bit-identical to it.
    """
    gap = np.zeros(own.shape)
    for k in range(p.shape[-1]):
        gap = gap + p[..., k] * (own - v[..., k])
    return gap


def _affine(m, s, offsets):
    """s + m @ offsets, added up in offset order, one agent or stacked.

    Elementwise, so an agent's entries do not depend on the batch around it.
    """
    z = s.copy()
    for j in range(offsets.shape[-1]):
        z += m[..., j] * offsets[..., j, None]
    return z


def _residual_ok(h, c, rows, kkt, z, offsets):
    """``_kkt_solve``'s residual bound on padded solutions z = (x, multipliers).

    ``kkt`` marks the rows in the KKT system.  Works on one agent or on a
    stack; returns (bound holds, every row's residual rows @ x + offsets).
    """
    dim = h.shape[-1]
    x, mults = z[..., :dim], z[..., dim:]
    row_residual = np.einsum("...rd,...d->...r", rows, x) + offsets
    stationarity = (np.einsum("...ij,...j->...i", h, x)
                    + np.einsum("...rd,...r->...d", rows, mults) + c)
    residual = np.maximum(np.abs(stationarity).max(-1, initial=0.0),
                          np.abs(np.where(kkt, row_residual, 0.0)).max(-1, initial=0.0))
    target = np.maximum(np.abs(c).max(-1, initial=0.0),
                        np.abs(np.where(kkt, offsets, 0.0)).max(-1, initial=0.0))
    scale = 1.0 + target + np.abs(z).max(-1, initial=0.0)
    ok = (residual <= 1e-8 * scale) & np.isfinite(z).all(-1)
    return ok, row_residual


@dataclass(frozen=True)
class _Factor:
    """One working set's KKT solution as an affine map z = s + m @ offsets."""

    m: np.ndarray     # (dim + width, width)
    s: np.ndarray     # (dim + width,)
    kkt: np.ndarray   # rows in the KKT system: equalities and working inequalities
    work: np.ndarray  # working inequality rows
    free: np.ndarray  # inequality rows outside the working set


class AgentQP:
    """One agent's subproblem compiled once, everything but the offsets.

    Rows are the agent's inequalities then equalities, each ascending.  Row
    r of constraint l has the base offset b_i^[l] and the consensus terms
    (j, p_ij) over j in N_i^[l] minus i, ascending, the order
    ``consensus_gap`` visits them.  Arrays are zero-padded to ``shape`` =
    (dim, width, reach): block dimension, rows and neighbours per row, so a
    batch can stack its agents.  A solution z is padded the same way: x in
    z[:dim], row r's multiplier in z[dim + r].
    """

    def __init__(self, agent, problem, topology, weights, shape=None):
        cons = problem.constraints
        obj = problem.objectives[agent - 1]
        ineq = topology.agent_ineq_sets[agent - 1]
        eq = topology.agent_eq_sets[agent - 1]
        constraints = ineq + tuple(cons.m_ineq + q for q in eq)
        neighbours = [[j for j in topology.neighborhood(l, agent) if j != agent]
                      for l in constraints]
        if shape is None:
            shape = (obj.dim, len(constraints), max(map(len, neighbours), default=0))
        dim, width, reach = shape
        d = obj.dim

        self.objective = obj
        self.shape = shape
        self.constraints = constraints
        self.ineq_indices = ineq
        self.eq_indices = eq
        self.n_ineq = len(ineq)
        self.position = {idx: pos for pos, idx in enumerate(ineq)}
        self.hessian = np.zeros((dim, dim))
        self.hessian[:d, :d] = obj.hessian
        self.linear = np.zeros(dim)
        self.linear[:d] = obj.linear
        self.rows = np.zeros((width, dim))
        self.base = np.zeros(width)
        self.p = np.zeros((width, reach))
        # The read pass: row r's own value, then its neighbours', each into
        # its slot of a (width, reach + 1) buffer.
        self.keys, slots = [], []
        for r, (l, nbrs) in enumerate(zip(constraints, neighbours)):
            coeffs, b = cons.row(agent, l)
            self.rows[r, :d] = coeffs
            self.base[r] = b
            self.keys.append((l, agent))
            slots.append(r * (reach + 1))
            for k, j in enumerate(nbrs):
                self.p[r, k] = weights[l].weight(agent, j)
                self.keys.append((l, j))
                slots.append(r * (reach + 1) + k + 1)
        self.slots = np.array(slots, dtype=int)
        self._factors = {}

    def offsets(self, view) -> np.ndarray:
        """Row offsets ``consensus_gap(l, i, ..., view) + b_i^[l]``, padded."""
        _, width, reach = self.shape
        buf = np.zeros(width * (reach + 1))
        buf[self.slots] = [view[key] for key in self.keys]
        buf = buf.reshape(width, reach + 1)
        return _gap(self.p, buf[:, 0], buf[:, 1:]) + self.base

    def padded(self, ineq_offsets, eq_offsets) -> np.ndarray:
        offsets = np.zeros(self.shape[1])
        offsets[:self.n_ineq] = ineq_offsets
        offsets[self.n_ineq:len(self.constraints)] = eq_offsets
        return offsets

    def subproblem(self, offsets) -> LocalSubproblem:
        d, k_i, k = self.objective.dim, self.n_ineq, len(self.constraints)
        return LocalSubproblem(self.objective, self.ineq_indices, self.rows[:k_i, :d],
                               offsets[:k_i], self.eq_indices, self.rows[k_i:k, :d],
                               offsets[k_i:k])

    def factor(self, working: tuple) -> _Factor | None:
        """The cached affine map of a working set (positions); None when singular."""
        try:
            return self._factors[working]
        except KeyError:
            pass
        dim, width, _ = self.shape
        d, k_i, k = self.objective.dim, self.n_ineq, len(self.constraints)
        rows = [*range(k_i, k), *working]  # solve_kkt's order: equalities first
        g = self.rows[rows, :d]
        kkt = np.zeros((d + len(rows), d + len(rows)))
        kkt[:d, :d] = self.objective.hessian
        kkt[:d, d:] = g.T
        kkt[d:, :d] = g
        try:
            inverse = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            inverse = None
        factor = None
        if inverse is not None and np.isfinite(inverse).all():
            out = [*range(d), *(dim + r for r in rows)]
            m = np.zeros((dim + width, width))
            s = np.zeros(dim + width)
            s[out] = inverse[:, :d] @ -self.objective.linear
            m[np.ix_(out, rows)] = -inverse[:, d:]
            in_kkt = np.zeros(width, dtype=bool)
            in_kkt[rows] = True
            work = np.zeros(width, dtype=bool)
            work[list(working)] = True
            free = np.zeros(width, dtype=bool)
            free[:k_i] = True
            free[list(working)] = False
            factor = _Factor(m, s, in_kkt, work, free)
        self._factors[working] = factor
        return factor

    def kkt_solve(self, working: tuple, offsets):
        """``_kkt_solve`` through the cached factor: (x, multipliers) or None.

        The multipliers come in ``solve_kkt``'s order: equalities, then the
        working inequalities.
        """
        factor = self.factor(working)
        if factor is None:
            return None
        z = _affine(factor.m, factor.s, offsets)
        ok, _ = _residual_ok(self.hessian, self.linear, self.rows, factor.kkt, z, offsets)
        if not ok:
            return None
        dim, k = self.shape[0], len(self.constraints)
        return z[:self.objective.dim], z[[dim + r for r in (*range(self.n_ineq, k), *working)]]

    def stack(self, sol: KktSolution) -> np.ndarray:
        """A KktSolution as padded z: x, then the row multipliers in row order."""
        dim, width, _ = self.shape
        z = np.zeros(dim + width)
        z[:self.objective.dim] = sol.x
        z[dim:dim + len(self.constraints)] = (
            [sol.ineq_multipliers[idx] for idx in self.ineq_indices]
            + [sol.eq_multipliers[idx] for idx in self.eq_indices])
        return z


@dataclass(frozen=True)
class StackedSolutions:
    """Agents' padded solutions z with their working sets, as ``WarmStart`` leaves them.

    Row a of ``z`` is x in its first ``dims[a]`` entries, then the row
    multipliers (inequalities, then equalities, each ascending) from column
    ``dim``; ``work[a]`` marks the working inequality rows.  Holds arrays
    and the row indices only, so keeping it keeps no batch alive.
    """

    z: np.ndarray
    work: np.ndarray
    dim: int
    dims: tuple[int, ...]
    ineq_indices: tuple[tuple[int, ...], ...]
    eq_indices: tuple[tuple[int, ...], ...]

    def kkt_solutions(self) -> list[KktSolution]:
        out = []
        for z, mults, work, d, ineq, eq in zip(self.z, self.z[:, self.dim:].tolist(),
                                               self.work, self.dims, self.ineq_indices,
                                               self.eq_indices):
            k_i = len(ineq)
            out.append(KktSolution(z[:d], dict(zip(ineq, mults[:k_i])),
                                   dict(zip(eq, mults[k_i:k_i + len(eq)])),
                                   tuple(ineq[pos] for pos in np.flatnonzero(work))))
        return out


def assemble_subproblem(agent: int, problem, topology, weights,
                        slack_view) -> LocalSubproblem:
    """Fold the agent's slack shares into its local constraint offsets.

    ``slack_view`` maps (constraint index, neighbor) to that neighbor's slack
    value and must cover the agent's closed neighborhood in every constraint
    it participates in.  The offset of row l becomes

        sum_{j in N_i^[l]} p_ij (y_i - y_j) + b_i^[l],

    i.e. the consensus gap of the agent's slack plus its own offset share.
    """
    qp = AgentQP(agent, problem, topology, weights)
    return qp.subproblem(qp.offsets(slack_view))


class AgentBatch:
    """Every agent's compiled QP, padded to one shape and stacked.

    Built once per (problem, topology, weights); ``WarmStart`` streams over
    it share its agents' factor caches.  Besides the stacked QPs it reads a
    stacked solution z (see ``StackedSolutions``) in one pass each: the
    objective, the coupled-row residuals, the primal vector and the
    multipliers in slack layout.
    """

    def __init__(self, problem, topology, weights):
        from .slack import SlackLayout  # slack builds on this module

        agents = range(1, problem.n_agents + 1)
        shape = (
            max(problem.dims),
            max(len(topology.constraints_of(i)) for i in agents),
            max((len(topology.neighborhood(l, i)) - 1
                 for l in range(1, topology.n_constraints + 1)
                 for i in topology.participants_of(l)), default=0),
        )
        self.shape = shape
        self.qps = [AgentQP(i, problem, topology, weights, shape) for i in agents]
        self.hessian = np.stack([qp.hessian for qp in self.qps])
        self.linear = np.stack([qp.linear for qp in self.qps])
        self.constant = np.array([obj.constant for obj in problem.objectives], dtype=float)
        self.rows = np.stack([qp.rows for qp in self.qps])
        self.base = np.stack([qp.base for qp in self.qps])
        self.p = np.stack([qp.p for qp in self.qps])
        self.dims = problem.dims
        self.ineq_indices = topology.agent_ineq_sets
        self.eq_indices = topology.agent_eq_sets
        self.m_ineq = topology.m_ineq
        self.n_constraints = topology.n_constraints

        dim, width, reach = shape
        layout = SlackLayout.from_topology(topology)
        self.keys = [qp.keys for qp in self.qps]
        self.slots = np.array([a * width * (reach + 1) + slot
                               for a, qp in enumerate(self.qps) for slot in qp.slots],
                              dtype=int)
        self.flat = np.array([layout.index(l, j) for keys in self.keys for l, j in keys],
                             dtype=int)
        # Each agent row, agent by agent: its cell in a (n, width) array, its
        # slack coordinate (where its gap lands in a gradient) and its
        # constraint.  Rows and slack coordinates match one to one.
        self.cells = np.array([a * width + r for a, qp in enumerate(self.qps)
                               for r in range(len(qp.constraints))], dtype=int)
        self.coords = np.array([layout.index(l, a) for a, qp in enumerate(self.qps, start=1)
                                for l in qp.constraints], dtype=int)
        self.constraint = np.array([l - 1 for qp in self.qps for l in qp.constraints],
                                   dtype=int)
        self.x_mask = np.arange(dim) < np.array(self.dims)[:, None]
        self.size = layout.size

    def gaps(self, values) -> np.ndarray:
        """Every agent row's sum_j p_ij (v_i - v_j): (I - P^[l]) v, per row.

        ``values`` is either the agents' views, read key by key as
        ``consensus_gap`` reads them, or a flat vector in slack layout.
        """
        _, width, reach = self.shape
        buf = np.zeros(len(self.qps) * width * (reach + 1))
        if isinstance(values, np.ndarray):
            buf[self.slots] = values[self.flat]
        else:
            buf[self.slots] = [view[key] for view, keys in zip(values, self.keys)
                               for key in keys]
        buf = buf.reshape(len(self.qps), width, reach + 1)
        return _gap(self.p, buf[..., 0], buf[..., 1:])

    def offsets(self, values) -> np.ndarray:
        """Every agent's row offsets, each bit-identical to ``assemble_subproblem``'s."""
        return self.gaps(values) + self.base

    def gradient(self, values) -> np.ndarray:
        """(I - P) v in slack layout, each entry bit-identical to ``consensus_gap``."""
        grad = np.zeros(self.size)
        grad[self.coords] = self.gaps(values).reshape(-1)[self.cells]
        return grad

    def multipliers(self, z) -> np.ndarray:
        """Every agent's row multipliers in slack layout: what the multiplier exchange sends."""
        flat = np.zeros(self.size)
        flat[self.coords] = z[:, self.shape[0]:].reshape(-1)[self.cells]
        return flat

    def primal(self, z) -> np.ndarray:
        """The stacked primal vector x_1, ..., x_n of a stacked solution."""
        return z[:, :self.shape[0]][self.x_mask]

    def objective(self, z) -> float:
        """Sum over agents of 1/2 x'Hx + c'x + constant."""
        x = z[:, :self.shape[0]]
        hx = np.einsum("nij,nj->ni", self.hessian, x)
        values = np.einsum("ni,ni->n", 0.5 * hx + self.linear, x) + self.constant
        return float(values.sum())

    def residuals(self, z) -> tuple[np.ndarray, np.ndarray]:
        """``aggregate_violation`` of the stacked primal: (inequality rows, equality rows).

        Each coupled row is sum_i (A_i x_i + b_i), added up over its
        participants in agent order.
        """
        shares = np.einsum("nrd,nd->nr", self.rows, z[:, :self.shape[0]]) + self.base
        rows = np.bincount(self.constraint, weights=shares.reshape(-1)[self.cells],
                           minlength=self.n_constraints)
        return rows[:self.m_ineq], rows[self.m_ineq:]

    def violation(self, z) -> tuple[float, float]:
        """``max_violation`` of the stacked primal: worst inequality and equality residual."""
        ineq, eq = self.residuals(z)
        return max(float(ineq.max(initial=0.0)), 0.0), float(np.abs(eq).max(initial=0.0))

    def dual_errors(self, grad) -> tuple[float, ...]:
        """Per constraint the 2-norm of a gradient's block, ||(I - P^[l]) mu^[l]||."""
        squares = np.bincount(self.constraint, weights=grad[self.coords] ** 2,
                              minlength=self.n_constraints)
        return tuple(np.sqrt(squares).tolist())

    def solutions(self, z, work, agents=None) -> StackedSolutions:
        """z and the working-row masks of all agents, or of the listed ones, row by row."""
        if agents is None:
            dims, ineq, eq = self.dims, self.ineq_indices, self.eq_indices
        else:
            dims = tuple(self.dims[a] for a in agents)
            ineq = tuple(self.ineq_indices[a] for a in agents)
            eq = tuple(self.eq_indices[a] for a in agents)
        return StackedSolutions(z, work, self.shape[0], dims, ineq, eq)


class WarmStart:
    """One stream of batched solves and its warm-start memory.

    Keeps each agent's last working set (positions into its inequality
    rows) with that set's factor, stacked.  ``working`` seeds the sets, for
    example from a stream over an earlier batch of the same topology.
    """

    def __init__(self, batch: AgentBatch, working=None):
        n = len(batch.qps)
        dim, width, _ = batch.shape
        self.batch = batch
        self.working = [()] * n
        self.m = np.zeros((n, dim + width, width))
        self.s = np.zeros((n, dim + width))
        self.kkt = np.zeros((n, width), dtype=bool)
        self.work = np.zeros((n, width), dtype=bool)
        self.free = np.zeros((n, width), dtype=bool)
        self.ready = np.zeros(n, dtype=bool)
        for a in range(n):
            self._use(a, () if working is None else working[a])

    def _use(self, a: int, working: tuple) -> None:
        factor = self.batch.qps[a].factor(working)
        self.working[a] = working
        self.ready[a] = factor is not None
        if factor is not None:
            self.m[a], self.s[a] = factor.m, factor.s
            self.kkt[a], self.work[a], self.free[a] = factor.kkt, factor.work, factor.free

    def solve_stacked(self, offsets, agents=None) -> np.ndarray:
        """Solve every agent's QP, or the listed 0-based ``agents``, at ``offsets``.

        Returns the padded solutions z, one row per agent (see
        ``StackedSolutions``).  One stacked pass evaluates each agent's last
        working set and keeps the solutions that pass ``solve_kkt``'s
        termination test and residual bound; ``solve_kkt``, started from
        that set, solves the others, and their answers are written into z.
        """
        sel = slice(None) if agents is None else np.asarray(agents, dtype=int)
        batch = self.batch
        z = _affine(self.m[sel], self.s[sel], offsets)
        ok, row_residual = _residual_ok(batch.hessian[sel], batch.linear[sel],
                                        batch.rows[sel], self.kkt[sel], z, offsets)
        ok &= self.ready[sel]
        ok &= np.where(self.free[sel], row_residual, -np.inf).max(-1, initial=-np.inf) <= _ADD_TOL
        mults = z[:, batch.shape[0]:]
        ok &= np.where(self.work[sel], mults, np.inf).min(-1, initial=np.inf) >= -_DROP_TOL

        for row in np.flatnonzero(~ok).tolist():
            a = row if agents is None else agents[row]
            qp = batch.qps[a]
            start = tuple(qp.ineq_indices[pos] for pos in self.working[a])
            sol = solve_kkt(qp.subproblem(offsets[row]), start, qp)
            self._use(a, tuple(qp.position[idx] for idx in sol.active_set))
            z[row] = qp.stack(sol)
        return z

    def solve(self, offsets, agents=None) -> list[KktSolution]:
        """``solve_stacked``'s answer as one KktSolution per agent."""
        z = self.solve_stacked(offsets, agents)
        sel = slice(None) if agents is None else np.asarray(agents, dtype=int)
        return self.batch.solutions(z, self.work[sel], agents).kkt_solutions()


@dataclass(frozen=True)
class KktReport:
    """Worst-case residuals of the KKT conditions at a candidate solution."""

    stationarity: float
    primal_ineq: float       # max positive inequality residual
    primal_eq: float         # max |equality residual|
    dual: float              # max negative inequality multiplier, as >= 0
    complementarity: float   # max |mu_m * residual_m|

    def ok(self, tol: float = 1e-9, dual_tol: float = 1e-12) -> bool:
        return (
            self.stationarity <= tol
            and self.primal_ineq <= tol
            and self.primal_eq <= tol
            and self.dual <= dual_tol
            and self.complementarity <= tol
        )


def verify_kkt(sub: LocalSubproblem, sol: KktSolution) -> KktReport:
    """Recompute all KKT residuals of a solution against its subproblem."""
    obj = sub.objective
    grad = obj.hessian @ sol.x + obj.linear
    for idx, row in zip(sub.ineq_indices, sub.ineq_matrix):
        grad = grad + sol.ineq_multipliers[idx] * row
    for idx, row in zip(sub.eq_indices, sub.eq_matrix):
        grad = grad + sol.eq_multipliers[idx] * row

    if sub.ineq_indices:
        residual = sub.ineq_matrix @ sol.x + sub.ineq_offsets
        mu = np.array([sol.ineq_multipliers[i] for i in sub.ineq_indices])
        primal_ineq = float(np.max(residual, initial=0.0))
        dual = float(max(0.0, -mu.min()))
        comp = float(np.max(np.abs(mu * residual), initial=0.0))
    else:
        primal_ineq, dual, comp = 0.0, 0.0, 0.0
    if sub.eq_indices:
        primal_eq = float(np.max(np.abs(sub.eq_matrix @ sol.x + sub.eq_offsets)))
    else:
        primal_eq = 0.0
    return KktReport(
        stationarity=float(np.max(np.abs(grad), initial=0.0)),
        primal_ineq=max(primal_ineq, 0.0),
        primal_eq=primal_eq,
        dual=dual,
        complementarity=comp,
    )
