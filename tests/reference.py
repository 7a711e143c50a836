"""References the library's array paths are checked against.

The scalar active-set solver: ``solve_kkt`` on a ``LocalSubproblem``, with
its dict-keyed record ``KktSolution``, and ``verify_kkt``'s ``KktReport`` of
every KKT residual.  It applies the loop's rules one step at a time, written
out (the library keeps them in ``local_qp._accepted`` and ``_moves``), and
solves each working set by ``lu_kkt_solve`` (one LU factorization) or through
any compiled KKT solver's ``qp`` protocol.  The library runs the same
subproblem through ``solve_rows_cold`` (a one-agent ``AgentBatch``, solved by
``solve_rows`` from the empty working set) and ``centralized_kkt``
(``solve_centralized`` on the one-agent problem).

``cold_active_set``: the library's rules as a short array loop over any
evaluation of a working set (``_moves`` per step, ``_accepted`` to stop, the
lock-step loop's guard and cap), from the empty set: the search the oracle's
primal-dual proposals must agree with in constraint space.

``AgentView``: one agent of a compiled ``AgentBatch`` as a scalar QP, with
``solve_kkt``'s ``qp`` protocol: the scalar reference of ``solve_rows``.

The set table written pair by pair: ``scalar_factors`` lists each (agent,
working positions) pair's KKT rows in a loop, equalities then working rows,
and ``scalar_moved`` applies a ``_moves`` move to a pair's positions;
``local_qp._factors`` and ``_SetTable.moved`` must reproduce them bit for
bit (``set_keys`` reads a table's sets back as such pairs).  The verdicts
written row by row in Python floats: ``row_residual_ok``, ``row_accepted``
and ``row_move``, numpy's NaN and lowest-index rules spelled out, which
``_residual_ok``, ``_accepted`` and ``_moves`` must match in any layout.
One agent's cost written term by term: ``row_cost``, which
``problem.cost_shares`` must match in any layout and padding.

``dense_oracle``: cold ``solve_kkt`` on the stacked ``LocalSubproblem`` built
from ``stacked_arrays``: one dense KKT factorization per working set, the
stacked Hessian validated whole, dependent equality rows reduced to
least-squares multipliers.  ``solve_centralized`` must agree with it; with
``solve_rows_cold`` in place of ``solve_kkt`` it is the oracle's dense path
written out.  ``scalar_duality_gap``: the dual value agent by agent, one
``lstsq`` and one written-out Lagrangian cost each, which ``duality_gap``
must match to roundoff, with the same +inf verdicts.
``scalar_stacked_arrays`` builds the same stacked program agent by agent:
``block_diag`` over the objectives, each agent's stored rows scattered into
its columns, and the offsets summed agent by agent; ``stacked_arrays``, which
scatters ``ProblemSpec.blocks``, must reproduce it bit for bit.

The per-agent references of a round: every agent's ``KktSolution`` from
``solve_kkt`` on its ``AgentView`` from the empty working set, their
objective summed through ``AgentObjective.value``, their multipliers read
through ``KktSolution.multiplier`` and the gradient formed coordinate by
coordinate with ``consensus_gap``, as each agent forms its own.

The set-up's scalar loops, which the batched set-up must reproduce bit for
bit: ``scalar_induce_topology`` (``stored_row`` per (agent, constraint) pair, a
scan of every graph edge per constraint, and the hops read off each
participant's ``scalar_neighborhood``, a scan of every induced edge),
``scalar_check_connectivity`` (a search along the hops from each
constraint's first coordinate, set by set),
``scalar_metropolis`` (the Metropolis weights constraint by constraint, each
diagonal 1 minus its row's sum), ``scalar_validate_licq`` (one
SVD per agent), ``scalar_operator_norms`` (one ``eigvalsh`` per constraint)
and ``scalar_lipschitz_bound`` (one ``eigvalsh`` per agent with rows).

The filter QP built row by row: ``rowwise_step_problem`` adds each
barrier's rows one agent at a time, with the offset arithmetic of both alpha
branches written out; ``cbf._FilterRows`` must build the same problem.
``pairwise_step`` is ``_FilterRows.at`` pair by pair (the consensus inputs
from ``scalar_nominal_consensus``, agent by agent, and one 2-vector dot
per squared norm), whose arrays ``at`` must give bit for bit.

The closed loop rebuilt at every step: ``rebuilt_closed_loop`` assembles
each step's filter QP with ``rowwise_step_problem``, checks it with
``validate_licq``, compiles a fresh ``AgentBatch`` with two fresh
``WarmStart`` streams and checks the applied input with ``max_violation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from couplesolve import (AgentObjective, CouplingConstraints, Graph, ProblemSpec, SlackLayout,
                         build_weights, consensus_gap, induce_topology, max_violation,
                         objective_value, solve_centralized, validate_licq)
from couplesolve.algorithms import AdaConfig, AdaState, iterate_rounds
from couplesolve.cbf import ClosedLoopResult, _Step, euler_step
from couplesolve.exceptions import RankDeficiencyError, ValidationError
from couplesolve.graph import ConnectivityReport, ConstraintTopology, WeightMatrix
from couplesolve.local_qp import (_ADD_TOL, _DROP_TOL, AgentBatch, WarmStart, _accepted, _affine,
                                  _capped, _gap, _inverses, _moves, _residual_ok, _revisited,
                                  _singular)
from couplesolve.oracle import stacked_arrays
from couplesolve.problem import AgentRankInfo, LicqReport, full_row_rank
from couplesolve.simnet import Exchange, Neighborhoods, SimnetTransport

_DUAL_TOL = 1e-12  # KktReport.ok's bound on a negative inequality multiplier


def lu_kkt_solve(h, c, rows, rhs):
    """Solve [[H, G'], [G, 0]] (x, mult) = (-c, rhs) by LU; None when singular."""
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


@dataclass(frozen=True)
class KktSolution:
    """One agent's optimizer with its multipliers, keyed by constraint index.

    Inequality rows are keyed by their indices, equality rows likewise, and
    ``active_set`` lists the working inequality rows ascending.
    """

    x: np.ndarray
    ineq_multipliers: dict[int, float]
    eq_multipliers: dict[int, float]
    active_set: tuple[int, ...]

    def multiplier(self, l: int, m_ineq: int) -> float:
        """Multiplier addressed by combined constraint index."""
        if l <= m_ineq:
            return self.ineq_multipliers[l]
        return self.eq_multipliers[l - m_ineq]


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


def solve_kkt(sub: LocalSubproblem, start=(), qp=None) -> KktSolution:
    """Exactly minimize the subproblem via primal active-set iteration.

    ``start`` names the inequality rows (by index, like ``active_set``) of
    the first working set.  ``qp`` is any compiled KKT solver of ``sub``:
    ``qp.padded(beta, eta)`` lays out its offsets and ``qp.kkt_solve(working,
    offsets)`` gives ``lu_kkt_solve``'s answer for a working set (positions),
    or None; ``AgentView`` solves through the batch's per-set affine maps.

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
            solved = lu_kkt_solve(h, c, np.vstack([e, a[working]]), rhs)
        else:
            solved = qp.kkt_solve(tuple(working), offsets)
        if solved is None:
            raise _singular(h, np.vstack([e, a[working]]))
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
                    raise _revisited()
                visited.add(key)
                continue

        if len(working) and w_mults.size and w_mults.min() < -_DROP_TOL:
            drop = int(np.argmin(w_mults))
            working = working[:drop] + working[drop + 1:]
            key = frozenset(working)
            if key in visited:
                raise _revisited()
            visited.add(key)
            continue

        mu = {idx: 0.0 for idx in sub.ineq_indices}
        for pos, val in zip(working, w_mults):
            mu[sub.ineq_indices[pos]] = float(val)
        lam = {idx: float(val) for idx, val in zip(sub.eq_indices, eq_mults)}
        active = tuple(sub.ineq_indices[pos] for pos in working)
        return KktSolution(x, mu, lam, active)

    raise _capped(cap)


@dataclass(frozen=True)
class KktReport:
    """Worst-case residuals of the KKT conditions at a candidate solution."""

    stationarity: float
    primal_ineq: float       # max positive inequality residual
    primal_eq: float         # max |equality residual|
    dual: float              # max negative inequality multiplier, as >= 0
    complementarity: float   # max |mu_m * residual_m|

    def ok(self, tol: float = 1e-9) -> bool:
        return (
            self.stationarity <= tol
            and self.primal_ineq <= tol
            and self.primal_eq <= tol
            and self.dual <= _DUAL_TOL
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


def one_agent_problem(sub: LocalSubproblem) -> ProblemSpec:
    """``sub`` as a one-agent problem, its inequality and equality rows renumbered 1, 2, ..."""
    cons = CouplingConstraints(1, m_ineq=len(sub.ineq_indices), q_eq=len(sub.eq_indices))
    for m, (coeffs, offset) in enumerate(zip(sub.ineq_matrix, sub.ineq_offsets), start=1):
        cons.add_ineq_row(1, m, coeffs, offset)
    for q, (coeffs, offset) in enumerate(zip(sub.eq_matrix, sub.eq_offsets), start=1):
        cons.add_eq_row(1, q, coeffs, offset)
    return ProblemSpec((sub.objective,), cons, Graph.from_edges(1, ()))


def _keyed(sub, x, ineq, eq, working) -> KktSolution:
    """A solution of ``sub`` with its multipliers and working rows keyed by ``sub``'s indices."""
    return KktSolution(x, dict(zip(sub.ineq_indices, np.asarray(ineq).tolist())),
                       dict(zip(sub.eq_indices, np.asarray(eq).tolist())),
                       tuple(sub.ineq_indices[p] for p in working))


def solve_rows_cold(sub: LocalSubproblem) -> KktSolution:
    """``AgentBatch.solve_rows`` on ``sub`` alone, from the empty working set."""
    problem = one_agent_problem(sub)
    topology = induce_topology(problem, problem.graph)
    batch = AgentBatch(problem, topology, build_weights(topology))
    z, ids = batch.solve_rows([0], batch.base, batch.sets.ids_of([0]))
    d, k_i, k = batch.counts[0].tolist()
    mults = z[0, batch.shape[0]:]
    return _keyed(sub, z[0, :d], mults[:k_i], mults[k_i:k], set_keys(batch.sets)[ids[0]][1])


def centralized_kkt(sub: LocalSubproblem) -> KktSolution:
    """``solve_centralized`` on ``sub`` alone."""
    sol = solve_centralized(one_agent_problem(sub))
    return _keyed(sub, sol.x, sol.ineq_multipliers, sol.eq_multipliers,
                  [m - 1 for m in sol.active_set])


class AgentView:
    """0-based agent ``a`` of ``batch`` as one scalar QP, read from the batch's arrays.

    ``topology`` names the slack coordinates the agent reads, so ``offsets``
    takes a one-hop view keyed by (constraint, agent).  Offsets are padded as in the batch.
    """

    def __init__(self, batch, topology, a):
        d, self.n_ineq, self.n_rows = batch.counts[a].tolist()
        self.batch, self.a, self.shape = batch, a, batch.shape
        rows, m = topology.constraints_of(a + 1), topology.m_ineq
        self.ineq_indices = tuple(l for l in rows if l <= m)
        self.eq_indices = tuple(l - m for l in rows if l > m)
        self.position = {idx: pos for pos, idx in enumerate(self.ineq_indices)}
        self.objective = AgentObjective(batch.hessian[a, :d, :d].copy(),
                                        batch.linear[a, :d].copy(), float(batch.constant[a]))
        # Slack coordinate k is the k-th (constraint, participant) pair.
        names = [(l, j) for l in range(1, topology.n_constraints + 1)
                 for j in topology.participants_of(l)]
        mine = batch.readers == a
        self.keys = [names[c] for c in batch.flat[mine]]
        self.slots = batch.slots[mine] - a * batch.shape[1] * (batch.shape[2] + 1)

    def offsets(self, view) -> np.ndarray:
        """Row offsets ``consensus_gap(l, i, ..., view) + b_i^[l]``, padded."""
        _, width, reach = self.shape
        buf = np.zeros(width * (reach + 1))
        buf[self.slots] = [view[key] for key in self.keys]
        buf = buf.reshape(width, reach + 1)
        return _gap(self.batch.p[self.a], buf[:, 0], buf[:, 1:]) + self.batch.base[self.a]

    def padded(self, ineq_offsets, eq_offsets) -> np.ndarray:
        return np.concatenate([ineq_offsets, eq_offsets, np.zeros(self.shape[1] - self.n_rows)])

    def subproblem(self, offsets) -> LocalSubproblem:
        rows, d, k_i, k = self.batch.rows[self.a], self.objective.dim, self.n_ineq, self.n_rows
        return LocalSubproblem(self.objective, self.ineq_indices, rows[:k_i, :d],
                               offsets[:k_i], self.eq_indices, rows[k_i:k, :d],
                               offsets[k_i:k])

    def kkt_solve(self, working: tuple, offsets):
        """``lu_kkt_solve`` through the working set's affine map: (x, multipliers) or None.

        The multipliers come in ``solve_kkt``'s order: equalities, then the
        working inequalities.
        """
        h, c, rows = (array[self.a] for array in (self.batch.hessian, self.batch.linear,
                                                  self.batch.rows))
        m, s, kkt, _, _, ready = scalar_factors(h[None], c[None], rows[None],
                                                [self.batch.counts[self.a]], [(0, working)])
        z = _affine(m[0], s[0], offsets)
        if not (ready[0] and _residual_ok(h, c, self.batch.c_max[self.a], rows, kkt[0], z,
                                          offsets)[0]):
            return None
        kept = [self.shape[0] + r for r in (*range(self.n_ineq, self.n_rows), *working)]
        return z[:self.objective.dim], z[kept]


def scalar_factors(hessian, linear, rows, counts, pairs):
    """``local_qp._factors`` pair by pair: the affine maps of (agent, working
    positions) pairs, with ``counts[agent]`` the agent's (block dimension,
    inequality rows, rows).

    Each pair's KKT rows are listed in a loop, equalities then working rows;
    pairs with the same block dimension and KKT row count share one stacked
    inverse.  Returns m, s, kkt, work, free and ready as ``_factors`` does.
    """
    n = len(pairs)
    width, dim = rows.shape[-2:]
    m = np.zeros((n, dim + width, width))
    s = np.zeros((n, dim + width))
    kkt = np.zeros((n, width), dtype=bool)
    work = np.zeros((n, width), dtype=bool)
    free = np.zeros((n, width), dtype=bool)
    ready = np.zeros(n, dtype=bool)
    groups = {}
    for j, (agent, working) in enumerate(pairs):
        d, k_i, k = (int(v) for v in counts[agent])
        kkt_rows = (*range(k_i, k), *working)  # equalities, then working rows
        groups.setdefault((d, len(kkt_rows)), []).append((j, agent, kkt_rows))
        free[j, :k_i] = True
    for (d, r), members in groups.items():
        at = np.array([j for j, _, _ in members], dtype=int)
        agents = np.array([agent for _, agent, _ in members], dtype=int)
        sel = np.array([kkt_rows for _, _, kkt_rows in members], dtype=int).reshape(len(at), r)
        g = rows[agents[:, None], sel, :d]
        system = np.zeros((len(at), d + r, d + r))
        system[:, :d, :d] = hessian[agents, :d, :d]
        system[:, :d, d:] = g.transpose(0, 2, 1)
        system[:, d:, :d] = g
        inverse = _inverses(system)
        solved = np.isfinite(inverse).all((1, 2))
        at, agents, sel, inverse = at[solved], agents[solved], sel[solved], inverse[solved]
        out = np.concatenate([np.broadcast_to(np.arange(d), (len(at), d)), dim + sel], axis=1)
        s[at[:, None], out] = (inverse[:, :, :d] @ -linear[agents, :d, None])[..., 0]
        m[at[:, None, None], out[:, :, None], sel[:, None, :]] = -inverse[:, :, d:]
        kkt[at[:, None], sel] = True
        ready[at] = True
    for j, (_, working) in enumerate(pairs):
        work[j, list(working)] = True
        free[j, list(working)] = False
    return m, s, kkt, work, free, ready


def work_of(working, width) -> np.ndarray:
    """Working sets as positions, one per row, as the rows of a (rows, width) mask."""
    work = np.zeros((len(working), width), dtype=bool)
    for row, positions in enumerate(working):
        work[row, list(positions)] = True
    return work


def working_of(work) -> list[tuple]:
    """Each row's working set as positions: the True entries of a mask row, ascending."""
    return [tuple(np.flatnonzero(row).tolist()) for row in np.asarray(work)]


def set_keys(table) -> list[tuple]:
    """Every set a ``_SetTable`` has given an id, in id order, as (agent, working positions)."""
    return list(zip(table.agent[:table.size].tolist(), working_of(table.work[:table.size])))


def scalar_moved(keys, width, ids, moves) -> list[tuple]:
    """``_SetTable.moved`` on (agent, working positions) keys: the key each id's
    set reaches by its ``_moves`` move, r adding row r and width + r dropping it."""
    out = []
    for sid, move in zip(np.asarray(ids).tolist(), np.asarray(moves).tolist()):
        agent, working = keys[sid]
        if move < width:
            working = tuple(sorted((*working, move)))
        else:
            working = tuple(p for p in working if p != move - width)
        out.append((agent, working))
    return out



def _max(values, initial):
    """numpy's max of floats in Python: NaN if any is NaN, else the largest or ``initial``."""
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=initial)


def _min(values, initial):
    """numpy's min of floats in Python: NaN if any is NaN, else the smallest or ``initial``."""
    if any(math.isnan(v) for v in values):
        return math.nan
    return min(values, default=initial)


def _first(values, better) -> int:
    """numpy's argmax/argmin in Python: the first NaN, else the first entry no
    other entry is ``better`` than (the lowest index on ties, +0.0 tying -0.0)."""
    for i, v in enumerate(values):
        if math.isnan(v):
            return i
    best = 0
    for i, v in enumerate(values):
        if better(v, values[best]):
            best = i
    return best


def row_residual_ok(h, c, rows, kkt, z, offsets):
    """``local_qp._residual_ok`` on one row in Python floats: (bound holds, row residuals).

    Each row residual and stationarity entry is added up term by term from
    0.0 in the library's order; the bound compares the largest residual with
    1e-8 x (1 + the largest |c| or working offset + the largest |z|), and
    every z entry must be finite.
    """
    h, c, rows, z, offsets = (np.asarray(v, dtype=float).tolist()
                              for v in (h, c, rows, z, offsets))
    kkt = np.asarray(kkt, dtype=bool).tolist()
    dim = len(c)
    x, mults = z[:dim], z[dim:]
    residual = []
    for row, offset in zip(rows, offsets):
        acc = 0.0
        for j in range(dim):
            acc += row[j] * x[j]
        residual.append(acc + offset)
    stationarity = []
    for i in range(dim):
        acc = 0.0
        for j in range(dim):
            acc += h[i][j] * x[j]
        for r, row in enumerate(rows):
            acc += row[i] * mults[r]
        stationarity.append(acc + c[i])
    worst = _max([abs(v) for v in stationarity]
                 + [abs(v) if k else 0.0 for v, k in zip(residual, kkt)], 0.0)
    target = _max([abs(v) for v in c] + [abs(v) if k else 0.0 for v, k in zip(offsets, kkt)],
                  0.0)
    scale = 1.0 + target + _max([abs(v) for v in z], 0.0)
    ok = worst <= 1e-8 * scale and all(math.isfinite(v) for v in z)
    return ok, residual


def row_accepted(free, work, residual, mults) -> bool:
    """``local_qp._accepted`` on one row in Python floats."""
    violation = [float(v) if f else -math.inf for v, f in zip(residual, free)]
    spread = [float(v) if w else math.inf for v, w in zip(mults, work)]
    return _max(violation, -math.inf) <= _ADD_TOL and _min(spread, math.inf) >= -_DROP_TOL


def row_move(free, work, residual, mults) -> int:
    """``local_qp._moves`` on one row in Python floats: r adds free row r, the
    most violated; width + r drops working row r, the most negative multiplier."""
    violation = [float(v) if f else -math.inf for v, f in zip(residual, free)]
    spread = [float(v) if w else math.inf for v, w in zip(mults, work)]
    if _max(violation, -math.inf) > _ADD_TOL:
        return _first(violation, lambda a, b: a > b)
    return len(free) + _first(spread, lambda a, b: a < b)


def row_cost(h, c, constant, x) -> float:
    """``problem.cost_shares`` on one agent in Python floats: g_i = sum_j
    (h_ij / 2) x_j + c_i, then sum_i g_i x_i + constant, each sum added up
    term by term from 0.0 in coordinate order."""
    h, c, x = (np.asarray(v, dtype=float).tolist() for v in (h, c, x))
    g = []
    for row, ci in zip(h, c):
        acc = 0.0
        for hij, xj in zip(row, x):
            acc += 0.5 * hij * xj
        g.append(acc + ci)
    acc = 0.0
    for gi, xi in zip(g, x):
        acc += gi * xi
    return acc + float(constant)


def cold_active_set(evaluate, n_ineq):
    """The active-set loop on one program as an array loop, cold from the empty set.

    ``evaluate(working)`` solves a working set's KKT system and returns
    (multipliers, inequality residuals, ...): the multipliers of the
    equalities, then of the working rows.  Each step is ``_moves``' (add the
    most violated free row, else drop the most negative working multiplier,
    lowest index on ties), a set ``_accepted`` ends the search, and the
    visited-set guard and the cap of 100 x max(1, m) sets raise what
    ``AgentBatch.solve_rows`` raises.  Returns (the accepted set's
    evaluation, working).
    """
    working, visited, cap = (), {()}, 100 * max(1, n_ineq)
    for _ in range(cap + 1):
        solved = evaluate(working)
        mults, residual = solved[:2]
        work = np.zeros(n_ineq, dtype=bool)
        work[list(working)] = True
        spread = np.zeros(n_ineq)
        spread[list(working)] = mults[len(mults) - len(working):]
        if _accepted(~work, work, residual, spread):
            return solved, working
        move = int(_moves(~work, work, residual, spread))
        if move < n_ineq:
            working = tuple(sorted((*working, move)))
        else:
            working = tuple(p for p in working if p != move - n_ineq)
        if working in visited:
            raise _revisited()
        visited.add(working)
    raise _capped(cap)


def dense_oracle(problem, solve=solve_kkt):
    """(x, value, inequality multipliers, equality multipliers, active set,
    whether the multipliers are unique) of ``solve`` on the stacked
    ``LocalSubproblem``: ``solve_kkt``, one LU factorization per working
    set, or ``solve_rows_cold``."""
    h, c, const, a, b, e, g = stacked_arrays(problem)
    basis = None
    if e.shape[0]:
        u, sv, _ = np.linalg.svd(e @ e.T)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
        if rank < e.shape[0]:
            basis = u[:, :rank]
            e, g = basis.T @ e, basis.T @ g
    objective = AgentObjective(h, c, const)
    sub = LocalSubproblem.build(objective,
                                [(m + 1, a[m], b[m]) for m in range(a.shape[0])],
                                [(k + 1, e[k], g[k]) for k in range(e.shape[0])])
    sol = solve(sub)
    mu = np.array([sol.ineq_multipliers[m + 1] for m in range(a.shape[0])])
    lam = np.array([sol.eq_multipliers[k + 1] for k in range(e.shape[0])])
    if basis is not None:
        lam = basis @ lam
    return sol.x, objective.value(sol.x), mu, lam, sol.active_set, basis is None


def scalar_duality_gap(problem, x, ineq_multipliers, eq_multipliers) -> float:
    """``duality_gap`` agent by agent: each agent's Lagrangian terms added up
    over its rows in ascending order, one ``lstsq`` for its minimizer (+inf
    where the residual rule finds it unbounded below) and its Lagrangian
    cost written out."""
    nu = np.concatenate([ineq_multipliers, eq_multipliers])
    lagrangian = [None] * problem.n_agents  # each agent's (linear, constant) terms
    for b in problem.blocks:
        linear, constant = b.linear, b.constant
        for weight, coeffs, offsets in zip(nu[b.index].T, b.rows.transpose(1, 0, 2),
                                           b.offsets.T):
            linear = linear + weight[:, None] * coeffs
            constant = constant + weight * offsets
        for a, *terms in zip(b.agents.tolist(), linear, constant.tolist()):
            lagrangian[a] = terms
    dual = 0.0
    for obj, (c_eff, const_eff) in zip(problem.objectives, lagrangian):
        xh, *_ = np.linalg.lstsq(obj.hessian, -c_eff, rcond=None)
        if np.max(np.abs(obj.hessian @ xh + c_eff), initial=0.0) > 1e-9 * (
                1.0 + np.abs(c_eff).max(initial=0.0)):
            return np.inf
        dual += 0.5 * xh @ obj.hessian @ xh + c_eff @ xh + const_eff
    return float(objective_value(problem, x) - dual)


def block_slices(problem) -> list[slice]:
    """Each agent's block in the stacked primal vector, agent by agent."""
    starts = np.cumsum((0,) + problem.dims).tolist()
    return list(map(slice, starts, starts[1:]))


def scalar_stacked_arrays(problem):
    """``stacked_arrays`` agent by agent: (H, c, constant, A, B, E, G)."""
    objectives, cons = problem.objectives, problem.constraints
    h = block_diag(*(obj.hessian for obj in objectives))
    c = np.concatenate([obj.linear for obj in objectives])
    size = cons.m_ineq + cons.q_eq
    rows, offsets = np.zeros((size, len(c))), np.zeros(size)
    for agent, columns in enumerate(block_slices(problem), start=1):
        ineq, eq = cons.agent_rows(agent)
        for first, stored in ((0, ineq), (cons.m_ineq, eq)):
            for index, (coeffs, offset) in stored.items():
                rows[first + index - 1, columns] = coeffs
                offsets[first + index - 1] += offset  # agents ascending: each row's sum in agent order
    m = cons.m_ineq
    return (h, c, sum(obj.constant for obj in objectives),
            rows[:m], offsets[:m], rows[m:], offsets[m:])


def fresh_solutions(problem, topology, weights, values):
    """Every agent's KktSolution at the slack allocation ``values``: ``solve_kkt`` on
    its ``AgentView``, from the empty working set."""
    batch = AgentBatch(problem, topology, weights)
    offsets = batch.offsets(values)
    views = [AgentView(batch, topology, a) for a in range(batch.n_agents)]
    return [solve_kkt(view.subproblem(offsets[a]), (), view) for a, view in enumerate(views)]


def total_objective(problem, solutions) -> float:
    """Sum of the agents' objective values at their solutions."""
    return float(sum(obj.value(sol.x) for obj, sol in zip(problem.objectives, solutions)))


def stacked_multipliers(solutions, topology) -> np.ndarray:
    """Each participant's row-l multiplier in slack layout: what the multiplier exchange sends."""
    return np.array([solutions[i - 1].multiplier(l, topology.m_ineq)
                     for l in range(1, topology.n_constraints + 1)
                     for i in topology.participants_of(l)], dtype=float)


def consensus_gradient(solutions, topology, weights, layout) -> np.ndarray:
    """Coordinate (l, i): ``consensus_gap`` of agent i's view of the row-l multipliers."""
    views = Exchange(Neighborhoods(topology), stacked_multipliers(solutions, topology))
    grad = np.zeros(layout.size)
    for l in layout.constraints:
        for i in topology.participants_of(l):
            grad[layout.index(l, i)] = consensus_gap(l, i, topology, weights, views[i - 1])
    return grad


def scalar_nominal_consensus(state, graph) -> np.ndarray:
    """``cbf.nominal_consensus`` agent by agent: each neighbour's z_j - z_i
    added in turn, neighbours ascending, from 0.0."""
    out = np.zeros_like(state.positions)
    for i in range(1, graph.n_agents + 1):
        for j in graph.neighborhood(i):
            if j != i:
                out[i - 1] += state.positions[j - 1] - state.positions[i - 1]
    return out


def pairwise_step(rows, state):
    """``cbf._FilterRows.at`` pair by pair: the consensus inputs agent by
    agent, one 2-vector dot per squared norm and one ``alpha`` call per
    barrier, the problem's ValidationError for a value that is not finite."""
    scenario = rows.scenario
    nominal = scalar_nominal_consensus(state, rows.graph)
    deltas = state.positions[rows.agent] - rows.center
    if scenario.alpha is None:
        offsets = np.array([float(delta @ delta) for delta in deltas]) - rows.share
    else:
        decrease = np.array([float(scenario.alpha(barrier.value(state.positions)))
                             for barrier in scenario.barriers])
        offsets = -decrease[rows.barrier] / rows.n_g
    step = _Step(-nominal, np.array([0.5 * float(v @ v) for v in nominal]),
                 2.0 * deltas, offsets)
    if not all(np.isfinite(values).all() for values in step):
        rows.problem(step)
    return step


def rowwise_step_problem(state, scenario, graph) -> ProblemSpec:
    """The safety-filter QP at ``state``, one row at a time."""
    nominal = scalar_nominal_consensus(state, graph)
    objectives = tuple(
        AgentObjective(np.eye(2), -nominal[i], 0.5 * float(nominal[i] @ nominal[i]))
        for i in range(graph.n_agents)
    )
    cons = CouplingConstraints(graph.n_agents, m_ineq=len(scenario.barriers), q_eq=0)
    for m, barrier in enumerate(scenario.barriers, start=1):
        n_g = len(barrier.agents)
        if scenario.alpha is not None:
            decrease = float(scenario.alpha(barrier.value(state.positions)))
        for i in barrier.agents:
            delta = state.positions[i - 1] - np.asarray(barrier.center)
            if scenario.alpha is None:
                offset = float(delta @ delta) - barrier.radius_sq / n_g
            else:
                offset = -decrease / n_g
            cons.add_ineq_row(i, m, 2.0 * delta, offset)
    return ProblemSpec(objectives, cons, graph)


def rebuilt_closed_loop(scenario, graph, state):
    """``run_closed_loop`` with every step's problem, LICQ report and batch built anew."""
    steps = int(round(scenario.horizon / scenario.dt))
    n, k = graph.n_agents, len(scenario.barriers)
    times = np.zeros(steps + 1)
    positions = np.zeros((steps + 1, n, 2))
    barrier_values = np.zeros((steps + 1, k))
    inputs = np.zeros((steps, n, 2))
    inner_worst = np.zeros(steps)
    applied_worst = np.zeros(steps)

    problem = rowwise_step_problem(state, scenario, graph)
    topology = induce_topology(problem, graph)
    weights = build_weights(topology)
    transport = SimnetTransport(topology)
    config = AdaConfig(scenario.gamma, scenario.inner_iterations)
    size = SlackLayout.from_topology(topology).size
    slack = np.zeros(size)
    rounds = final = None
    for s in range(steps):
        times[s] = state.time
        positions[s] = state.positions
        barrier_values[s] = [b.value(state.positions) for b in scenario.barriers]
        problem = rowwise_step_problem(state, scenario, graph)
        licq = validate_licq(problem)
        if not licq.all_full_rank:
            raise RankDeficiencyError(
                f"step {s} (t={state.time:.3f}): agents {licq.failures()} have "
                "linearly dependent barrier rows; the sampled problem is "
                "degenerate at this state"
            )
        if scenario.solver == "centralized":
            u = solve_centralized(problem).x.reshape(n, 2)
        else:
            start = slack if scenario.warm_start else np.zeros(size)
            inner = AdaState(start, np.zeros(size), np.zeros(size), 0)
            batch = AgentBatch(problem, topology, weights)
            rounds = WarmStart(batch, rounds.work if rounds else None)
            final = WarmStart(batch, final.work if final else None)
            worst = 0.0
            for inner, z, _ in iterate_rounds(rounds, config, inner, transport):
                worst = max(worst, batch.violation(z)[0])
            slack = inner.average
            u = batch.primal(final.solve_stacked(batch.offsets(slack))).reshape(n, 2)
            inner_worst[s] = worst
        applied_worst[s], _ = max_violation(problem, u.reshape(-1))
        inputs[s] = u
        state = euler_step(state, u, scenario.dt)
    times[steps] = state.time
    positions[steps] = state.positions
    barrier_values[steps] = [b.value(state.positions) for b in scenario.barriers]
    return ClosedLoopResult(times, positions, barrier_values, inputs, inner_worst,
                            applied_worst, scenario)


def stored_row(cons, agent: int, l: int):
    """The (coeffs, offset) an agent stores for constraint l (inequalities
    first), or None: a lookup in ``CouplingConstraints.agent_rows``."""
    ineq, eq = cons.agent_rows(agent)
    return ineq.get(l) if l <= cons.m_ineq else eq.get(l - cons.m_ineq)


def scalar_neighborhood(edges, i: int) -> tuple[int, ...]:
    """Agent i's closed neighbourhood among ``edges``: a scan of every edge."""
    close = {i}
    for a, b in edges:
        if a == i:
            close.add(b)
        elif b == i:
            close.add(a)
    return tuple(sorted(close))


@dataclass(frozen=True)
class ScalarTopology:
    """What ``scalar_induce_topology`` finds: each set as a stored tuple, and
    the arrays, as the ``ConstraintTopology`` they make.  Its accessors read
    the tuples, with the topology's names."""

    participants: tuple[tuple[int, ...], ...]
    induced_edges: tuple[frozenset[tuple[int, int]], ...]
    agent_ineq_sets: tuple[tuple[int, ...], ...]
    agent_eq_sets: tuple[tuple[int, ...], ...]
    topology: ConstraintTopology

    @property
    def n_constraints(self) -> int:
        return len(self.participants)

    def participants_of(self, l: int) -> tuple[int, ...]:
        return self.participants[l - 1]

    def edges_of(self, l: int) -> frozenset[tuple[int, int]]:
        return self.induced_edges[l - 1]

    def constraints_of(self, i: int) -> tuple[int, ...]:
        shift = self.topology.m_ineq
        return self.agent_ineq_sets[i - 1] + tuple(shift + q for q in self.agent_eq_sets[i - 1])


def scalar_induce_topology(problem, graph) -> ScalarTopology:
    """``induce_topology`` pair by pair: a row lookup per (agent, constraint),
    a scan of every graph edge per constraint and of every induced edge per
    participant, the hops read off those neighbourhoods one by one, and each
    agent's constraints found by a membership test per constraint."""
    cons = problem.constraints
    m_ineq, q_eq = cons.m_ineq, cons.q_eq
    n = graph.n_agents

    participants = []
    for l in range(1, m_ineq + q_eq + 1):
        members = []
        for i in range(1, n + 1):
            row = stored_row(cons, i, l)
            if row is not None:
                coeffs, offset = row
                if offset != 0.0 or np.any(coeffs != 0.0):
                    members.append(i)
        participants.append(tuple(members))

    induced = []
    coords, starts, reader, read = [], [0], [], []
    for l, members in enumerate(participants, start=1):
        member_set = set(members)
        edges = frozenset(
            (a, b) for a, b in graph.edges if a in member_set and b in member_set
        )
        induced.append(edges)
        start = len(coords)
        coords += members
        starts.append(len(coords))
        for a, i in enumerate(members):
            for j in scalar_neighborhood(edges, i):
                reader.append(start + a)
                read.append(start + members.index(j))

    agent_ineq = tuple(
        tuple(m for m in range(1, m_ineq + 1) if i in participants[m - 1])
        for i in range(1, n + 1)
    )
    agent_eq = tuple(
        tuple(q for q in range(1, q_eq + 1) if i in participants[m_ineq + q - 1])
        for i in range(1, n + 1)
    )
    layout = SlackLayout(np.array(coords, dtype=int), np.array(starts, dtype=int))
    return ScalarTopology(tuple(participants), tuple(induced), agent_ineq, agent_eq,
                          ConstraintTopology(n, m_ineq, q_eq, layout, np.array(reader, dtype=int),
                                             np.array(read, dtype=int)))


def scalar_check_connectivity(topology) -> ConnectivityReport:
    """``check_connectivity`` as a search: from each constraint's first
    coordinate along the hops, set by set, connected when it reaches them all."""
    starts, read = topology.layout.starts.tolist(), topology.read.tolist()
    ends = topology.reader.searchsorted(np.arange(starts[-1] + 1)).tolist()
    flags = []
    for first, last in zip(starts, starts[1:]):
        seen = set(range(first, min(first + 1, last)))  # the first coordinate, if any
        frontier = list(seen)
        while frontier:
            c = frontier.pop()
            new = set(read[ends[c]:ends[c + 1]]) - seen
            seen |= new
            frontier += new
        flags.append(len(seen) == last - first)
    return ConnectivityReport(tuple(flags))


def scalar_metropolis(topology) -> dict:
    """Metropolis weights constraint by constraint: degrees from each
    neighbourhood, a Python loop over the sorted induced edges, and each
    diagonal 1 minus its row's sum."""
    out = {}
    for l in range(1, topology.n_constraints + 1):
        members = topology.participants_of(l)
        k = len(members)
        entries = np.zeros((k, k))
        degree = {i: len(scalar_neighborhood(topology.edges_of(l), i)) - 1 for i in members}
        pos = {i: a for a, i in enumerate(members)}
        for i, j in sorted(topology.edges_of(l)):
            w = 1.0 / (1.0 + max(degree[i], degree[j]))
            entries[pos[i], pos[j]] = w
            entries[pos[j], pos[i]] = w
        for a in range(k):
            entries[a, a] = 1.0 - (entries[a].sum() - entries[a, a])
        out[l] = WeightMatrix(l, members, entries)
    return out


def stacked_rows(problem, agent: int) -> np.ndarray:
    """Agent's constraint coefficient rows stacked (inequalities then equalities)."""
    ineq, eq = problem.constraints.agent_rows(agent)
    rows = [ineq[m][0] for m in sorted(ineq)] + [eq[q][0] for q in sorted(eq)]
    return np.array(rows).reshape(len(rows), problem.objectives[agent - 1].dim)


def scalar_validate_licq(problem) -> LicqReport:
    """``validate_licq`` agent by agent: one SVD per agent with rows."""
    infos = []
    for i in range(1, problem.n_agents + 1):
        rows = stacked_rows(problem, i)
        k = rows.shape[0]
        if k == 0:
            infos.append(AgentRankInfo(i, 0, True, math.inf, 0.0, math.inf))
            continue
        sv = np.linalg.svd(rows, compute_uv=False)
        smax = float(sv[0])
        smin = float(sv[-1]) if k <= rows.shape[1] else 0.0
        ok = bool(full_row_rank(sv, k, rows.shape[1]))
        infos.append(AgentRankInfo(i, k, ok, smin, smax, smin ** 2))
    return LicqReport(tuple(infos))


def scalar_operator_norms(topology, weights) -> dict[int, float]:
    """``operator_norms`` constraint by constraint: one ``eigvalsh`` each."""
    out = {}
    for l in range(1, topology.n_constraints + 1):
        if topology.participants_of(l):
            out[l] = float(np.max(np.abs(np.linalg.eigvalsh(weights[l].gap))))
        else:
            out[l] = 0.0
    return out


def scalar_lipschitz_bound(problem, topology, weights, licq=None) -> float:
    """``lipschitz_bound`` agent by agent: one ``eigvalsh`` per agent with rows."""
    if licq is None:
        licq = scalar_validate_licq(problem)
    if not licq.all_full_rank:
        raise RankDeficiencyError(
            f"agents {licq.failures()} have linearly dependent constraint rows"
        )
    norms = scalar_operator_norms(topology, weights)

    per_agent = 0.0
    for info, obj in zip(licq.agents, problem.objectives):
        if info.n_rows == 0:
            continue
        eigs = np.linalg.eigvalsh(obj.hessian)
        lo, hi = float(eigs[0]), float(eigs[-1])
        if lo <= 1e-12 * max(1.0, hi):
            raise ValidationError(
                f"agent {info.agent}: Hessian not positive definite; "
                "the gradient Lipschitz bound needs strong convexity"
            )
        reach = max(norms[l] for l in topology.constraints_of(info.agent))
        per_agent = max(per_agent, reach * math.sqrt(hi / info.gram_min))

    network = max(
        (norms[l] * math.sqrt(len(topology.participants_of(l)))
         for l in range(1, topology.n_constraints + 1)),
        default=0.0,
    )
    return per_agent * network * math.sqrt(topology.n_constraints)
