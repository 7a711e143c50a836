"""Problem data: separable quadratic objectives plus coupling constraints.

The problem solved throughout the package is

    minimize   sum_i  1/2 x_i' H_i x_i + c_i' x_i + const_i
    subject to sum_i (A_i x_i + b_i) <= 0      (m_ineq rows)
               sum_i (E_i x_i + g_i)  = 0      (q_eq rows),

with each agent i owning its block x_i and the problem owning a copy of each
cost.  Constraint rows are stored sparsely per agent: an agent holds a row
only if it participates in it (nonzero coefficients or a nonzero offset
share), as a copy the problem owns.  Inequality rows are indexed 1..m_ineq,
equality rows 1..q_eq; a single "constraint index" l in 1..m_ineq+q_eq
addresses inequalities first.  ``ProblemSpec.blocks`` stacks the costs and
stored rows once, when the problem is built, per (block dimension, row
count), and every other reader reads them.  Every residual is
``row_shares`` summed in ascending agent order, and every objective value is
``cost_shares``, each agent's cost in the same arithmetic, summed over the
agents in ascending order by one ``np.sum``.  The problem also carries each
block's one Cholesky solve (``ProblemSpec.block_solves``), from which
``lagrangian_minimizer`` forms every agent's Lagrangian minimizer: the
oracle's recovered x and the duality gap's dual point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from functools import cached_property, partial

import numpy as np

from .exceptions import DimensionMismatchError, RankDeficiencyError, ValidationError

_RANK_TOL = 1e-9  # the rank rule's relative singular-value floor (full_row_rank)
_float_copy = partial(np.array, dtype=float)


def _integer(value) -> bool:
    """Is value an integer (no boolean)?"""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _numeric(value, cast, name: str):
    """``cast(value)`` (no boolean), or a ValidationError naming the objective field."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(name)
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"objective {name} must be numeric, got {value!r}") from exc


@dataclass(frozen=True)
class AgentObjective:
    """One agent's quadratic cost 1/2 x'Hx + c'x + constant (H symmetric PSD).

    Holds read-only float copies of its inputs.  Non-empty, symmetric to
    1e-12 and positive semidefinite to -1e-10, each relative to max(1, the
    Hessian's size): its largest entry, its largest eigenvalue.
    """

    hessian: np.ndarray
    linear: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        h = _numeric(self.hessian, _float_copy, "hessian")  # the problem's own copies
        c = _numeric(self.linear, _float_copy, "linear")
        constant = _numeric(self.constant, float, "constant")
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatchError(f"hessian must be square, got {h.shape}")
        if h.shape[0] == 0:
            raise ValidationError("hessian must not be empty, got shape (0, 0)")
        if c.shape != (h.shape[0],):
            raise DimensionMismatchError(
                f"linear term {c.shape} does not match hessian {h.shape}"
            )
        for name, finite in (("hessian", np.isfinite(h).all()),
                             ("linear", np.isfinite(c).all()),
                             ("constant", math.isfinite(constant))):
            if not finite:
                raise ValidationError(f"objective {name} must be finite")
        # x > t * max(1, size) is x > t and x > t * size: the size is read
        # only when the absolute bound t is missed.
        asymmetry = np.abs(h - h.T).max(initial=0.0)
        if asymmetry > 1e-12 and asymmetry > 1e-12 * np.abs(h).max():
            raise ValidationError("hessian must be symmetric")
        for name, value in (("hessian", h), ("linear", c), ("constant", constant)):
            object.__setattr__(self, name, value)
        h.flags.writeable = c.flags.writeable = False
        eigs = np.linalg.eigvalsh(h)  # ascending
        lowest = eigs.min()
        if lowest < -1e-10 and lowest < -1e-10 * eigs[-1]:
            raise ValidationError("hessian must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]

    def value(self, x: np.ndarray) -> float:
        """The cost at x: ``cost_shares`` for one agent."""
        return float(cost_shares(self.hessian, self.linear, self.constant, x))


class CouplingConstraints:
    """Sparse per-agent rows of the coupled inequality/equality constraints."""

    def __init__(self, n_agents: int, m_ineq: int, q_eq: int,
                 ineq_rows=None, eq_rows=None):
        for name, count, least in (("n_agents", n_agents, 1), ("m_ineq", m_ineq, 0),
                                   ("q_eq", q_eq, 0)):
            if not _integer(count):
                raise ValidationError(f"{name} must be an integer, got {count!r}")
            if count < least:
                bound = "positive" if least else "non-negative"
                raise ValidationError(f"{name} must be {bound}, got {count}")
        self.n_agents = n_agents
        self.m_ineq = m_ineq
        self.q_eq = q_eq
        # rows[i-1][index] = (coeffs, offset); rows with zero coefficients and
        # zero offset are dropped, so storage equals participation.
        self._ineq = [dict() for _ in range(n_agents)]
        self._eq = [dict() for _ in range(n_agents)]
        for agent, m, coeffs, offset in (ineq_rows or []):
            self.add_ineq_row(agent, m, coeffs, offset)
        for agent, q, coeffs, offset in (eq_rows or []):
            self.add_eq_row(agent, q, coeffs, offset)

    def _add(self, store, agent, index, limit, kind, coeffs, offset):
        for name, value in (("agent", agent), (f"{kind} row index", index)):
            if not _integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not 1 <= index <= limit:
            raise ValidationError(f"{kind} row {index} out of range 1..{limit}")
        if not 1 <= agent <= self.n_agents:
            raise ValidationError(f"agent {agent} out of range 1..{self.n_agents}")
        coeffs = np.array(coeffs, dtype=float)  # the problem's own contiguous copy
        offset = float(offset)
        for name, finite in (("coeffs", np.isfinite(coeffs).all()),
                             ("offset", math.isfinite(offset))):
            if not finite:
                raise ValidationError(
                    f"agent {agent} {kind} row {index}: {name} must be finite")
        if index in store[agent - 1]:
            raise ValidationError(f"duplicate {kind} row {index} for agent {agent}")
        if offset != 0.0 or np.any(coeffs != 0.0):
            store[agent - 1][index] = (coeffs, offset)

    def add_ineq_row(self, agent: int, m: int, coeffs, offset: float) -> None:
        self._add(self._ineq, agent, m, self.m_ineq, "inequality", coeffs, offset)

    def add_eq_row(self, agent: int, q: int, coeffs, offset: float) -> None:
        self._add(self._eq, agent, q, self.q_eq, "equality", coeffs, offset)

    def agent_rows(self, agent: int) -> tuple[dict, dict]:
        """(inequality rows, equality rows) of one agent, keyed by row index."""
        return self._ineq[agent - 1], self._eq[agent - 1]


@dataclass(frozen=True)
class AgentBlock:
    """The agents with one (block dimension d, row count k), their costs and rows stacked.

    Agent ``agents[a]`` has its block at ``columns[a]`` in the stacked primal
    vector, its cost in ``hessian[a]``, ``linear[a]`` and ``constant[a]``,
    and its rows in ``rows[a]`` and ``offsets[a]`` (inequalities, then
    equalities, each ascending), row r at ``index[a, r]`` among the m + q.
    """

    agents: np.ndarray    # (g,), 0-based, ascending
    columns: np.ndarray   # (g, d)
    index: np.ndarray     # (g, k)
    rows: np.ndarray      # (g, k, d)
    offsets: np.ndarray   # (g, k)
    hessian: np.ndarray   # (g, d, d)
    linear: np.ndarray    # (g, d)
    constant: np.ndarray  # (g,)

    def __post_init__(self):
        for array in vars(self).values():  # fixed, as is the report read off them
            array.flags.writeable = False


@dataclass(frozen=True)
class ProblemSpec:
    """Objectives, coupling constraints and the communication graph.

    The rows are read when the problem is built, by one walk that checks
    each row's shape and stacks each agent's rows and cost into ``blocks``:
    one ``AgentBlock`` per (block dimension, row count), in first-agent
    order, each array read-only.  A row added later is not seen.
    """

    objectives: tuple[AgentObjective, ...]
    constraints: CouplingConstraints
    graph: "Graph"
    blocks: tuple[AgentBlock, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.objectives)
        if self.graph.n_agents != n or self.constraints.n_agents != n:
            raise DimensionMismatchError(
                "objectives, constraints and graph disagree on the agent count"
            )
        cons, members = self.constraints, {}
        for a, (obj, d) in enumerate(zip(self.objectives, self.dims)):
            stacked = []
            for first, stored in zip((0, cons.m_ineq), cons.agent_rows(a + 1)):
                for idx in sorted(stored):
                    coeffs, offset = stored[idx]
                    if coeffs.shape != (d,):
                        raise DimensionMismatchError(
                            f"agent {a + 1} row {idx}: coefficients {coeffs.shape} "
                            f"do not match block dimension {d}"
                        )
                    stacked.append((first + idx - 1, coeffs, offset))
            agents, objectives, rows = members.setdefault((d, len(stacked)), ([], [], []))
            agents.append(a)
            objectives.append(obj)
            rows += stacked
        starts = np.fromiter(accumulate(self.dims, initial=0), dtype=int)
        object.__setattr__(self, "blocks", tuple(
            AgentBlock(np.array(agents), starts[agents][:, None] + np.arange(d),
                       np.array([l for l, _, _ in rows], dtype=int).reshape(len(agents), k),
                       np.array([c for _, c, _ in rows], dtype=float).reshape(len(agents), k, d),
                       np.array([b for _, _, b in rows], dtype=float).reshape(len(agents), k),
                       np.array([obj.hessian for obj in objectives]),
                       np.array([obj.linear for obj in objectives]),
                       np.array([obj.constant for obj in objectives]))
            for (d, k), (agents, objectives, rows) in members.items()))

    @property
    def n_agents(self) -> int:
        return len(self.objectives)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        """Block dimensions, built once: every batch and kept result shares the tuple."""
        return tuple(obj.dim for obj in self.objectives)

    @cached_property
    def block_solves(self) -> tuple:
        """Per block of ``blocks``, its Cholesky solve (y, x0), or None where
        some agent's Hessian has no factor: y = H^-1 R' (g, d, k) and the
        unconstrained minimizer x0 = -H^-1 c (g, d), built once, read-only."""
        solves = []
        for b in self.blocks:
            try:
                chol = np.linalg.cholesky(b.hessian)
            except np.linalg.LinAlgError:
                solves.append(None)
                continue
            rhs = np.concatenate([b.rows.transpose(0, 2, 1), -b.linear[..., None]], axis=2)
            solved = np.linalg.solve(chol.transpose(0, 2, 1), np.linalg.solve(chol, rhs))
            solved.flags.writeable = False
            solves.append((solved[..., :-1], solved[..., -1]))
        return tuple(solves)

    @cached_property
    def _licq(self) -> "LicqReport":
        """``validate_licq``'s report, built once from the read-only ``blocks``:
        one batched SVD per block with rows (``licq_report``)."""
        return licq_report(self.n_agents, ((b.agents, b.rows) for b in self.blocks
                                           if b.rows.shape[1]))


def objective_value(problem: ProblemSpec, x: np.ndarray) -> float:
    """Total separable objective at a stacked primal vector: every agent's
    ``cost_shares`` from ``problem.blocks``, summed in agent order by one ``np.sum``."""
    costs = np.zeros(problem.n_agents)
    for b in problem.blocks:
        costs[b.agents] = cost_shares(b.hessian, b.linear, b.constant, x[b.columns])
    return float(np.sum(costs))


def lagrangian_minimizer(problem: ProblemSpec, nu: np.ndarray) -> np.ndarray | None:
    """Every agent's Lagrangian minimizer at the m + q multipliers nu, stacked:
    x0_i - y_i nu_i on a block with ``block_solves``, else -pinv(H_i) c_eff with
    c_eff = c_i + R_i' nu_i, one batched ``pinv`` per block.  None where some agent's
    Lagrangian is unbounded below: |H_i x_i + c_eff| > 1e-9 (1 + max |c_eff|)."""
    x = np.zeros(sum(problem.dims))
    for b, solve in zip(problem.blocks, problem.block_solves):
        if solve is None:
            c_eff = b.linear + (nu[b.index][:, None, :] @ b.rows)[:, 0]
            xb = -(np.linalg.pinv(b.hessian, hermitian=True) @ c_eff[..., None])[..., 0]
            residual = np.abs((b.hessian @ xb[..., None])[..., 0] + c_eff).max(axis=1)
            if (residual > 1e-9 * (1.0 + np.abs(c_eff).max(axis=1))).any():
                return None
        else:
            y, x0 = solve
            xb = x0 - (y @ nu[b.index][..., None])[..., 0]
        x[b.columns] = xb
    return x


def row_shares(rows: np.ndarray, offsets, x: np.ndarray) -> np.ndarray:
    """Each row's share a . x + b: rows (..., k, d) and offsets (..., k) at x (..., d).

    The leading axes broadcast, so one set of rows can read many stacked x.
    The one arithmetic of every coupled-row residual: the products are added
    up over the block dimension in coordinate order from 0.0, then the
    offset.  A zero-padded coordinate adds an exact 0, so neither padding
    nor the arrays' memory layout moves a bit.
    """
    products = 0.0
    for j in range(rows.shape[-1]):
        products = products + rows[..., j] * x[..., None, j]
    return products + offsets


def cost_shares(hessian, linear, constant, x) -> np.ndarray:
    """Each agent's cost 1/2 x'Hx + c'x + constant: hessian (..., d, d), linear
    (..., d) and constant (...) at x (..., d).

    The one arithmetic of every objective value, ``row_shares``'s own (so
    neither padding nor memory layout moves a bit): g = 1/2 H x + c, then
    g . x + constant.
    """
    g = row_shares(0.5 * hessian, linear, x)
    return row_shares(g[..., None, :], np.asarray(constant)[..., None], x)[..., 0]


def agent_shares(problem: ProblemSpec, x: np.ndarray):
    """(rows, shares): every stored row's share at the stacked x.

    One entry per agent and row it takes part in, agent by agent ascending,
    each agent's rows ascending: the row's position among the m + q rows
    (inequalities first) and its ``row_shares`` share, from ``problem.blocks``.
    """
    agents, rows, shares = [], [], []
    for b in problem.blocks:
        agents.append(np.repeat(b.agents, b.rows.shape[1]))
        rows.append(b.index.ravel())
        shares.append(row_shares(b.rows, b.offsets, x[b.columns]).ravel())
    order = np.argsort(np.concatenate(agents), kind="stable")
    return np.concatenate(rows)[order], np.concatenate(shares)[order]


def aggregate_violation(problem: ProblemSpec, x: np.ndarray):
    """Stacked constraint residuals at x.

    Returns (ineq, eq): ineq[m-1] = sum_i A_i^[m] x_i + b_i^[m] (feasible when
    <= 0), eq[q-1] = sum_i E_i^[q] x_i + g_i^[q] (feasible when = 0).  Each
    row adds up its ``agent_shares`` over its participants in ascending
    agent order, from 0.0.  Affine in x by construction.
    """
    cons = problem.constraints
    rows, shares = agent_shares(problem, x)
    total = np.bincount(rows, shares, minlength=cons.m_ineq + cons.q_eq).astype(float)
    return total[:cons.m_ineq], total[cons.m_ineq:]


def max_violation(problem: ProblemSpec, x: np.ndarray) -> tuple[float, float]:
    """(max positive inequality residual, max absolute equality residual)."""
    return worst_residuals(*aggregate_violation(problem, x))


def worst_residuals(ineq, eq) -> tuple[float, float]:
    """(largest inequality residual, largest |equality residual|), each at least 0.

    Residuals stacked ahead of the row axis give arrays, one worst per stack.
    """
    worst = ineq.max(-1, initial=0.0), np.abs(eq).max(-1, initial=0.0)
    return worst if ineq.ndim > 1 else (float(worst[0]), float(worst[1]))


def offset_scale(problem: ProblemSpec) -> float:
    """The largest |row offset| over every agent's rows (0 without rows)."""
    return max(float(np.abs(b.offsets).max(initial=0.0)) for b in problem.blocks)


# ---------------------------------------------------------------------------
# regularity checks and the dual-gradient Lipschitz estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentRankInfo:
    agent: int
    n_rows: int
    full_row_rank: bool
    sigma_min: float
    sigma_max: float
    gram_min: float  # smallest eigenvalue of (stacked rows)(stacked rows)'


@dataclass(frozen=True)
class LicqReport:
    agents: tuple[AgentRankInfo, ...]

    @property
    def all_full_rank(self) -> bool:
        return all(a.full_row_rank for a in self.agents)

    def failures(self) -> tuple[int, ...]:
        return tuple(a.agent for a in self.agents if not a.full_row_rank)

    def require_full_rank(self) -> "LicqReport":
        """This report, once every agent has full row rank: the one rank check.

        Raises RankDeficiencyError naming the agents whose stacked rows are
        linearly dependent.
        """
        if not self.all_full_rank:
            raise RankDeficiencyError(
                f"agents {self.failures()} have linearly dependent constraint rows")
        return self


def full_row_rank(sv, n_rows, dim):
    """The rank rule: k <= d rows with sigma_min > _RANK_TOL * max(1, sigma_max).

    ``sv``: one agent's k > 0 rows' singular values (descending), or a stack of them.
    """
    return (n_rows <= dim) & (sv[..., -1] > _RANK_TOL * np.maximum(1.0, sv[..., 0]))


def licq_report(n_agents: int, groups) -> LicqReport:
    """The LicqReport of ``n_agents`` agents from their rows, stacked in groups.

    ``groups`` yields (0-based agents, their rows stacked (count, k, d)),
    k > 0, one group per (rows, block dimension); an agent in no group has
    no rows.  One batched singular value decomposition per group, under the
    rule ``full_row_rank``.
    """
    infos = [None] * n_agents
    for agents, rows in groups:
        _, k, d = rows.shape
        sv = np.linalg.svd(rows, compute_uv=False)
        smax = sv[:, 0].tolist()
        smin = sv[:, -1].tolist() if k <= d else [0.0] * len(smax)
        ok = full_row_rank(sv, k, d).tolist()
        for a, good, lo, hi in zip(agents.tolist(), ok, smin, smax):
            infos[a] = AgentRankInfo(a + 1, k, good, lo, hi, lo ** 2)
    return LicqReport(tuple(info or AgentRankInfo(a + 1, 0, True, math.inf, 0.0, math.inf)
                            for a, info in enumerate(infos)))


def validate_licq(problem: ProblemSpec) -> LicqReport:
    """Check each agent's stacked constraint rows for full row rank.

    Full row rank of every agent's stack guarantees local subproblems are
    feasible for arbitrary offsets and that their multipliers are unique.
    The problem's one report: built on the first call, one batched singular
    value decomposition per block of ``problem.blocks`` with rows
    (``licq_report``), and returned as it is by every later call.
    """
    return problem._licq


def _groups(keys: np.ndarray):
    """(key, positions ascending) per distinct value of the int array ``keys``."""
    for key in np.unique(keys).tolist():
        yield key, np.flatnonzero(keys == key)


def _operator_norms(topology, weights) -> tuple[np.ndarray, np.ndarray]:
    """(||I - P^[l]||_2, |V^[l]|) per constraint l, at l - 1: per participant
    count k, I - P as ``np.eye(k)`` less the stacked entries, and one batched
    ``eigvalsh``."""
    sizes = np.diff(topology.layout.starts)
    norms = np.zeros(topology.n_constraints)
    for k, pos in _groups(sizes):
        if k:
            gaps = np.eye(k) - np.array([weights[l].entries for l in (pos + 1).tolist()])
            norms[pos] = np.abs(np.linalg.eigvalsh(gaps)).max(axis=1)
    return norms, sizes


def operator_norms(topology, weights) -> dict[int, float]:
    """Spectral norm of I - P per constraint (0 for empty participant sets).

    The constraints are grouped by participant count: one batched
    ``eigvalsh`` per count over the stacked I - P, each ``WeightMatrix.gap``'s
    bits.
    """
    norms, _ = _operator_norms(topology, weights)
    return dict(zip(range(1, topology.n_constraints + 1), norms.tolist()))


def lipschitz_bound(problem: ProblemSpec, topology, weights,
                    licq: LicqReport | None = None) -> float:
    """Upper bound on the Lipschitz constant of the dual-function gradient.

    Per agent, the multiplier map y -> (multipliers of agent i) is Lipschitz
    with constant at most

        max_{l in agent's constraints} ||I - P^[l]||_2
            * sqrt(curv_i / lambda_min(rows_i rows_i')),

    where curv_i is the largest Hessian eigenvalue; the full gradient then
    inherits

        bound = max_i above * max_l (||I - P^[l]||_2 sqrt(|V^[l]|))
                            * sqrt(m_ineq + q_eq).

    Requires every agent strongly convex (positive-definite Hessians) and
    full-row-rank stacked constraint rows.  Computed on stacked factors:
    ``operator_norms``, one batched ``eigvalsh`` per block of
    ``problem.blocks`` with rows, and one vectorized max for every
    agent's reach; the first agent (in order) whose Hessian is not positive
    definite is the one named.
    """
    licq = (licq or validate_licq(problem)).require_full_rank()
    norms, sizes = _operator_norms(topology, weights)

    n = problem.n_agents
    lo, hi, coupled = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    for b in problem.blocks:
        if b.rows.shape[1]:
            eigs = np.linalg.eigvalsh(b.hessian)
            lo[b.agents], hi[b.agents], coupled[b.agents] = eigs[:, 0], eigs[:, -1], True
    flat = coupled & (lo <= 1e-12 * np.maximum(1.0, hi))
    if flat.any():
        raise ValidationError(
            f"agent {np.argmax(flat) + 1}: Hessian not positive definite; the "
            "gradient Lipschitz bound needs strong convexity"
        )
    # Reach: the largest norm over the constraints an agent takes part in.
    reach = np.zeros(n)
    np.maximum.at(reach, topology.layout.members - 1, np.repeat(norms, sizes))
    gram = np.array([info.gram_min for info in licq.agents])
    per_agent = float((reach[coupled] * np.sqrt(hi[coupled] / gram[coupled])).max(initial=0.0))

    network = float((norms * np.sqrt(sizes)).max(initial=0.0))
    return per_agent * network * math.sqrt(topology.n_constraints)
