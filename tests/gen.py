"""Random problem instances for the test suite.

Two families:

* ``strongly_convex_instance`` — every Hessian is positive definite and each
  agent's constraint block has orthonormal rows scaled so that the row Gram
  dominates the Hessian spectrum.  That keeps the closed-form gradient
  Lipschitz bound valid, so the accelerated method's rate guarantee applies
  with gamma = 1 / (2 * bound).
* ``reduced_space_instance`` — rank-deficient (PSD) Hessians whose kernel
  directions are pinned by singleton equality rows, leaving the objective
  positive definite on the feasible subspace.  These exercise the projected
  method, which needs no strong convexity.

Both produce feasible problems by construction: offsets are balanced around
a sampled anchor point (with a strict margin on inequality rows).

Four fixed instances besides: ``failing_instance``, whose local QPs fail in
chosen ways, ``benchmark_ring``, the benchmark's 400-agent ring,
``psd_benchmark_ring``, its 12-agent ring of PSD Hessians, and
``large_cost_scale_data``, a two-agent problem file at large cost scale.
``mixed_dims_instance`` draws four agents of block dimensions 2, 7, 9 and 3.

Two variants of a problem's rows: ``shifted_offsets`` moves every stored
offset, and ``doubled_equality_instance`` stores a strongly convex
instance's first equality row twice.  One variant of its weights:
``lazy_weights_instance`` replaces every Metropolis matrix P by the lazy
(I + P) / 2, validated, so the batch reads weights it did not build.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from couplesolve import (
    AgentObjective,
    CouplingConstraints,
    Graph,
    ProblemSpec,
    WeightMatrix,
    build_weights,
    induce_topology,
)


def _random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    """Uniform random spanning tree order + a few extra chords."""
    order = rng.permutation(np.arange(1, n + 1))
    edges = set()
    for k in range(1, n):
        j = int(order[k])
        i = int(order[int(rng.integers(0, k))])
        edges.add((min(i, j), max(i, j)))
    for _ in range(int(rng.integers(0, n))):
        i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(n, sorted(edges))


def _grow_participants(rng, graph, capacity, target_size):
    """Connected participant set among agents with spare row capacity."""
    candidates = [i for i in range(1, graph.n_agents + 1) if capacity[i] > 0]
    if not candidates:
        return []
    root = int(rng.choice(candidates))
    chosen = {root}
    while len(chosen) < target_size:
        frontier = sorted(
            j
            for i in chosen
            for j in graph.neighborhood(i)
            if j not in chosen and capacity[j] > 0
        )
        if not frontier:
            break
        chosen.add(int(rng.choice(frontier)))
    return sorted(chosen)


def _scaled_orthonormal_rows(rng, n_rows: int, dim: int, scale: float):
    """n_rows x dim block with rows forming a scaled orthonormal family."""
    raw = rng.standard_normal((dim, max(n_rows, 1)))
    q, _ = np.linalg.qr(raw)
    return scale * q[:, :n_rows].T


def strongly_convex_instance(seed: int):
    """Feasible instance with PD Hessians; returns (problem, topology, weights).

    3-10 agents with 1-4 dims each, 1-4 coupling rows total.  Hessian
    eigenvalues lie in [0.5, 2]; constraint rows are orthonormal scaled by
    1.5, so each row Gram is 2.25 * I and dominates the Hessian.  Every
    participant set is grown connected inside the communication graph and
    honors the agents' row capacity (rows per agent <= dim).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    dims = [int(d) for d in rng.integers(1, 5, size=n)]
    graph = _random_connected_graph(rng, n)

    total = int(rng.integers(1, 5))
    m_ineq = int(rng.integers(0, total + 1))
    q_eq = total - m_ineq

    objectives = []
    for d in dims:
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(0.5, 2.0, size=d)
        hessian = basis @ np.diag(eigs) @ basis.T
        hessian = 0.5 * (hessian + hessian.T)
        objectives.append(AgentObjective(hessian, rng.uniform(-1, 1, size=d)))

    capacity = {i: dims[i - 1] for i in range(1, n + 1)}
    rows = {}  # (l, agent) -> coeff placeholder, filled below
    participants = {}
    for l in range(1, total + 1):
        # At least one multi-agent constraint, else the allocation is inert
        # and step-size rules based on the gradient Lipschitz bound divide
        # by zero.
        size = int(rng.integers(2 if l == 1 else 1, n + 1))
        members = _grow_participants(rng, graph, capacity, size)
        if not members:  # all capacity consumed; retry with a fresh seed
            return strongly_convex_instance(seed + 7919)
        participants[l] = members
        for i in members:
            capacity[i] -= 1

    # One scaled-orthonormal block per agent across all its rows.
    agent_rows = {i: [l for l in range(1, total + 1) if i in participants[l]]
                  for i in range(1, n + 1)}
    for i, ls in agent_rows.items():
        if not ls:
            continue
        block = _scaled_orthonormal_rows(rng, len(ls), dims[i - 1], 1.5)
        for r, l in enumerate(ls):
            rows[(l, i)] = block[r]

    # Anchor point: equality rows balance exactly, inequalities keep a margin.
    anchor = {i: rng.uniform(-1, 1, size=dims[i - 1]) for i in range(1, n + 1)}
    cons = CouplingConstraints(n, m_ineq, q_eq)
    for l in range(1, total + 1):
        members = participants[l]
        raw = {i: rng.uniform(-0.5, 0.5) for i in members}
        aggregate = sum(float(rows[(l, i)] @ anchor[i]) + raw[i] for i in members)
        shift = (-aggregate - rng.uniform(0.2, 1.0) if l <= m_ineq else -aggregate)
        first = members[0]
        raw[first] += shift
        for i in members:
            if l <= m_ineq:
                cons.add_ineq_row(i, l, rows[(l, i)], raw[i])
            else:
                cons.add_eq_row(i, l - m_ineq, rows[(l, i)], raw[i])

    problem = ProblemSpec(tuple(objectives), cons, graph)
    topology = induce_topology(problem, graph)
    return problem, topology, build_weights(topology)


def reduced_space_instance(seed: int):
    """Feasible instance with singular Hessians; returns (problem, topology, weights).

    Each agent is planar with Hessian diag(h, 0); a per-agent equality row
    pins the flat coordinate so every subproblem stays bounded, and one or
    two inequality rows couple the agents along a line graph.  The stacked
    objective is PD on the feasible subspace even though no agent is
    strongly convex.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    graph = Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])

    objectives = []
    for _ in range(n):
        h = float(rng.uniform(0.5, 2.0))
        objectives.append(
            AgentObjective(np.diag([h, 0.0]), rng.uniform(-1, 1, size=2))
        )

    two_spans = n >= 4 and rng.random() < 0.5
    if two_spans:
        split = int(rng.integers(2, n - 1))
        spans = [list(range(1, split + 1)), list(range(split + 1, n + 1))]
    else:
        spans = [list(range(1, n + 1))]
    m_ineq = len(spans)

    cons = CouplingConstraints(n, m_ineq, q_eq=n)
    pinned = rng.uniform(-1, 1, size=n)
    for i in range(1, n + 1):
        cons.add_eq_row(i, i, [0.0, 1.0], -float(pinned[i - 1]))

    anchor = np.column_stack([rng.uniform(-1, 1, size=n), pinned])
    for m, members in enumerate(spans, start=1):
        coeffs = {}
        for i in members:
            a1 = float(rng.uniform(0.5, 1.5)) * (1 if rng.random() < 0.5 else -1)
            coeffs[i] = np.array([a1, float(rng.uniform(-1, 1))])
        raw = {i: float(rng.uniform(-0.5, 0.5)) for i in members}
        aggregate = sum(float(coeffs[i] @ anchor[i - 1]) + raw[i] for i in members)
        raw[members[0]] += -aggregate - float(rng.uniform(0.2, 1.0))
        for i in members:
            cons.add_ineq_row(i, m, coeffs[i], raw[i])

    problem = ProblemSpec(tuple(objectives), cons, graph)
    topology = induce_topology(problem, graph)
    return problem, topology, build_weights(topology)


def failing_instance():
    """Three agents; returns (problem, topology, weights).

    At chosen offsets agent 1's active-set loop cycles and agent 2 has a
    flat, unpinned direction.  Agents 1 and 3 hold four rows in the plane,
    so their rows are rank deficient.
    """
    cycling = AgentObjective(2.0 * np.eye(2), np.array([-1.0, 1.0]))
    flat = AgentObjective(np.diag([1.0, 0.0]), np.array([0.0, -1.0]))
    good = AgentObjective(np.eye(2), np.zeros(2))
    cons = CouplingConstraints(3, m_ineq=4, q_eq=0)
    for l, row in enumerate([[-1.0, -1.0], [2.0, -1.0], [-1.0, 1.0], [1.0, -2.0]], start=1):
        cons.add_ineq_row(1, l, row, 0.0)
        cons.add_ineq_row(3, l, [1.0, 0.5], 0.0)
    cons.add_ineq_row(2, 1, [1.0, 0.0], 0.0)
    graph = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    problem = ProblemSpec((cycling, flat, good), cons, graph)
    topology = induce_topology(problem, graph)
    return problem, topology, build_weights(topology)


def mixed_dims_instance(seed: int):
    """Four strongly convex agents of block dimensions 2, 7, 9 and 3 on a
    path; returns (problem, topology, weights).

    Inequality rows 1 (every agent) and 2 (agents 2, 3) and equality rows 1
    (agents 1, 2) and 2 (agents 3, 4); each agent's rows are scaled
    orthonormal and the offsets balance around a sampled anchor, as in
    ``strongly_convex_instance``.  A batch pads every block to 9.
    """
    rng = np.random.default_rng(seed)
    dims = (2, 7, 9, 3)
    objectives = []
    for d in dims:
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        hessian = basis @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ basis.T
        objectives.append(AgentObjective(0.5 * (hessian + hessian.T), rng.uniform(-1, 1, size=d)))
    participants = {1: (1, 2, 3, 4), 2: (2, 3), 3: (1, 2), 4: (3, 4)}  # inequalities first
    rows = {}
    for i, d in enumerate(dims, start=1):
        ls = [l for l, members in participants.items() if i in members]
        rows.update(zip(((l, i) for l in ls), _scaled_orthonormal_rows(rng, len(ls), d, 1.5)))
    anchor = [rng.uniform(-1, 1, size=d) for d in dims]
    cons = CouplingConstraints(4, m_ineq=2, q_eq=2)
    for l, members in participants.items():
        raw = {i: rng.uniform(-0.5, 0.5) for i in members}
        aggregate = sum(float(rows[(l, i)] @ anchor[i - 1]) + raw[i] for i in members)
        raw[members[0]] -= aggregate + (rng.uniform(0.2, 1.0) if l <= 2 else 0.0)
        for i in members:
            if l <= 2:
                cons.add_ineq_row(i, l, rows[(l, i)], raw[i])
            else:
                cons.add_eq_row(i, l - 2, rows[(l, i)], raw[i])
    graph = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    problem = ProblemSpec(tuple(objectives), cons, graph)
    topology = induce_topology(problem, graph)
    return problem, topology, build_weights(topology)


def _benchmark_instances():
    """``benchmarks/instances.py``, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "instances.py"
    spec = importlib.util.spec_from_file_location("benchmark_instances", path)
    instances = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = instances  # its dataclasses look their module up
    spec.loader.exec_module(instances)
    return instances


def _with_weights(problem):
    topology = induce_topology(problem, problem.graph)
    return problem, topology, build_weights(topology)


def benchmark_ring(seed: int = 1):
    """The benchmark's 400-agent ring (``benchmarks/instances.py``); returns
    (problem, topology, weights)."""
    instances = _benchmark_instances()
    return _with_weights(instances.strongly_convex_ring(
        instances.Draws(400, seed, 0.005), 400, 3, 120, 30, 5).problem)


def psd_benchmark_ring(seed: int = 1):
    """The benchmark's 12-agent ring of PSD Hessians (``pgd-psd12``, from
    ``benchmarks/instances.py``); returns (problem, topology, weights)."""
    instances = _benchmark_instances()
    return _with_weights(instances.psd_ring(instances.Draws(7, seed, 0.005), 12, 3, 4).problem)


def large_cost_scale_data() -> dict:
    """A problem file of two agents with 4-dim Hessians A'DA (eigenvalues from
    about 9e2 to 2.5e5) whose floating-point roundoff leaves them asymmetric
    beyond 1e-12; each agent stores one inequality and one equality unit row."""
    rng = np.random.default_rng(1)
    agents = []
    for _ in range(2):
        a = rng.standard_normal((4, 4))
        hessian = a.T @ np.diag(1e4 * rng.uniform(0.5, 2.0, 4)) @ a
        agents.append({"dim": 4, "hessian": hessian.tolist(),
                       "linear": rng.standard_normal(4).tolist()})
    unit = np.eye(4).tolist()
    return {
        "agents": agents,
        "ineq": [{"agent": 1, "row": 1, "coeffs": unit[0], "offset": -1.0},
                 {"agent": 2, "row": 1, "coeffs": unit[1], "offset": -1.0}],
        "eq": [{"agent": 1, "row": 1, "coeffs": unit[2], "offset": -1.0},
               {"agent": 2, "row": 1, "coeffs": unit[3], "offset": 0.0}],
        "edges": [[1, 2]],
    }


def _copy_rows(old: CouplingConstraints, cons: CouplingConstraints, shift: float,
               scale: float = 1.0) -> None:
    """Add every row stored in ``old`` to ``cons``, its offset scaled by
    ``scale``, then moved by ``shift``."""
    for i in range(1, old.n_agents + 1):
        ineq, eq = old.agent_rows(i)
        for m, (coeffs, offset) in ineq.items():
            cons.add_ineq_row(i, m, coeffs, offset * scale + shift)
        for q, (coeffs, offset) in eq.items():
            cons.add_eq_row(i, q, coeffs, offset * scale + shift)


def shifted_offsets(problem: ProblemSpec, shift: float) -> ProblemSpec:
    """``problem`` with every stored row's offset moved by ``shift``."""
    old = problem.constraints
    cons = CouplingConstraints(problem.n_agents, old.m_ineq, old.q_eq)
    _copy_rows(old, cons, shift)
    return ProblemSpec(problem.objectives, cons, problem.graph)


def scaled_problem(problem: ProblemSpec, scale: float) -> ProblemSpec:
    """``problem`` with every linear term and stored row offset times ``scale``.

    Its optimizer and multipliers are ``scale`` times ``problem``'s.
    """
    old = problem.constraints
    cons = CouplingConstraints(problem.n_agents, old.m_ineq, old.q_eq)
    _copy_rows(old, cons, 0.0, scale)
    objectives = tuple(AgentObjective(obj.hessian, obj.linear * scale, obj.constant)
                       for obj in problem.objectives)
    return ProblemSpec(objectives, cons, problem.graph)


def doubled_equality_instance(seed: int):
    """``strongly_convex_instance(seed)`` with its first equality row stored
    again as one more equality row; returns (problem, topology, weights).

    Every participant of that row then holds two equal rows, so LICQ fails,
    and the stacked equality rows are dependent but consistent.  The seed's
    instance must have an equality row (seed 0 has one).
    """
    problem, _, _ = strongly_convex_instance(seed)
    old = problem.constraints
    if not old.q_eq:
        raise ValueError(f"strongly convex seed {seed} has no equality row")
    cons = CouplingConstraints(problem.n_agents, old.m_ineq, old.q_eq + 1)
    _copy_rows(old, cons, 0.0)
    for i in range(1, problem.n_agents + 1):
        row = old.agent_rows(i)[1].get(1)
        if row is not None:
            cons.add_eq_row(i, old.q_eq + 1, *row)
    problem = ProblemSpec(problem.objectives, cons, problem.graph)
    topology = induce_topology(problem, problem.graph)
    return problem, topology, build_weights(topology)


def lazy_weights_instance(seed: int):
    """``strongly_convex_instance(seed)`` with every weight matrix P replaced
    by the lazy (I + P) / 2; returns (problem, topology, weights).

    Each lazy matrix is symmetric, doubly stochastic and positive exactly on
    the closed neighbourhoods, so ``WeightMatrix.validate`` accepts it, yet
    no entry off the diagonal is a Metropolis weight.
    """
    problem, topology, weights = strongly_convex_instance(seed)
    lazy = {}
    for l, w in weights.items():
        lazy[l] = WeightMatrix(l, w.participants,
                               0.5 * (np.eye(len(w.participants)) + w.entries))
        lazy[l].validate(topology)
    return problem, topology, lazy
