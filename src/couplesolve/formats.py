"""JSON problem/scenario loading and writing, and trajectory CSV output.

Problem files (all indices 1-based)::

    {
      "agents": [{"dim": 2, "hessian": [[...]], "linear": [...],
                  "constant": 0.0}, ...],
      "ineq":   [{"agent": 1, "row": 1, "coeffs": [...], "offset": 0.0}, ...],
      "eq":     [{"agent": 2, "row": 1, "coeffs": [...], "offset": 0.0}, ...],
      "edges":  [[1, 2], [2, 3], ...],
      "m_ineq": 1,            // optional; defaults to the largest row index
      "q_eq": 1,              // optional; likewise
      "weights": [{"constraint": 1, "matrix": [[...]]}]   // optional custom
    }

Scenario files for the closed-loop demo::

    {"dt": 0.01, "horizon": 20.0, "inner_iterations": 10,
     "gamma": 0.01, "solver": "distributed", "warm_start": false}

Unknown keys are rejected by name so config typos fail loudly, and a value
of the wrong type (a non-list ``agents``, ``ineq``, ``eq``, ``edges`` or
``weights`` too) raises a ConfigError naming its field.  An index or count
must be an integer: a fraction or a boolean is rejected, never truncated; a
number (an offset, a constant, ``dt``, ``horizon`` or ``gamma``) must not be
a boolean either.
"""

from __future__ import annotations

import json

import numpy as np

from .cbf import SOLVERS, CbfScenario, ClosedLoopResult, line_consensus_scenario
from .exceptions import ConfigError, ValidationError
from .graph import Graph, WeightMatrix
from .problem import AgentObjective, CouplingConstraints, ProblemSpec
from .trace import _fmt

_PROBLEM_KEYS = {"agents", "ineq", "eq", "edges", "m_ineq", "q_eq", "weights"}
_AGENT_KEYS = {"dim", "hessian", "linear", "constant"}
_ROW_KEYS = {"agent", "row", "coeffs", "offset"}


def reject_unknown(mapping, allowed: set, where: str) -> None:
    """A ConfigError unless ``mapping`` is an object with keys from ``allowed`` only."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object, got {mapping!r}")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def load_problem(path) -> tuple[ProblemSpec, dict[int, WeightMatrix] | None]:
    """Parse a problem file; returns the problem and optional custom weights."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return problem_from_dict(data, where=str(path))


def _cast(value, cast, field: str):
    """``cast(value)``, or a ConfigError naming the field."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field} must be numeric, got {value!r}") from exc


def number(value, field: str) -> float:
    """``float(value)`` (no boolean), or a ConfigError naming the field."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{field} must be numeric, got {value!r}")
    return _cast(value, float, field)


def integer(value, field: str) -> int:
    """An int or integral float (no boolean) as an int, or a ConfigError naming the field."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return int(value)


def flag(value, field: str) -> bool:
    """A JSON boolean, or a ConfigError naming the field."""
    if not isinstance(value, bool):
        raise ConfigError(f"{field} must be true or false, got {value!r}")
    return value


def one_of(value, names: tuple, field: str):
    """``value`` if it is one of ``names``, else a ConfigError naming the field."""
    if value not in names:
        raise ConfigError(f"{field} must be one of {list(names)}, got {value!r}")
    return value


# The scenario settings a file or a ``cbf-sim`` flag may set, with the
# check a file's value must pass.
SCENARIO_CHECKS = {"dt": number, "horizon": number, "inner_iterations": integer,
                   "gamma": number, "warm_start": flag,
                   "solver": lambda value, field: one_of(value, SOLVERS, field)}


def _floats(value):
    return np.array(value, dtype=float)


def _list(data: dict, key: str, where: str) -> list:
    """``data[key]`` (default empty), or a ConfigError naming the key unless it is a list."""
    value = data.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: '{key}' must be a list, got {value!r}")
    return value


def problem_from_dict(data: dict, where: str = "problem"):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be an object")
    reject_unknown(data, _PROBLEM_KEYS, where)
    agents = _list(data, "agents", where)
    if not agents:
        raise ConfigError(f"{where}: 'agents' must list at least one agent")

    objectives = []
    for k, spec in enumerate(agents, start=1):
        field = f"{where}: agents[{k}]"
        reject_unknown(spec, _AGENT_KEYS, field)
        try:
            dim = integer(spec["dim"], f"{field} dim")
            obj = AgentObjective(
                _cast(spec["hessian"], _floats, f"{field} hessian"),
                _cast(spec["linear"], _floats, f"{field} linear"),
                number(spec.get("constant", 0.0), f"{field} constant"),
            )
        except KeyError as exc:
            raise ConfigError(f"{field} missing key {exc}") from exc
        if obj.dim != dim:
            raise ConfigError(
                f"{field} declares dim={dim} but hessian is "
                f"{obj.dim}x{obj.dim}"
            )
        objectives.append(obj)
    n = len(objectives)

    rows = {}
    for name in ("ineq", "eq"):
        rows[name] = []
        for k, row in enumerate(_list(data, name, where)):
            field = f"{where}: {name}[{k}]"
            reject_unknown(row, _ROW_KEYS, field)
            for key in ("agent", "row", "coeffs", "offset"):
                if key not in row:
                    raise ConfigError(f"{field} missing '{key}'")
            rows[name].append((integer(row["agent"], f"{field} agent"),
                               integer(row["row"], f"{field} row"),
                               _cast(row["coeffs"], _floats, f"{field} coeffs"),
                               number(row["offset"], f"{field} offset")))
    m_ineq = integer(data.get("m_ineq", max((r[1] for r in rows["ineq"]), default=0)),
                     f"{where}: m_ineq")
    q_eq = integer(data.get("q_eq", max((r[1] for r in rows["eq"]), default=0)),
                   f"{where}: q_eq")

    cons = CouplingConstraints(n, m_ineq, q_eq)
    for row in rows["ineq"]:
        cons.add_ineq_row(*row)
    for row in rows["eq"]:
        cons.add_eq_row(*row)

    edges = []
    for k, edge in enumerate(_list(data, "edges", where)):
        field = f"{where}: edges[{k}]"
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ConfigError(f"{field} must be a pair of agents")
        edges.append(tuple(integer(i, field) for i in edge))
    graph = Graph.from_edges(n, edges)
    problem = ProblemSpec(tuple(objectives), cons, graph)

    custom = None
    if "weights" in data:
        custom = {}
        for k, entry in enumerate(_list(data, "weights", where)):
            field = f"{where}: weights[{k}]"
            reject_unknown(entry, {"constraint", "matrix"}, field)
            for key in ("constraint", "matrix"):
                if key not in entry:
                    raise ConfigError(f"{field} missing '{key}'")
            l = integer(entry["constraint"], f"{field} constraint")
            if l in custom:
                raise ConfigError(f"{field}: duplicate weights for constraint {l}")
            custom[l] = _cast(entry["matrix"], _floats, f"{field} matrix")
    return problem, custom


def problem_to_dict(problem: ProblemSpec) -> dict:
    """The problem-file form of ``problem``, read back by ``problem_from_dict``."""
    cons = problem.constraints
    rows = {"ineq": [], "eq": []}
    for i in range(1, problem.n_agents + 1):
        for name, stored in zip(rows, cons.agent_rows(i)):
            rows[name] += [{"agent": i, "row": row, "coeffs": coeffs.tolist(),
                            "offset": offset} for row, (coeffs, offset) in sorted(stored.items())]
    return {
        "agents": [{"dim": obj.dim, "hessian": obj.hessian.tolist(),
                    "linear": obj.linear.tolist(), "constant": float(obj.constant)}
                   for obj in problem.objectives],
        **rows,
        "edges": [list(edge) for edge in sorted(problem.graph.edges)],
        "m_ineq": cons.m_ineq,
        "q_eq": cons.q_eq,
    }


def load_scenario(path) -> CbfScenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(data, where=str(path))


def scenario_from_dict(data: dict, where: str = "scenario") -> CbfScenario:
    reject_unknown(data, set(SCENARIO_CHECKS), where)
    overrides = {k: check(data[k], f"{where}: {k}") for k, check in SCENARIO_CHECKS.items()
                 if k in data}
    try:
        scenario, _, _ = line_consensus_scenario(**overrides)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return scenario


def emit_trajectory(result: ClosedLoopResult, path) -> None:
    """One row per instant: time, positions, barrier values, applied inputs.

    The final instant has no applied input; its input cells and feasibility
    flag are empty.
    """
    steps, n = result.inputs.shape[0], result.positions.shape[1]
    k = result.barrier_values.shape[1]
    header = ["t"]
    header += [f"z{i}{ax}" for i in range(1, n + 1) for ax in ("x", "y")]
    header += [f"g{j}" for j in range(1, k + 1)]
    header += [f"u{i}{ax}" for i in range(1, n + 1) for ax in ("x", "y")]
    header.append("applied_feasible")

    lines = [",".join(header)]
    for s in range(steps + 1):
        cells = [_fmt(result.times[s])]
        cells += [_fmt(v) for v in result.positions[s].reshape(-1)]
        cells += [_fmt(v) for v in result.barrier_values[s]]
        if s < steps:
            cells += [_fmt(v) for v in result.inputs[s].reshape(-1)]
            cells.append(str(int(result.applied_worst_violation[s] <= 1e-8)))
        else:
            cells += [""] * (2 * n + 1)
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
