"""Command-line interface.

Subcommands::

    couplesolve run PROBLEM --algo {ada,pgd} --rounds N [options]
    couplesolve check PROBLEM
    couplesolve solve-central PROBLEM [--output FILE]
    couplesolve cbf-sim [SCENARIO] [options]

Exit codes: 0 success, 2 validation/config failure, 3 solver failure
(including a ``run`` whose recorded iterates or output violate a coupled row
beyond tolerance or are not finite; its trace is still written).  The
environment variable COUPLESOLVE_LOG (debug/info/warning/error) sets the log
level.  Outputs are deterministic: identical inputs and options produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import formats
from .algorithms import (
    AdaConfig,
    PgdConfig,
    default_box_bound,
    estimate_gradient_bound,
    run,
)
from .cbf import SOLVERS, line_consensus_scenario, run_closed_loop
from .exceptions import ConfigError, SolverError, ValidationError
from .graph import WeightMatrix, build_weights, check_connectivity, induce_topology
from .oracle import solve_centralized
from .problem import lipschitz_bound, max_violation, offset_scale, validate_licq
from .trace import emit_trace, gnuplot_script

logger = logging.getLogger("couplesolve")

# The run settings a config file or a flag may set, with their defaults.
_RUN_DEFAULTS = {
    "problem": None, "algorithm": None, "rounds": None, "gamma": None,
    "box_bound": None, "grad_bound": None, "oracle": True,
    "transport": "simnet", "seed": 0, "output": "trace.csv",
    "emit_gnuplot": False,
}
_ALGORITHMS = ("ada", "pgd")
_TRANSPORTS = ("simnet", "direct")  # two names for one transport


def _setup_logging() -> None:
    level = os.environ.get("COUPLESOLVE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplesolve",
        description="Distributed solver for constraint-coupled quadratic "
                    "programs; every iterate satisfies the coupled constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a distributed algorithm on a problem file")
    p_run.add_argument("problem", nargs="?", help="problem JSON file")
    p_run.add_argument("--config", help="JSON config file; flags override its values")
    p_run.add_argument("--algo", choices=_ALGORITHMS, dest="algorithm")
    p_run.add_argument("--rounds", type=int)
    p_run.add_argument("--gamma", help="ada base step, a number or 'auto'")
    p_run.add_argument("--box-bound", type=float, dest="box_bound")
    p_run.add_argument("--grad-bound", type=float, dest="grad_bound")
    p_run.add_argument("--oracle", action="store_true", dest="oracle", default=None,
                       help="compute the centralized optimum for error metrics")
    p_run.add_argument("--no-oracle", action="store_false", dest="oracle")
    p_run.add_argument("--transport", choices=_TRANSPORTS)
    p_run.add_argument("--seed", type=int, help="seed for gradient-bound sampling")
    p_run.add_argument("--output", help="trace CSV path (default trace.csv)")
    p_run.add_argument("--emit-gnuplot", action="store_true", default=None,
                       help="write a companion gnuplot script next to the trace")

    p_check = sub.add_parser("check", help="validate connectivity and constraint ranks")
    p_check.add_argument("problem")

    p_central = sub.add_parser("solve-central", help="solve the stacked program exactly")
    p_central.add_argument("problem")
    p_central.add_argument("--output", help="write the solution JSON here too")

    p_sim = sub.add_parser("cbf-sim", help="run the closed-loop safety-filter demo")
    p_sim.add_argument("scenario", nargs="?", help="scenario JSON file (optional)")
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--horizon", type=float)
    p_sim.add_argument("--inner", type=int, dest="inner_iterations")
    p_sim.add_argument("--gamma", type=float)
    p_sim.add_argument("--solver", choices=SOLVERS)
    p_sim.add_argument("--warm-start", action="store_true", default=None)
    p_sim.add_argument("--output", default="trajectory.csv")
    return parser


def _merged_run_config(args) -> dict:
    merged = dict(_RUN_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
        formats.reject_unknown(data, set(_RUN_DEFAULTS), args.config)
        merged.update(data)
    for key in _RUN_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key in ("problem", "algorithm", "rounds"):
        if merged[key] is None:
            raise ConfigError(f"run: missing required option '{key}'")
    formats.one_of(merged["algorithm"], _ALGORITHMS, "run: algorithm")
    formats.one_of(merged["transport"], _TRANSPORTS, "run: transport")
    for key in ("rounds", "seed"):
        merged[key] = formats.integer(merged[key], f"run: {key}")
        if merged[key] < 0:
            raise ConfigError(f"run: {key} must be nonnegative")
    for key in ("gamma", "box_bound", "grad_bound"):
        value = merged[key]
        if value is None or key == "gamma" and value == "auto":
            continue
        merged[key] = value = formats.number(value, f"run: {key}")
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"run: {key} must be a finite number > 0, got {value!r}")
    for key in ("oracle", "emit_gnuplot"):
        formats.flag(merged[key], f"run: {key}")
    for key in ("problem", "output"):  # open() would take an int as a file descriptor
        if not isinstance(merged[key], str):
            raise ConfigError(f"run: {key} must be a file path, got {merged[key]!r}")
    return merged


def _custom_weights(custom, topology) -> dict[int, WeightMatrix]:
    """The problem file's weight matrices, validated, keyed by constraint."""
    out = {}
    for l, matrix in (custom or {}).items():
        if not 1 <= l <= topology.n_constraints:
            raise ConfigError(
                f"weights: constraint {l} out of range 1..{topology.n_constraints}")
        out[l] = WeightMatrix(l, topology.participants_of(l), matrix)
        out[l].validate(topology)
    return out


def _cmd_run(args) -> int:
    cfg = _merged_run_config(args)
    problem, custom = formats.load_problem(cfg["problem"])
    topology = induce_topology(problem, problem.graph)
    weights = build_weights(topology)
    weights.update(_custom_weights(custom, topology))

    validate_licq(problem).require_full_rank()

    oracle = solve_centralized(problem) if cfg["oracle"] else None

    if cfg["algorithm"] == "ada":
        gamma = cfg["gamma"]
        if gamma in (None, "auto"):
            bound = lipschitz_bound(problem, topology, weights)
            if bound <= 0:
                raise ConfigError("gamma 'auto' needs coupled constraints; pass a value")
            gamma = 1.0 / (2.0 * bound)
            logger.info("auto gamma = %.6g (lipschitz bound %.6g)", gamma, bound)
        config = AdaConfig(gamma=float(gamma), rounds=cfg["rounds"])
    else:
        box = cfg["box_bound"]
        if box is None:
            if oracle is None:
                raise ConfigError(
                    "pgd without --oracle needs an explicit --box-bound"
                )
            box = default_box_bound(problem, topology, weights, oracle)
            logger.info("default box bound = %.6g", box)
        grad_bound = cfg["grad_bound"]
        if grad_bound is None:
            grad_bound = estimate_gradient_bound(
                problem, topology, weights, box, seed=cfg["seed"]
            )
            logger.info("estimated gradient bound = %.6g", grad_bound)
        config = PgdConfig(box_bound=float(box), grad_bound=float(grad_bound),
                           rounds=cfg["rounds"])

    result = run(problem, topology, weights, config, oracle=oracle,
                 transport=cfg["transport"])
    emit_trace(result.trace, cfg["output"])
    if cfg["emit_gnuplot"]:
        script = gnuplot_script(cfg["output"], topology.n_constraints)
        with open(cfg["output"] + ".gp", "w") as fh:
            fh.write(script)

    last = result.trace.records[-1]
    print(f"rounds: {last.round}")
    print(f"objective: {last.phi:.12g}")
    if oracle is not None:
        print(f"objective error: {last.obj_err:.6g}")
    print(f"max inequality violation: {last.max_ineq_viol:.6g}")
    print(f"max equality residual: {last.max_eq_resid:.6g}")
    print(f"messages: {result.messages}")
    print(f"trace: {cfg['output']}")
    _check_feasible(problem, result, cfg["algorithm"] == "ada")
    return 0


def _check_feasible(problem, result, averaged: bool) -> None:
    """SolverError unless every recorded iterate and the output is finite and
    violates no coupled row by more than 1e-9 (1 + largest |row offset|)."""
    tolerance = 1e-9 * (1.0 + offset_scale(problem))
    for r in result.trace.records:
        values = [r.phi, r.max_ineq_viol, r.max_eq_resid]
        if averaged and r.round:
            values.append(r.phi_hat)
        if not all(map(math.isfinite, values)):
            raise SolverError(f"iterate {r.round} is not finite")
        if max(r.max_ineq_viol, r.max_eq_resid) > tolerance:
            raise SolverError(
                f"iterate {r.round} violates a coupled row by "
                f"{max(r.max_ineq_viol, r.max_eq_resid):.3g} (tolerance {tolerance:.3g})")
    if not np.isfinite(result.output_primal).all():
        raise SolverError("the output is not finite")
    worst = max(max_violation(problem, result.output_primal))
    if worst > tolerance:
        raise SolverError(f"the output violates a coupled row by {worst:.3g} "
                          f"(tolerance {tolerance:.3g})")


def _cmd_check(args) -> int:
    problem, custom = formats.load_problem(args.problem)
    topology = induce_topology(problem, problem.graph)
    _custom_weights(custom, topology)
    connectivity = check_connectivity(topology)
    licq = validate_licq(problem)
    ok = connectivity.all_connected and licq.all_full_rank
    for l in range(1, topology.n_constraints + 1):
        members = topology.participants_of(l)
        status = "connected" if connectivity.connected[l - 1] else "DISCONNECTED"
        kind = "ineq" if l <= topology.m_ineq else "eq"
        label = l if l <= topology.m_ineq else l - topology.m_ineq
        print(f"constraint {kind} {label}: participants {list(members)} {status}")
    for info in licq.agents:
        status = "full row rank" if info.full_row_rank else "RANK DEFICIENT"
        print(f"agent {info.agent}: {info.n_rows} rows, {status}"
              + (f" (sigma_min {info.sigma_min:.3g})" if info.n_rows else ""))
    print("ok" if ok else "validation failed")
    return 0 if ok else 2


def _cmd_solve_central(args) -> int:
    problem, _ = formats.load_problem(args.problem)
    sol = solve_centralized(problem)
    payload = {
        "x": sol.x.tolist(),
        "value": sol.value,
        "ineq_multipliers": sol.ineq_multipliers.tolist(),
        "eq_multipliers": sol.eq_multipliers.tolist(),
        "active_set": list(sol.active_set),
        "unique_multipliers": sol.unique_multipliers,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_cbf_sim(args) -> int:
    scenario, graph, state = line_consensus_scenario()
    if args.scenario:
        scenario = formats.load_scenario(args.scenario)
    flags = {key: getattr(args, key) for key in formats.SCENARIO_CHECKS
             if getattr(args, key) is not None}
    scenario = dataclasses.replace(scenario, **flags)
    result = run_closed_loop(scenario, graph, state)
    formats.emit_trajectory(result, args.output)

    final_g = result.barrier_values[-1]
    print(f"steps: {result.inputs.shape[0]}")
    print("final barrier values: "
          + ", ".join(f"g{j + 1}={v:.6g}" for j, v in enumerate(final_g)))
    print(f"final max pairwise distance: {result.max_pairwise_distance():.6g}")
    print(f"worst inner-iterate violation: {result.inner_worst_violation.max(initial=0):.3g}")
    print(f"worst applied violation: {result.applied_worst_violation.max(initial=0):.3g}")
    print(f"trajectory: {args.output}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "check": _cmd_check,
        "solve-central": _cmd_solve_central,
        "cbf-sim": _cmd_cbf_sim,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
