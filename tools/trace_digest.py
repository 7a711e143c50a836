"""Print one SHA-256 per fixed case of couplesolve's numeric output, or the drift.

Usage, from the repository root::

    python3 tools/trace_digest.py --src src
    python3 tools/trace_digest.py --src /path/to/other/checkout/src
    python3 tools/trace_digest.py --src src --compare /path/to/old/checkout/src

Imports ``couplesolve`` from ``--src`` and runs every case with public API
only, so two source trees can be compared: identical lines mean bit-identical
set-ups, traces, primal outputs, multipliers, gradients and closed-loop
trajectories.
The instance generators are this repository's ``tests/gen.py`` and
``benchmarks/instances.py``.

With ``--compare OLD_SRC`` the cases run once per source tree, each in a
fresh process, and every line gives a case's largest absolute and relative
difference (new against old) in its trace cells, its primal output (the
applied inputs for the closed loop), its output solutions (every agent's x,
multipliers and active rows, read off ``RunResult.output_stacked`` with the
case's topology), its finite-difference gradient and its
centralized oracle solution (x, value and both multiplier vectors) and its
set-up (see below; ``-`` where a case has none); a case run by one tree only prints ``only in old``
or ``only in new``, and a summary line closes the output.  The exit status is
0 when every case is in both trees and identical, 1 otherwise.

Cases:

* ``sc<seed>-ada-simnet``: ``tests/gen.py`` strongly convex seeds 0-24,
  ``ada`` with gamma = 1 / (2 L), 30 rounds, oracle, over the simnet
  transport (``"direct"`` names the same transport, so it has no case),
  with the set-up: the topology's participants, induced edges and
  neighbourhoods, every ``AgentRankInfo`` of ``validate_licq``, the
  ``operator_norms`` and ``lipschitz_bound``;
* ``sc3-lazy-ada``: strongly convex seed 3 on the lazy weights (I + P) / 2
  of ``tests/gen.py``'s ``lazy_weights_instance``, the rest as above: the
  batch on weights that are not Metropolis;
* ``rs<seed>-pgd`` and ``rs<seed>-pgd-tol``: reduced-space seeds 0-11,
  ``pgd`` with the default box and the estimated gradient bound, 60 rounds,
  without and with a gradient-norm stop, each followed by the
  finite-difference gradient at the run's output allocation;
* ``psd12-pgd``: the benchmark's ``pgd-psd12`` instance at seed 1
  (``benchmarks/instances.py``'s ``psd_ring(Draws(7, 1, 0.005), 12, 3, 4)``:
  positive semidefinite blocks, so the oracle takes its dense path), ``pgd``
  with the default box and the estimated gradient bound (sample seed 0),
  200 rounds, oracle;
* ``sc0-doubled-eq``: ``tests/gen.py`` strongly convex seed 0 with its
  first equality row stored twice (``doubled_equality_instance``), the
  centralized oracle only: every agent block is positive definite, LICQ
  fails, and the dependent equality rows are reduced;
* ``ring400-prefix``: the benchmark's 400-agent ring (seed 1), 4 ``ada``
  rounds over the simnet transport (the oracle is compared, not digested),
  with the set-up as above;
* ``cbf-cold``, ``cbf-warm`` and ``cbf-central``:
  ``line_consensus_scenario(horizon=0.5)`` with the distributed filter from
  cold and warm slack starts, and with the centralized filter;
* ``cbf-alpha`` and ``cbf-reversed``: the same scenario with the custom
  decrease rate ``alpha(g) = 2 g``, and with both barriers listing their
  agents in descending order (same line graph and initial state).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def feed(h, value) -> None:
    """Hash a value exactly: floats by their bits, containers recursively."""
    if isinstance(value, np.ndarray):
        h.update(f"array{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_, int, np.integer, str)) or value is None:
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(f"f:{float(value).hex()};".encode())
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            feed(h, key)
            feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            feed(h, item)
        h.update(b")")
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        feed(h, [getattr(value, f.name) for f in dataclasses.fields(value)])
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        feed(h, value)
    return h.hexdigest()


def keyed_solutions(stacked, topology) -> list[tuple]:
    """Every agent's (x, {inequality row: multiplier}, {equality row: multiplier},
    working inequality rows), read off a run's ``output_stacked``.

    Agent i's multiplier columns follow ``topology.constraints_of(i)``.
    """
    out = []
    for z, mults, work, d, ineq, eq in zip(stacked.z, stacked.z[:, stacked.dim:].tolist(),
                                           stacked.work, stacked.dims,
                                           topology.agent_ineq_sets, topology.agent_eq_sets):
        k_i = len(ineq)
        out.append((z[:d], dict(zip(ineq, mults[:k_i])), dict(zip(eq, mults[k_i:])),
                    tuple(ineq[pos] for pos in np.flatnonzero(work))))
    return out


def run_parts(result, topology) -> tuple:
    """What a plain line digests of a run: its trace records, output slack and
    primal, keyed output solutions, and flags and message count.

    A run's output is its stacked arrays; ``RunResult`` keeps no final
    algorithm state, so none is digested (``ada``'s average is the output
    slack, ``pgd``'s point likewise).
    """
    return (result.trace.records, result.output_slack.values,
            result.output_primal, keyed_solutions(result.output_stacked, topology),
            result.converged, result.box_active, result.messages)


def trace_cells(records) -> np.ndarray:
    """The trace's float cells, record by record."""
    return np.array([[r.phi, r.phi_hat, r.obj_err, r.max_ineq_viol, r.max_eq_resid,
                      *r.dual_cons_err] for r in records], dtype=float)


def solution_cells(stacked, topology) -> np.ndarray:
    """Every agent's x, multipliers (by row index) and active rows, in one vector."""
    return np.concatenate([
        np.concatenate([x, [ineq[k] for k in sorted(ineq)], [eq[k] for k in sorted(eq)],
                        active])
        for x, ineq, eq, active in keyed_solutions(stacked, topology)])


def oracle_cells(oracle) -> np.ndarray:
    """The centralized solution's x, value and multipliers, in one vector."""
    return np.concatenate([oracle.x, [oracle.value], oracle.ineq_multipliers,
                           oracle.eq_multipliers])


def setup_parts(cs, problem, topology, weights) -> tuple:
    """The set-up's topology, rank report, operator norms and Lipschitz bound."""
    hoods = [topology.neighborhood(l, i) for l in range(1, topology.n_constraints + 1)
             for i in topology.participants_of(l)]
    return (topology.participants, [sorted(edges) for edges in topology.induced_edges],
            hoods, cs.validate_licq(problem).agents, cs.operator_norms(topology, weights),
            cs.lipschitz_bound(problem, topology, weights))


def setup_cells(parts) -> np.ndarray:
    """The set-up in one vector, each set preceded by its size."""
    participants, edges, hoods, ranks, norms, bound = parts
    sets = [v for group in (participants, hoods) for members in group
            for v in (len(members), *members)]
    pairs = [v for induced in edges for v in (len(induced), *(i for e in induced for i in e))]
    infos = [float(getattr(info, f.name)) for info in ranks for f in dataclasses.fields(info)]
    return np.array([*sets, *pairs, *infos, *norms.values(), bound], dtype=float)


def cases(cs, gen, instances):
    """Yield (name, values to digest, {group: array compared by --compare})."""
    for seed in range(25):
        problem, topology, weights = gen.strongly_convex_instance(seed)
        oracle = cs.solve_centralized(problem)
        setup = setup_parts(cs, problem, topology, weights)
        gamma = 1.0 / (2.0 * setup[-1])
        result = cs.run(problem, topology, weights, cs.AdaConfig(gamma, 30), oracle=oracle,
                        transport="simnet")
        yield (f"sc{seed}-ada-simnet", (*run_parts(result, topology), setup),
               {"trace": trace_cells(result.trace.records),
                "primal": result.output_primal,
                "solutions": solution_cells(result.output_stacked, topology),
                "oracle": oracle_cells(oracle), "setup": setup_cells(setup)})

    problem, topology, weights = gen.lazy_weights_instance(3)
    oracle = cs.solve_centralized(problem)
    setup = setup_parts(cs, problem, topology, weights)
    result = cs.run(problem, topology, weights, cs.AdaConfig(1.0 / (2.0 * setup[-1]), 30),
                    oracle=oracle)
    yield ("sc3-lazy-ada", (*run_parts(result, topology), setup),
           {"trace": trace_cells(result.trace.records), "primal": result.output_primal,
            "solutions": solution_cells(result.output_stacked, topology),
            "oracle": oracle_cells(oracle), "setup": setup_cells(setup)})

    for seed in range(12):
        problem, topology, weights = gen.reduced_space_instance(seed)
        oracle = cs.solve_centralized(problem)
        box = cs.default_box_bound(problem, topology, weights, oracle)
        grad_bound = cs.estimate_gradient_bound(problem, topology, weights, box,
                                                seed=seed)
        for label, tolerance in (("", None), ("-tol", 1e-2)):
            config = cs.PgdConfig(box, grad_bound, 60, grad_tolerance=tolerance)
            result = cs.run(problem, topology, weights, config, oracle=oracle)
            fd = cs.finite_difference_gradient(result.output_slack, problem,
                                               topology, weights)
            yield (f"rs{seed}-pgd{label}",
                   (box, grad_bound, digest(*run_parts(result, topology)), fd),
                   {"trace": trace_cells(result.trace.records),
                    "primal": result.output_primal,
                    "solutions": solution_cells(result.output_stacked, topology),
                    "fd": fd[0],
                    "oracle": oracle_cells(oracle)})

    problem = instances.psd_ring(instances.Draws(7, 1, 0.005), 12, 3, 4).problem
    topology = cs.induce_topology(problem, problem.graph)
    weights = cs.build_weights(topology)
    oracle = cs.solve_centralized(problem)
    box = cs.default_box_bound(problem, topology, weights, oracle)
    grad_bound = cs.estimate_gradient_bound(problem, topology, weights, box, seed=0)
    result = cs.run(problem, topology, weights, cs.PgdConfig(box, grad_bound, 200),
                    oracle=oracle)
    yield ("psd12-pgd", (box, grad_bound, *run_parts(result, topology)),
           {"trace": trace_cells(result.trace.records), "primal": result.output_primal,
            "solutions": solution_cells(result.output_stacked, topology),
            "oracle": oracle_cells(oracle)})

    oracle = cs.solve_centralized(gen.doubled_equality_instance(0)[0])
    yield "sc0-doubled-eq", (oracle,), {"oracle": oracle_cells(oracle)}

    ring = instances.strongly_convex_ring(
        instances.Draws(400, 1, 0.005), 400, 3, 120, 30, 5).problem
    topology = cs.induce_topology(ring, ring.graph)
    weights = cs.build_weights(topology)
    setup = setup_parts(cs, ring, topology, weights)
    result = cs.run(ring, topology, weights, cs.AdaConfig(1.0 / (2.0 * setup[-1]), 4))
    yield ("ring400-prefix", (*run_parts(result, topology), setup),
           {"trace": trace_cells(result.trace.records), "primal": result.output_primal,
            "solutions": solution_cells(result.output_stacked, topology),
            "oracle": oracle_cells(cs.solve_centralized(ring)), "setup": setup_cells(setup)})

    for label, overrides in (("cold", {}), ("warm", {"warm_start": True}),
                             ("central", {"solver": "centralized"}),
                             ("alpha", {"alpha": lambda g: 2.0 * g}), ("reversed", {})):
        scenario, graph, state = cs.line_consensus_scenario(horizon=0.5, **overrides)
        if label == "reversed":
            scenario = dataclasses.replace(scenario, barriers=tuple(
                dataclasses.replace(b, agents=b.agents[::-1]) for b in scenario.barriers))
        out = cs.run_closed_loop(scenario, graph, state)
        yield (f"cbf-{label}",
               (out.times, out.positions, out.barrier_values, out.inputs,
                out.inner_worst_violation, out.applied_worst_violation),
               {"trace": np.concatenate([out.positions.reshape(-1),
                                         out.barrier_values.reshape(-1)]),
                "primal": out.inputs.reshape(-1)})


def load(src: Path):
    """Import couplesolve from ``src`` and the instance generators."""
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(ROOT / "benchmarks")]
    import couplesolve as cs
    import gen
    import instances

    print(f"couplesolve from {Path(cs.__file__).parent}", file=sys.stderr)
    return cs, gen, instances


def collect(src: Path) -> dict:
    """Every case's compared arrays under one source tree (run in a fresh process)."""
    return {name: groups for name, _, groups in cases(*load(src))}


GROUPS = ("trace", "primal", "solutions", "fd", "oracle", "setup")


def drift(old, new) -> tuple[float, float] | None:
    """(largest |new - old|, largest |new - old| / max(|new|, |old|)); None on a shape change.

    Matching NaNs count as equal.
    """
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if old.shape != new.shape:
        return None
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    diff = np.zeros(old.shape)
    diff[~same] = np.abs(new[~same] - old[~same])
    scale = np.maximum(np.abs(new), np.abs(old))
    rel = np.divide(diff, scale, out=np.where(diff > 0, np.inf, 0.0), where=scale > 0)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def compare(new_src: Path, old_src: Path) -> bool:
    """Collect the cases under both trees and ``report`` their drift."""
    context = get_context("spawn")
    results = []
    for src in (old_src, new_src):
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            results.append(pool.submit(collect, src).result())
    return report(*results)


def report(old: dict, new: dict) -> bool:
    """Print each case's drift; True iff every case is in both trees and identical."""
    worst = {group: [0.0, 0.0] for group in GROUPS}
    identical = 0
    for name in old:
        if name not in new:
            print(f"{name} only in old")
    for name, groups in new.items():
        if name not in old:
            print(f"{name} only in new")
            continue
        cells = [name]
        exact = True
        for group in GROUPS:
            if group not in groups:
                cells.append(f"{group} -")
                continue
            found = drift(old[name][group], groups[group])
            if found is None:
                cells.append(f"{group} shape {np.shape(old[name][group])}->"
                             f"{np.shape(groups[group])}")
                exact = False
                continue
            cells.append(f"{group} {found[0]:.3g} {found[1]:.3g}")
            exact = exact and found == (0.0, 0.0)
            worst[group] = [max(w, f) for w, f in zip(worst[group], found)]
        identical += exact
        print(" ".join(cells))
    summary = " ".join(f"{group} {w[0]:.3g} {w[1]:.3g}" for group, w in worst.items())
    print(f"worst {summary}; {identical} of {len(new)} cases identical")
    return identical == len(new) == len(old)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the couplesolve package to import")
    parser.add_argument("--compare", metavar="OLD_SRC",
                        help="print each case's drift from the package under OLD_SRC")
    args = parser.parse_args(argv)
    sources = [Path(args.src).resolve()]
    if args.compare:
        sources.append(Path(args.compare).resolve())
    for src in sources:
        if not (src / "couplesolve" / "__init__.py").is_file():
            print(f"error: no couplesolve package under {src}", file=sys.stderr)
            return 2
    if args.compare:
        return 0 if compare(*sources) else 1
    for name, parts, _ in cases(*load(sources[0])):
        print(f"{name} {digest(*parts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
