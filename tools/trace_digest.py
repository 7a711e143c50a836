"""Print one SHA-256 per fixed case of couplesolve's numeric output.

Usage, from the repository root::

    python3 tools/trace_digest.py --src src
    python3 tools/trace_digest.py --src /path/to/other/checkout/src

Imports ``couplesolve`` from ``--src`` and runs every case with public API
only, so two source trees can be compared: identical lines mean bit-identical
traces, primal outputs, multipliers, gradients and closed-loop trajectories.
The instance generators are this repository's ``tests/gen.py`` and
``benchmarks/instances.py``.

Cases:

* ``sc<seed>-ada-<transport>``: ``tests/gen.py`` strongly convex seeds 0-24,
  ``ada`` with gamma = 1 / (2 L), 30 rounds, oracle, simnet and direct;
* ``rs<seed>-pgd`` and ``rs<seed>-pgd-tol``: reduced-space seeds 0-11,
  ``pgd`` with the default box and the estimated gradient bound, 60 rounds,
  without and with a gradient-norm stop, each followed by the
  finite-difference gradient at the run's output allocation;
* ``ring400-prefix``: the benchmark's 400-agent ring (seed 1), 4 ``ada``
  rounds over the simnet transport;
* ``cbf-cold`` and ``cbf-warm``: ``line_consensus_scenario(horizon=0.5)``
  with cold and warm slack starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
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


def run_digest(result) -> str:
    solutions = [(s.x, s.ineq_multipliers, s.eq_multipliers, s.active_set)
                 for s in result.output_solutions]
    return digest(result.trace.records, result.final_state,
                  result.output_slack.values, result.output_primal, solutions,
                  result.converged, result.box_active, result.messages)


def cases(cs, gen, instances):
    for seed in range(25):
        problem, topology, weights = gen.strongly_convex_instance(seed)
        oracle = cs.solve_centralized(problem)
        gamma = 1.0 / (2.0 * cs.lipschitz_bound(problem, topology, weights))
        for transport in ("simnet", "direct"):
            result = cs.run(problem, topology, weights, cs.AdaConfig(gamma, 30),
                            oracle=oracle, transport=transport)
            yield f"sc{seed}-ada-{transport}", run_digest(result)

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
                   digest(box, grad_bound, run_digest(result), fd))

    ring = instances.strongly_convex_ring(
        instances.Draws(400, 1, 0.005), 400, 3, 120, 30, 5).problem
    topology = cs.induce_topology(ring, ring.graph)
    weights = cs.build_weights(topology)
    gamma = 1.0 / (2.0 * cs.lipschitz_bound(ring, topology, weights))
    result = cs.run(ring, topology, weights, cs.AdaConfig(gamma, 4))
    yield "ring400-prefix", run_digest(result)

    for label, warm in (("cold", False), ("warm", True)):
        scenario, graph, state = cs.line_consensus_scenario(horizon=0.5,
                                                            warm_start=warm)
        out = cs.run_closed_loop(scenario, graph, state)
        yield f"cbf-{label}", digest(out.times, out.positions, out.barrier_values,
                                     out.inputs, out.inner_worst_violation,
                                     out.applied_worst_violation)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the couplesolve package to import")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "couplesolve" / "__init__.py").is_file():
        print(f"error: no couplesolve package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(ROOT / "benchmarks")]
    import couplesolve as cs
    import gen
    import instances

    print(f"couplesolve from {Path(cs.__file__).parent}", file=sys.stderr)
    for name, value in cases(cs, gen, instances):
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
