"""The benchmark workloads: inputs, set-up, one timed job, output checks.

A workload builds its inputs from the seed once (``__init__``, untimed and
checked by the generator), then the harness times ``setup`` several times
and ``job`` in turn until the run's time is up.  A job splits its work into
spans with the ``Clock`` it is given (see ``clock.py``): the run's spans,
among them one per operation, then writing the CSV.  ``check`` verifies one
job's outputs outside the timed region; ``accuracy`` turns the first job's
output into the relative objective error.

An operation is one ``ada``/``pgd`` round or one control step.  It fails on
an exception or when the iterate it produced violates a coupled row by more
than FEAS_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import couplesolve as cs
import couplesolve.formats as formats
import instances
from clock import Clock
from tracer import entry_hook

FEAS_TOL = 1e-9
JITTER = 0.005  # relative perturbation of the base instance per seed


@dataclass
class Setup:
    topology: object
    weights: dict
    oracle: object
    config: object


@dataclass
class Job:
    wall: list                  # seconds per span: the run's, then the CSV write's
    scaled: list | None         # the same spans at the reference host speed
    ops: slice                  # the spans that are operations
    rounds: int                 # ada/pgd rounds executed
    operations: int             # rounds, or control steps for the closed loop
    result: object
    path: object
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def run_s(self) -> float:
        """Wall time of run / run_closed_loop."""
        return sum(self.wall[:-1])

    @property
    def emit_s(self) -> float:
        """Writing the CSV the CLI would write."""
        return self.wall[-1]

    @property
    def latencies(self) -> list:
        """Wall seconds per operation."""
        return self.wall[self.ops]


class _RunWorkload:
    """``couplesolve run`` on a generated problem, as the CLI drives it."""

    rounds: int
    setups_per_job = 1

    @property
    def operations(self) -> int:
        return self.rounds

    def common_setup(self):
        """The CLI's steps before any algorithm-specific bound."""
        problem = self.problem
        topology = cs.induce_topology(problem, problem.graph)
        weights = cs.build_weights(topology)
        licq = cs.validate_licq(problem)
        if not licq.all_full_rank:
            raise cs.RankDeficiencyError(f"agents {licq.failures()}")
        return topology, weights, licq, cs.solve_centralized(problem)

    def job(self, setup: Setup, out_dir, clock: Clock) -> Job:
        path = out_dir / "trace.csv"
        clock.mark()
        result = cs.run(self.problem, setup.topology, setup.weights, setup.config,
                        oracle=setup.oracle, slack_phase_hook=clock.mark)
        clock.mark()
        cs.emit_trace(result.trace, path)
        clock.mark()
        # Each round marks once at its slack exchange; a round runs to the
        # next mark, the last one to the end of run.  Run's start-up before
        # round 1 counts in round_ms and total_s only.
        return Job(clock.wall(), clock.scaled() if clock.probing else None,
                   slice(1, 1 + self.rounds), self.rounds, self.operations, result, path)

    def round_records(self, trace):
        raise NotImplementedError

    def check(self, job: Job, setup: Setup) -> None:
        result, trace = job.result, job.result.trace
        f_star = setup.oracle.value
        if len(job.latencies) != job.rounds:
            job.problems.append(
                f"{len(job.latencies)} round stamps for {job.rounds} rounds")
        def violates(record):
            return max(record.max_ineq_viol, record.max_eq_resid) > FEAS_TOL

        bad = [r.round for r in trace.records if violates(r)]
        job.failed = sum(violates(r) for r in self.round_records(trace))
        if bad:
            job.problems.append(f"records {bad[:5]} violate a coupled row")
        low = [r.round for r in trace.records
               if r.phi < f_star - FEAS_TOL
               or (not math.isnan(r.phi_hat) and r.phi_hat < f_star - FEAS_TOL)]
        if low:
            job.problems.append(f"records {low[:5]} beat the optimum")
        vi, ve = cs.max_violation(self.problem, result.output_primal)
        if max(vi, ve) > FEAS_TOL:
            job.problems.append(f"output violates a coupled row by {max(vi, ve):.3g}")
        if cs.objective_value(self.problem, result.output_primal) < f_star - FEAS_TOL:
            job.problems.append("output objective beats the optimum")
        if not cs.traces_equal(cs.parse_trace(job.path), trace):
            job.problems.append("trace CSV does not read back equal")

    def same_output(self, a: Job, b: Job) -> bool:
        return cs.traces_equal(a.result.trace, b.result.trace)


class RingAda(_RunWorkload):
    """400 agents, block dim 3, 120 inequality + 30 equality rows on 5-agent arcs."""

    name = "ring400-ada"
    rounds = 20

    def __init__(self, seed: int):
        draws = instances.Draws(400, seed, JITTER)
        self.instance = instances.strongly_convex_ring(draws, 400, 3, 120, 30, 5)
        instances.checked(self.instance)
        self.problem = self.instance.problem

    def setup(self) -> Setup:
        problem = self.problem
        topology, weights, licq, oracle = self.common_setup()
        bound = cs.lipschitz_bound(problem, topology, weights, licq)
        config = cs.AdaConfig(gamma=1.0 / (2.0 * bound), rounds=self.rounds)
        return Setup(topology, weights, oracle, config)

    def round_records(self, trace):
        return trace.records[1:]  # record 0 is the start

    def accuracy(self, job: Job, setup: Setup) -> float:
        return job.result.trace.records[-1].obj_err / abs(setup.oracle.value)

    def prefix_identical(self, setup: Setup, rounds: int = 3) -> bool:
        """Short simnet and direct runs give bit-identical traces."""
        config = cs.AdaConfig(setup.config.gamma, rounds)
        traces = [
            cs.run(self.problem, setup.topology, setup.weights, config,
                   oracle=setup.oracle, transport=transport).trace
            for transport in ("simnet", "direct")
        ]
        return cs.traces_equal(*traces)


class PsdPgd(_RunWorkload):
    """12 planar agents with Hessians diag(h, 0), pinned flat coordinates, pgd."""

    name = "pgd-psd12"
    rounds = 200

    def __init__(self, seed: int):
        draws = instances.Draws(7, seed, JITTER)
        self.instance = instances.psd_ring(draws, 12, 3, 4)
        instances.checked(self.instance)
        self.problem = self.instance.problem

    def setup(self) -> Setup:
        problem = self.problem
        topology, weights, licq, oracle = self.common_setup()
        box = cs.default_box_bound(problem, topology, weights, oracle)
        grad = cs.estimate_gradient_bound(problem, topology, weights, box, seed=0)
        config = cs.PgdConfig(box_bound=box, grad_bound=grad, rounds=self.rounds)
        return Setup(topology, weights, oracle, config)

    def round_records(self, trace):
        return trace.records[:-1]  # the last record evaluates the final iterate

    def check(self, job: Job, setup: Setup) -> None:
        super().check(job, setup)
        if job.result.box_active:
            job.problems.append("projection box active at the final allocation")

    def accuracy(self, job: Job, setup: Setup) -> float:
        best = min(r.obj_err for r in job.result.trace.records)
        return best / abs(setup.oracle.value)


class CbfLine:
    """The default seven-agent line scenario, 200 control steps of 10 ada rounds.

    The scenario's defaults apply: distributed solver over the direct
    transport, cold slack start each step, dt = 0.01.
    """

    name = "cbf-line7"
    setups_per_job = 5
    operations = steps = 200

    def __init__(self, seed: int):
        self.scenario, self.graph, state = cs.line_consensus_scenario(horizon=2.0)
        noise = np.random.default_rng(seed % 2**63).standard_normal(state.positions.shape)
        self.state = cs.MultiAgentState(0.0, state.positions * (1.0 + JITTER * noise))
        self.rounds = self.steps * self.scenario.inner_iterations
        if int(round(self.scenario.horizon / self.scenario.dt)) != self.steps:
            raise ValueError("scenario horizon does not give the step count")

    def setup(self) -> Setup:
        # What run_closed_loop does once before its first step.
        problem = cs.assemble_step_problem(self.state, self.scenario, self.graph)
        topology = cs.induce_topology(problem, self.graph)
        weights = cs.build_weights(topology)
        cs.SlackLayout.from_topology(topology)
        return Setup(topology, weights, None, None)

    def job(self, setup: Setup, out_dir, clock: Clock) -> Job:
        path = out_dir / "trajectory.csv"
        with entry_hook("couplesolve.cbf", "euler_step", clock.mark):
            clock.mark()
            result = cs.run_closed_loop(self.scenario, self.graph, self.state)
            clock.mark()
        formats.emit_trajectory(result, path)
        clock.mark()
        # Step s ends when its input is applied (euler_step entry); the span
        # after the last entry is the loop's tail.
        return Job(clock.wall(), clock.scaled() if clock.probing else None,
                   slice(0, self.steps), self.rounds, self.operations, result, path)

    def check(self, job: Job, setup: Setup) -> None:
        result = job.result
        if len(job.latencies) != self.steps:
            job.problems.append(f"{len(job.latencies)} step stamps for {self.steps} steps")
        worst = np.maximum(result.inner_worst_violation, result.applied_worst_violation)
        job.failed = int(np.sum(worst > FEAS_TOL))
        if job.failed:
            job.problems.append(f"{job.failed} steps violate a barrier row")
        table = np.genfromtxt(job.path, delimiter=",", skip_header=1)
        n, k = result.positions.shape[1], result.barrier_values.shape[1]
        inputs = table[:-1, 1 + 2 * n + k:1 + 4 * n + k]
        if not (np.array_equal(table[:, 0], result.times)
                and np.array_equal(table[:, 1:1 + 2 * n],
                                   result.positions.reshape(len(result.times), -1))
                and np.array_equal(inputs, result.inputs.reshape(self.steps, -1))):
            job.problems.append("trajectory CSV does not read back equal")

    def same_output(self, a: Job, b: Job) -> bool:
        return np.array_equal(a.result.inputs, b.result.inputs)

    def accuracy(self, job: Job, setup: Setup) -> float:
        """Summed filter objective error of the applied inputs over summed |f*|.

        Each step's filter QP is rebuilt from the recorded positions and
        solved centrally; the applied input must satisfy its rows and so
        can never beat its optimum.
        """
        result = job.result
        excess = scale = 0.0
        for s in range(self.steps):
            state = cs.MultiAgentState(result.times[s], result.positions[s])
            problem = cs.assemble_step_problem(state, self.scenario, self.graph)
            f_star = cs.solve_centralized(problem).value
            applied = result.inputs[s].reshape(-1)
            if max(cs.max_violation(problem, applied)) > FEAS_TOL:
                job.problems.append(f"step {s}: applied input violates a barrier row")
            value = cs.objective_value(problem, applied)
            if value < f_star - FEAS_TOL:
                job.problems.append(f"step {s}: applied input beats the filter optimum")
            excess += value - f_star
            scale += abs(f_star)
        return excess / scale

    def final_spread(self, job: Job) -> float:
        return job.result.max_pairwise_distance()


WORKLOADS = {w.name: w for w in (RingAda, CbfLine, PsdPgd)}
