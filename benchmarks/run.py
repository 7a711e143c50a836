"""couplesolve benchmark: one workload per invocation, one JSON result line.

Usage, from the repository root::

    python3 benchmarks/run.py --workload ring400-ada --seed 1 --seconds 30 --trace 0

``--trace 0`` times set-up several times, then repeats the workload's job
until ``--seconds`` have passed, checks every job's outputs, and reports
the end-to-end metrics.  ``--trace 1`` runs one fixed job untraced and once
more under the outside-in tracer (``tracer.py``), and reports per-layer
metrics from the spans; its counts repeat exactly for a given seed.

End-to-end timings are scaled to a reference host speed by a probe kernel
run around every timed span (``clock.py``), so that the shared host's
changes of CPU speed are told apart from changes of the program.

The last line of standard output is the result object; the line before it
records the environment (interpreter, numpy/scipy, BLAS, cores), the
probe's median time before and after the run, and diagnostics such as the
error rate and the unscaled wall-clock figures.  The same record is written
to ``.bench_out/``, next to the spans of a traced run.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one process, BLAS pinned to one thread

import argparse
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPEATS = 5  # jobs per run, whatever --seconds says

END_TO_END = {
    "setup_s": "s",
    "round_ms": "ms",
    "total_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "rel_obj_err": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "local_qp.solve_kkt.by_round.calls": "count",
    "local_qp.solve_kkt.by_round.self_s": "s",
    "local_qp.solve_kkt.by_round.us_per_call": "us",
    "local_qp.solve_kkt.by_solve_all.calls": "count",
    "local_qp.solve_kkt.by_solve_all.self_s": "s",
    "local_qp.solve_kkt.by_solve_all.us_per_call": "us",
    "local_qp.kkt_solves_per_call": "ratio",
    "local_qp.active_set_repeat_frac.by_round": "ratio",
    "local_qp.active_set_repeat_frac.by_solve_all": "ratio",
    "local_qp.assemble_subproblem.calls": "count",
    "local_qp.assemble_subproblem.self_s": "s",
    "slack.solve_all_agents.calls": "count",
    "slack.solve_all_agents.total_s": "s",
    "slack.assemble_gradient.self_s": "s",
    "algorithms.run.total_s": "s",
    "algorithms.round.self_s": "s",
    "algorithms.monitor_share": "ratio",
    "algorithms.estimate_gradient_bound.total_s": "s",
    "algorithms.default_box_bound.total_s": "s",
    "simnet.gather.calls": "count",
    "simnet.gather.self_s": "s",
    "simnet.messages": "count",
    "simnet.log_messages": "count",
    "oracle.solve_centralized.total_s": "s",
    "oracle.linprog.total_s": "s",
    "oracle.solve_kkt.total_s": "s",
    "oracle.kkt_solves": "count",
    "oracle.active_rows": "count",
    "problem.lipschitz_bound.calls": "count",
    "problem.validate_licq.calls": "count",
    "problem.validate_licq.total_s": "s",
    "problem.max_violation.self_s": "s",
    "cbf.assemble_step_problem.self_s": "s",
    "graph.induce_topology.total_s": "s",
    "graph.build_weights.total_s": "s",
    "trace.emit_trace.total_s": "s",
    "formats.emit_trajectory.total_s": "s",
    "bench.untraced_total_s": "s",
    "bench.traced_total_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.calibration_ms": "ms",
}


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_run(workload, seconds: float, out_dir: Path):
    """End-to-end metrics of set-up plus job, repeated; returns (metrics, counts, diagnostics).

    Every repeat of the set-up, and every job, does the same work.  Each
    timed span is scaled to the reference host speed (``clock.py``), then
    summarized by its median over the repeats: the set-up as a whole, and
    a job span by span -- each operation, the start-up before the first
    one, and the CSV write.
    """
    import numpy as np
    from clock import Clock, at_reference

    setup_scaled, setup_wall, jobs, problems, attempted, failed = [], [], [], [], 0, 0
    probe_times = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(jobs) < MIN_REPEATS:
        # Set-ups are spread over the run, between jobs.
        setup_clock = Clock()
        for _ in range(workload.setups_per_job):
            setup_clock.mark()
            setup = workload.setup()
            setup_clock.mark()
        clock = Clock()
        try:
            job = workload.job(setup, out_dir, clock)
        except Exception:
            # A raising operation fails every operation of its job; the
            # program is deterministic, so later jobs would raise too.
            traceback.print_exc()
            problems.append("job raised: " + traceback.format_exc(limit=1).strip())
            attempted += workload.operations
            failed += workload.operations
            break
        # A set-up is long and has only two probes of its own, too few to
        # tell the host's mean speed over it; it is scaled by its probes
        # together with those of the job after it.
        cycle_probes = setup_clock.probe_times() + clock.probe_times()
        walls = setup_clock.wall()[::2]  # the odd spans are the gaps between set-ups
        setup_wall += walls
        setup_scaled += [at_reference(w, cycle_probes) for w in walls]
        probe_times += cycle_probes
        workload.check(job, setup)
        if jobs and not workload.same_output(jobs[0], job):
            job.problems.append("identical inputs gave different outputs")
        attempted += job.operations
        failed += job.failed
        jobs.append(job)
    if not jobs:
        raise SystemExit("no job completed")

    accuracy = workload.accuracy(jobs[0], setup)
    problems += [p for job in jobs for p in job.problems]
    stamped = [job for job in jobs if len(job.latencies) == job.operations]
    if not stamped:
        raise SystemExit("no job stamped every operation")
    spans = np.median([job.scaled for job in stamped], axis=0)
    wall = np.median([job.wall for job in stamped], axis=0)
    latencies = spans[stamped[0].ops] * 1e3
    run_s = float(spans[:-1].sum())
    setup_s = float(np.median(setup_scaled))
    metrics = {
        "setup_s": setup_s,
        "round_ms": run_s / jobs[0].rounds * 1e3,
        "total_s": setup_s + run_s + float(spans[-1]),
        "step_ms_p50": float(np.percentile(latencies, 50)),
        "step_ms_p95": float(np.percentile(latencies, 95)),
        "rel_obj_err": accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }
    diagnostics = {
        "jobs": len(jobs),
        "setup_scaled_s": setup_scaled,
        "setup_wall_s": setup_wall,
        "wall_round_ms": float(wall[:-1].sum()) / jobs[0].rounds * 1e3,
        "wall_step_ms_p50": float(np.percentile(wall[stamped[0].ops], 50)) * 1e3,
        "probe_ms_quartiles": (np.percentile(probe_times, [25, 50, 75]) * 1e3).tolist(),
        "latency_samples": int(latencies.size),
        "error_rate": failed / attempted,
        "problems": problems,
    }
    if hasattr(workload, "final_spread"):
        diagnostics["final_spread"] = workload.final_spread(jobs[0])
    return metrics, (attempted, failed), diagnostics


def traced_run(workload, out_dir: Path, run_id: str):
    """Per-layer metrics of one fixed job; returns (metrics, counts, diagnostics).

    Set-up plus job runs untraced and traced in turn, twice; the spans
    and counts come from the first traced pass, the overhead from the
    fastest pass of each kind.
    """
    from clock import Clock
    from tracer import Tracer

    def one_job():
        start = perf_counter()
        setup = workload.setup()
        setup_s = perf_counter() - start
        job = workload.job(setup, out_dir, Clock(probing=False))
        return setup, job, setup_s + job.run_s + job.emit_s

    passes, totals, tracers = [], {False: [], True: []}, []
    for _ in range(2):
        for traced in (False, True):
            if traced:
                tracers.append(Tracer(f"{run_id}-pass{len(tracers)}"))
                with tracers[-1].active():
                    setup, job, total = one_job()
            else:
                setup, job, total = one_job()
            passes.append((setup, job))
            totals[traced].append(total)
    tracer = tracers[0]
    tracer.write(out_dir / f"{run_id}.spans.jsonl")

    problems = []
    for setup, job in passes:
        workload.check(job, setup)
        problems += job.problems
        if not workload.same_output(passes[0][1], job):
            problems.append("traced and untraced jobs gave different outputs")
    if hasattr(workload, "prefix_identical") and not workload.prefix_identical(passes[0][0]):
        problems.append("simnet and direct prefixes differ")

    metrics = layer_metrics(tracer)
    metrics["bench.untraced_total_s"] = min(totals[False])
    metrics["bench.traced_total_s"] = min(totals[True])
    metrics["bench.trace_overhead"] = min(totals[True]) / min(totals[False])
    attempted = sum(job.operations for _, job in passes)
    failed = sum(job.failed for _, job in passes)
    diagnostics = {"spans": len(tracer.spans), "error_rate": failed / attempted,
                   "problems": problems}
    return metrics, (attempted, failed), diagnostics


def layer_metrics(tracer) -> dict:
    summary = tracer.summary()
    counts = tracer.counts

    def span(name, key):
        if name in summary:
            return summary[name][key]
        return 0 if key == "calls" else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for group in ("by_round", "by_solve_all"):
        name = f"local_qp.solve_kkt.{group}"
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.self_s"] = span(name, "self_s")
        out[f"{name}.us_per_call"] = ratio(span(name, "total_s") * 1e6, span(name, "calls"))
        out[f"local_qp.active_set_repeat_frac.{group}"] = ratio(
            counts[f"active_repeat.{group}"], counts[f"agent_solves.{group}"])
    agent_solves = counts["agent_solves.by_round"] + counts["agent_solves.by_solve_all"]
    out["local_qp.kkt_solves_per_call"] = ratio(
        counts["kkt_solves.by_round"] + counts["kkt_solves.by_solve_all"], agent_solves)
    for name in ("local_qp.assemble_subproblem", "slack.solve_all_agents",
                 "simnet.gather"):
        out[f"{name}.calls"] = span(name, "calls")
    for name in ("local_qp.assemble_subproblem", "slack.assemble_gradient",
                 "simnet.gather", "problem.max_violation", "cbf.assemble_step_problem"):
        out[f"{name}.self_s"] = span(name, "self_s")
    for name in ("slack.solve_all_agents", "algorithms.run",
                 "algorithms.estimate_gradient_bound", "algorithms.default_box_bound",
                 "oracle.solve_centralized", "oracle.linprog", "problem.validate_licq",
                 "graph.induce_topology", "graph.build_weights", "trace.emit_trace",
                 "formats.emit_trajectory"):
        out[f"{name}.total_s"] = span(name, "total_s")
    out["algorithms.round.self_s"] = (span("algorithms.ada_round", "self_s")
                                      + span("algorithms.pgd_round", "self_s"))
    out["algorithms.monitor_share"] = tracer.monitor_share()
    out["simnet.messages"] = counts["messages"]
    out["simnet.log_messages"] = counts["log_messages"]
    out["oracle.solve_kkt.total_s"] = span("local_qp.solve_kkt.oracle", "total_s")
    out["oracle.kkt_solves"] = counts["kkt_solves.oracle"]
    out["oracle.active_rows"] = counts["oracle_active_rows"]
    out["problem.lipschitz_bound.calls"] = span("problem.lipschitz_bound", "calls")
    out["problem.validate_licq.calls"] = span("problem.validate_licq", "calls")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "couplesolve" / "__init__.py").is_file():
        print(f"error: no couplesolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from clock import probe_ms
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    calibration = [probe_ms()]
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        values, (attempted, failed), diagnostics = traced_run(workload, out_dir, stem)
        units = PER_LAYER
    else:
        values, (attempted, failed), diagnostics = measured_run(
            workload, args.seconds, out_dir)
        units = END_TO_END
    calibration.append(probe_ms())
    if args.trace:
        values["bench.calibration_ms"] = min(calibration)

    result = {
        "correct": not diagnostics["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              "calibration_ms": calibration, "diagnostics": diagnostics}
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
