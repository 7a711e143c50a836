"""First-order methods on the slack allocation.

Both methods repeat the same two-phase round: exchange slack values, solve
the per-agent subproblems, exchange multipliers, form the consensus-gap
gradient.  They differ in the update:

* ``ada`` — accelerated dual averaging with weights gamma_t = gamma (t + 1),
  cumulative weight Gamma_t = gamma t (t + 3) / 2.  Round 1 evaluates at the
  supplied start and initializes the accumulator z and running average to
  -gamma_1 * gradient; later rounds evaluate at the extrapolation
  (1 - gamma_t/Gamma_t) * average + (gamma_t/Gamma_t) * z, subtract
  gamma_t * gradient from z, and re-average.  With gamma at most
  1 / (2 * gradient Lipschitz bound) the averaged objective converges at an
  O(1/t^2) rate.

* ``pgd`` — projected gradient onto the box [-C, C] with the diminishing
  steps sqrt(2 Theta) / (G sqrt(t + 1)), Theta = 2 C^2 (slack dimension);
  needs no strong convexity, converges at O(1/sqrt(t)) on the best iterate.

Every evaluated allocation yields a primal block vector satisfying the
coupled constraints, so feasibility holds at all rounds, not just in the
limit.  Monitoring evaluations (the running average, round 0, the final
iterate) bypass the transport and are free of message cost.

Rounds and monitoring work on the stacked local solution (one padded row
per agent, see ``local_qp.StackedSolutions``): the trace's objective,
coupled-row residuals and dual consensus errors come from ``AgentBatch`` in
one pass each, and ``RunResult.output_stacked`` keeps the output's arrays.

Three checks drive the same machinery: ``estimate_gradient_bound`` samples
the gradient over pgd's box, ``finite_difference_gradient`` probes the
allocation cost coordinate by coordinate to check the analytic gradient,
and ``locality_audit`` replays ``run`` over an auditing transport.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .graph import SlackState
from .local_qp import AgentBatch, StackedSolutions, WarmStart
from .oracle import feasible_slack_from_primal
from .problem import _integer, cost_shares, lipschitz_bound, offset_scale, validate_licq
from .simnet import Phase, ReadPass, SimnetTransport
from .trace import RoundRecord, RunTrace

logger = logging.getLogger("couplesolve")

# Rows (agent QPs) per lock-step solve in estimate_gradient_bound.
_SAMPLE_ROWS = 2048
_INTERIOR_SAMPLES = 50  # uniform interior points it samples besides the box corners
_FD_STEP = 1e-5  # finite_difference_gradient's relative probe step


def _real(value) -> bool:
    """Is value a finite real number (no boolean)?"""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _positive(value) -> bool:
    """Is value a finite real number > 0 (no boolean)?"""
    return _real(value) and value > 0


def _check_run_fields(config, *positive) -> None:
    """ValidationError naming the first field out of range: the ``positive``
    ones must be finite numbers > 0, ``rounds`` an integer >= 0 and
    ``grad_tolerance`` None or a finite number >= 0."""
    for name in positive:
        value = getattr(config, name)
        if not _positive(value):
            raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")
    if not (_integer(config.rounds) and config.rounds >= 0):
        raise ValidationError(f"rounds must be an integer >= 0, got {config.rounds!r}")
    tol = config.grad_tolerance
    if tol is not None and not (_real(tol) and tol >= 0):
        raise ValidationError(
            f"grad_tolerance must be None or a finite number >= 0, got {tol!r}")


@dataclass(frozen=True)
class AdaConfig:
    """Accelerated dual averaging: finite base step gamma > 0, round budget."""

    gamma: float
    rounds: int
    grad_tolerance: float | None = None

    def __post_init__(self):
        _check_run_fields(self, "gamma")


@dataclass(frozen=True)
class PgdConfig:
    """Projected gradient: finite box half-width C > 0, gradient bound G > 0, round budget."""

    box_bound: float
    grad_bound: float
    rounds: int
    grad_tolerance: float | None = None

    def __post_init__(self):
        _check_run_fields(self, "box_bound", "grad_bound")


def ada_schedule(t: int, gamma: float) -> tuple[float, float]:
    """(round weight gamma_t, cumulative weight Gamma_t) for round t >= 1."""
    return gamma * (t + 1), gamma * t * (t + 3) / 2.0


def half_squared_diameter(box_bound: float, size: int) -> float:
    """Theta = max ||u - v||^2 / 2 over the box [-C, C]^size."""
    return 2.0 * box_bound * box_bound * size


def pgd_stepsize(t: int, theta: float, grad_bound: float) -> float:
    """Diminishing step sqrt(2 Theta) / (G sqrt(t + 1)) for round t >= 1."""
    return math.sqrt(2.0 * theta) / (grad_bound * math.sqrt(t + 1.0))


@dataclass
class AdaState:
    point: np.ndarray        # allocation where the gradient was last evaluated
    accumulator: np.ndarray  # weighted sum of negative gradients
    average: np.ndarray      # weighted running average (the output sequence)
    round: int


@dataclass
class PgdState:
    point: np.ndarray
    round: int


@dataclass
class RunResult:
    trace: RunTrace
    output_slack: SlackState
    output_stacked: StackedSolutions
    converged: bool
    box_active: bool | None
    messages: int

    @property
    def output_primal(self) -> np.ndarray:
        """The stacked primal output, read off ``output_stacked`` on each access."""
        return self.output_stacked.primal()


def ada_round(state: AdaState, evaluate, config: AdaConfig):
    """Advance one round; returns (new state, solution at the new point, gradient).

    ``evaluate(point, t)`` returns (stacked solution, gradient) at ``point``.
    """
    t = state.round + 1
    gamma_t, big_gamma_t = ada_schedule(t, config.gamma)
    if t == 1:
        point = state.point
    else:
        theta = gamma_t / big_gamma_t
        point = (1.0 - theta) * state.average + theta * state.accumulator
    z, grad = evaluate(point, t)
    if t == 1:
        accumulator = -gamma_t * grad
        average = accumulator.copy()
    else:
        accumulator = state.accumulator - gamma_t * grad
        average = (1.0 - theta) * state.average + theta * accumulator
    return AdaState(point, accumulator, average, t), z, grad


def pgd_round(state: PgdState, evaluate, config: PgdConfig, theta: float):
    """Advance one round; returns (new state, solution at the consumed point, gradient)."""
    t = state.round + 1
    z, grad = evaluate(state.point, t)
    step = pgd_stepsize(t, theta, config.grad_bound)
    point = np.clip(state.point - step * grad, -config.box_bound, config.box_bound)
    return PgdState(point, t), z, grad


def iterate_rounds(warm, config, start, transport, hook=None):
    """Yield (state, z, gradient) after each round of ``ada`` or ``pgd``.

    ``warm`` is the stream of batched local solves the rounds use, a
    ``WarmStart`` over the compiled ``AgentBatch`` of the problem.  ``start``
    is the initial AdaState or PgdState, and ``config`` (an AdaConfig or
    PgdConfig) picks the update and the round budget.  A round exchanges
    slack values over ``transport``, calls ``hook(views, t)`` if given
    (``views``: the slack ``simnet.Exchange``), solves every agent's
    subproblem, exchanges the multipliers and forms the consensus-gap
    gradient, reading both exchanges through the batch's read pass, checked
    once per call against the transport's neighborhoods (``simnet.ReadPass``).
    z is the round's stacked local solution, ``WarmStart.solve_stacked``'s
    array for ``warm.batch``.  Stop early by leaving the loop.
    """
    batch = warm.batch
    reads = ReadPass(transport.neighborhoods, batch.readers, batch.flat)

    def evaluate(point, t):
        views = transport.gather(Phase.SLACK_EXCHANGE, point)
        if hook is not None:
            hook(views, t)
        z = warm.solve_stacked(batch.offsets(views.serve(reads)))
        views = transport.gather(Phase.MULTIPLIER_EXCHANGE, batch.multipliers(z))
        return z, batch.gradient(views.serve(reads))

    is_ada = isinstance(config, AdaConfig)
    if not is_ada:
        theta = half_squared_diameter(config.box_bound, batch.size)
    state = start
    for _ in range(config.rounds):
        if is_ada:
            state, z, grad = ada_round(state, evaluate, config)
        else:
            state, z, grad = pgd_round(state, evaluate, config, theta)
        yield state, z, grad


def _warn_on_gamma(problem, topology, weights, config):
    """Warn when gamma exceeds 1 / (2 L), L the problem's ``lipschitz_bound``."""
    try:
        bound = lipschitz_bound(problem, topology, weights)
    except ValidationError:
        logger.info(
            "gradient Lipschitz bound unavailable (problem not strongly "
            "convex); consider algorithm 'pgd'"
        )
        return
    if bound > 0 and config.gamma > 1.0 / (2.0 * bound) * (1 + 1e-12):
        logger.warning(
            "gamma=%g exceeds 1/(2*lipschitz)=%g; convergence guarantee void",
            config.gamma, 1.0 / (2.0 * bound),
        )


def run(problem, topology, weights, config, *, initial_slack=None, oracle=None,
        transport="simnet", slack_phase_hook=None) -> RunResult:
    """Run one algorithm to its round budget (or early gradient-norm stop).

    ``transport`` is a SimnetTransport over ``topology``, or "simnet" or
    "direct": both name a new strict one.  ``oracle`` (a centralized
    solution) enables the objective-error trace column.  The trace carries
    one row per iterate, row 0 being the start.  Before any solve or
    exchange, raises ValidationError unless ``initial_slack`` is finite and
    in the topology's slack layout, and, before the batch is compiled,
    RankDeficiencyError when the problem's rank report (``validate_licq``,
    built at most once per problem) names linearly dependent rows.  ``ada``
    always checks gamma against 1 / (2 ``lipschitz_bound``) and warns above it.
    """
    layout = topology.layout
    if isinstance(transport, str) and transport in ("simnet", "direct"):
        transport = SimnetTransport(topology)
    elif not isinstance(transport, SimnetTransport):
        raise ValidationError(f"transport must be 'simnet', 'direct' or a "
                              f"SimnetTransport, got {transport!r}")
    elif transport.topology is not topology and transport.topology != topology:
        raise ValidationError("transport was built over another topology than the "
                              "one the run solves on")
    if initial_slack is None:
        start = np.zeros(layout.size)
    else:
        given = initial_slack.layout if isinstance(initial_slack, SlackState) else None
        start = None if given is None else np.array(initial_slack.values, dtype=float)
        if not (given is not None and np.array_equal(given.members, layout.members)
                and np.array_equal(given.starts, layout.starts)
                and start.shape == (layout.size,) and np.isfinite(start).all()):
            raise ValidationError("initial_slack must be finite, in the topology's slack layout")

    # Rounds and monitoring keep separate warm starts over one compiled batch.
    validate_licq(problem).require_full_rank()
    batch = AgentBatch(problem, topology, weights)
    is_ada = isinstance(config, AdaConfig)
    if is_ada:
        _warn_on_gamma(problem, topology, weights, config)

    if not is_ada:
        start = np.clip(start, -config.box_bound, config.box_bound)

    f_star = oracle.value if oracle is not None else math.nan
    sent_before = transport.messages  # a transport may serve many runs
    msgs_per_round = 2 * transport.messages_per_phase
    n_cons = topology.n_constraints
    records = []
    converged = False
    watch = WarmStart(batch)

    def monitor(flat):
        # Trace metrics only: no transport, no message cost.
        return watch.solve_stacked(batch.offsets(flat))

    def primal_metrics(z):
        return (batch.objective(z), *batch.violation(z))

    def dual_at(z):
        # Where no round formed the gradient: from the multipliers directly.
        return batch.dual_errors(batch.gradient(batch.multipliers(z)))

    def stalled(grad):
        return (config.grad_tolerance is not None
                and np.abs(grad).max(initial=0.0) <= config.grad_tolerance)

    if is_ada:
        state = AdaState(start, np.zeros(layout.size), np.zeros(layout.size), 0)
        output = monitor(start)
        phi, vi, ve = primal_metrics(output)
        records.append(RoundRecord(0, phi, math.nan, math.nan, vi, ve,
                                   dual_at(output), 0))
        # Round 1 evaluates the start again: seeded with the sets the monitor
        # ended on, every agent is accepted in the stacked pass.
        for state, z, grad in iterate_rounds(WarmStart(batch, watch.work), config, state,
                                             transport, slack_phase_hook):
            t = state.round
            phi, vi, ve = primal_metrics(z)
            output = monitor(state.average)
            # The trace's dual column is the evaluated point's; the average's is not kept.
            phi_hat, vi_hat, ve_hat = primal_metrics(output)
            records.append(RoundRecord(
                t, phi, phi_hat, phi_hat - f_star,
                max(vi, vi_hat), max(ve, ve_hat), batch.dual_errors(grad),
                t * msgs_per_round,
            ))
            if stalled(grad):
                converged = True
                break
        output_flat = state.average if state.round else start
        output_work = watch.work
        box_active = None
    else:
        state = PgdState(start, 0)
        rounds = WarmStart(batch)
        output = None
        for new_state, z, grad in iterate_rounds(rounds, config, state, transport,
                                                 slack_phase_hook):
            # Record the point the round consumed; stop before moving off it.
            phi, vi, ve = primal_metrics(z)
            records.append(RoundRecord(
                state.round, phi, math.nan, phi - f_star, vi, ve, batch.dual_errors(grad),
                state.round * msgs_per_round,
            ))
            if stalled(grad):
                converged = True
                output, output_work = z, rounds.work
                break
            state = new_state
        if output is None:
            # Final iterate never served a later round; evaluate it for the trace.
            output, output_work = monitor(state.point), watch.work
            phi, vi, ve = primal_metrics(output)
            records.append(RoundRecord(
                state.round, phi, math.nan, phi - f_star, vi, ve, dual_at(output),
                state.round * msgs_per_round,
            ))
        output_flat = state.point
        box_active = bool(
            np.any(np.abs(output_flat) >= config.box_bound * (1 - 1e-12))
        )
        if box_active:
            logger.warning(
                "projection box is active at the final allocation; enlarge "
                "box_bound for a valid optimum certificate"
            )

    return RunResult(
        trace=RunTrace(n_cons, tuple(records)),
        output_slack=SlackState(layout, output_flat),
        output_stacked=batch.solutions(output, output_work.copy()),
        converged=converged,
        box_active=box_active,
        messages=transport.messages - sent_before,
    )


def _distinct_rows(agents, offsets):
    """Each distinct (agent, offsets) row's first occurrence, ascending, and
    every row's position among them.

    Rows match by their bits, so -0.0 and 0.0 stay apart.  Sorting the keys
    stably puts equal rows side by side, each run led by its first occurrence.
    """
    keys = np.column_stack((agents, offsets.view(np.int64)))
    order = np.lexsort(keys.T)
    ranked = keys[order]
    leads = np.ones(len(keys), dtype=bool)
    leads[1:] = (ranked[1:] != ranked[:-1]).any(1)
    run = np.empty(len(keys), dtype=int)
    run[order] = leads.cumsum() - 1
    first = order[leads]
    by_first = first.argsort()
    position = np.empty_like(by_first)
    position[by_first] = np.arange(len(first))
    return first[by_first], position[run]


def estimate_gradient_bound(problem, topology, weights, box_bound: float, seed: int = 0) -> float:
    """Sampled bound on the allocation-cost gradient norm over the box.

    Evaluates the gradient at all box corners (capped at 2^10 corners) plus
    ``_INTERIOR_SAMPLES`` uniform interior points drawn with ``seed``, and
    doubles the largest norm seen.  An agent's offsets read only its own
    hops, so across the points many (agent, offsets) rows repeat bit for
    bit: each distinct row is solved once, cold, as one row of
    ``AgentBatch.solve_rows``, in order of first occurrence and in chunks of
    ``_SAMPLE_ROWS`` rows, which bounds the loop's temporaries.  The answers
    go back to every point, and a failing sample raises the diagnosis of the
    lowest failing (point, agent) row.  Raises ValidationError unless
    ``box_bound`` is a finite number > 0 and ``seed`` an integer >= 0, and
    RankDeficiencyError, before any solve, when an agent's stacked
    constraint rows are linearly dependent.
    """
    if not _positive(box_bound):
        raise ValidationError(f"box_bound must be a finite number > 0, got {box_bound!r}")
    if not (_integer(seed) and seed >= 0):
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    n = topology.layout.size
    if n == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    if n <= 10:
        signs = np.arange(2 ** n)[:, None] >> np.arange(n) & 1
    else:
        signs = rng.integers(0, 2, size=(2 ** 10, n))
    points = np.concatenate([box_bound * (signs * 2 - 1).astype(float),
                             rng.uniform(-box_bound, box_bound, size=(_INTERIOR_SAMPLES, n))])

    validate_licq(problem).require_full_rank()
    batch = AgentBatch(problem, topology, weights)
    n_agents, (dim, width, _) = batch.n_agents, batch.shape
    chunk = max(1, _SAMPLE_ROWS // n_agents)  # points per pass over all agents
    agents = np.tile(np.arange(n_agents), len(points))
    offsets = np.concatenate([batch.offsets(points[first:first + chunk]).reshape(-1, width)
                              for first in range(0, len(points), chunk)])
    distinct, inverse = _distinct_rows(agents, offsets)
    cold = batch.sets.ids_of(np.arange(n_agents))
    solved = np.empty((len(distinct), dim + width))
    for first in range(0, len(distinct), _SAMPLE_ROWS):
        rows = distinct[first:first + _SAMPLE_ROWS]
        solved[first:first + len(rows)], _ = batch.solve_rows(agents[rows], offsets[rows],
                                                              cold[agents[rows]])
    worst = 0.0
    for first in range(0, len(points), chunk):
        z = solved[inverse[first * n_agents:(first + chunk) * n_agents]]
        grad = batch.gradient(batch.multipliers(z.reshape(-1, n_agents, dim + width)))
        # Each point's np.linalg.norm, bit for bit: the same dot product per
        # point.  fmax skips a NaN norm, as max(worst, norm) does.
        norms = np.sqrt(grad[:, None, :] @ grad[:, :, None])
        worst = float(np.fmax.reduce(norms.ravel(), initial=worst))
    return 2.0 * worst


def finite_difference_gradient(slack: SlackState, problem, topology, weights):
    """Central-difference gradient of the allocation cost, with kink flags.

    Per coordinate the step is ``_FD_STEP * (1 + |y_k|)``.  A coordinate is
    flagged when its forward and backward one-sided differences disagree by
    more than 1e-3 — the signature of probing across an active-set boundary —
    and should be excluded from comparisons against the analytic gradient.
    Only the agents in the perturbed coordinate's neighborhood are re-solved
    per probe, every probe's agents in one lock-step
    ``AgentBatch.solve_rows`` call started from the base solution's sets,
    and every cost is one stacked ``cost_shares`` call.
    Raises RankDeficiencyError, before any solve, when an agent's stacked
    constraint rows are linearly dependent.
    """
    validate_licq(problem).require_full_rank()
    batch = AgentBatch(problem, topology, weights)
    warm = WarmStart(batch)
    base = warm.solve_stacked(batch.offsets(slack.values))

    # Per coordinate k an up and a down probe (2k, 2k + 1), each re-solving only
    # the agents whose offsets read it: by symmetry, the agents its own hops read.
    size, members = topology.layout.size, topology.layout.members
    ends = np.searchsorted(topology.reader, np.arange(size + 1))
    steps = _FD_STEP * (1.0 + np.abs(slack.values))
    probes, agents, coords, values = [], [], [], []
    for k in range(size):
        affected = (members[topology.read[ends[k]:ends[k + 1]]] - 1).tolist()
        for side, value in enumerate((slack.values[k] + steps[k], slack.values[k] - steps[k])):
            probes += [2 * k + side] * len(affected)
            agents += affected
            coords += [k] * len(affected)
            values += [value] * len(affected)
    probes, agents = np.array(probes, dtype=int), np.array(agents, dtype=int)
    z, _ = batch.solve_rows(agents, batch.probed_offsets(slack.values, agents, coords, values),
                            warm.ids[agents])

    # Every base and probe row's cost in one stacked call; a probe's cost is the
    # base total less its agents' base costs plus their probed ones.
    n, dim = batch.n_agents, batch.shape[0]
    rows = np.concatenate([np.arange(n), agents])
    costs = cost_shares(batch.hessian[rows], batch.linear[rows], batch.constant[rows],
                        np.concatenate([base[:, :dim], z[:, :dim]]))
    total = float(np.sum(costs[:n]))
    probed = (total - np.bincount(probes, costs[:n][agents], minlength=2 * size)
              + np.bincount(probes, costs[n:], minlength=2 * size))
    f_up, f_down = probed[::2], probed[1::2]
    grad = (f_up - f_down) / (2.0 * steps)
    # Forward and backward one-sided differences that disagree mark a kink.
    flagged = np.abs((f_up - total) / steps - (total - f_down) / steps) > 1e-3
    return grad, flagged


def default_box_bound(problem, topology, weights, oracle=None) -> float:
    """10x the largest offset magnitude / optimal slack magnitude."""
    scale = offset_scale(problem)
    if oracle is not None:
        star = feasible_slack_from_primal(oracle.x, problem, topology, weights)
        if star.values.size:
            scale = max(scale, float(np.abs(star.values).max()))
    return 10.0 * max(scale, 1e-6)


def locality_audit(problem, topology, weights, config, initial_slack=None,
                   probe=None) -> bool:
    """Replay an algorithm run in audit mode; True iff all reads were local.

    ``probe``, if given, is called as ``probe(views, round)`` after each
    slack exchange and may perform additional reads through the views — the
    hook exists to inject faults and verify they are caught.
    """
    transport = SimnetTransport(topology, audit=True)
    run(problem, topology, weights, config, initial_slack=initial_slack,
        transport=transport, slack_phase_hook=probe)
    return transport.auditor.ok
