"""Distributed optimization of constraint-coupled separable quadratic programs.

Agents connected by a communication graph cooperatively minimize a sum of
local quadratic costs under coupled inequality/equality constraints.  The
coupled rows are split into per-agent rows linked by consensus-weighted slack
variables; first-order updates on the slack allocation need only one-hop
exchanges, and every iterate's primal already satisfies the coupled
constraints.
"""

from .algorithms import (
    AdaConfig,
    AdaState,
    PgdConfig,
    PgdState,
    RunResult,
    ada_round,
    ada_schedule,
    default_box_bound,
    estimate_gradient_bound,
    finite_difference_gradient,
    half_squared_diameter,
    iterate_rounds,
    locality_audit,
    pgd_round,
    pgd_stepsize,
    run,
)
from .cbf import (
    Barrier,
    CbfScenario,
    ClosedLoopResult,
    MultiAgentState,
    assemble_step_problem,
    euler_step,
    initial_state,
    line_consensus_scenario,
    nominal_consensus,
    run_closed_loop,
)
from .exceptions import (
    ConfigError,
    CoupleSolveError,
    DegenerateSubproblemError,
    DimensionMismatchError,
    DisconnectedSubgraphError,
    InfeasibleProblemError,
    LocalityViolationError,
    RankDeficiencyError,
    SolverError,
    UnboundedSubproblemError,
    ValidationError,
    WeightMatrixError,
)
from .graph import (
    ConnectivityReport,
    ConstraintTopology,
    Graph,
    SlackLayout,
    SlackState,
    WeightMatrix,
    build_weights,
    check_connectivity,
    consensus_gap,
    induce_topology,
    metropolis_weights,
    null_range_check,
)
from .local_qp import StackedSolutions
from .oracle import (
    OracleSolution,
    duality_gap,
    feasible_slack_from_primal,
    solve_centralized,
)
from .problem import (
    AgentObjective,
    CouplingConstraints,
    LicqReport,
    ProblemSpec,
    aggregate_violation,
    lipschitz_bound,
    max_violation,
    objective_value,
    operator_norms,
    validate_licq,
)
from .simnet import Phase, SimnetTransport
from .trace import RoundRecord, RunTrace, emit_trace, parse_trace, traces_equal

__version__ = "0.1.0"
