"""Outside-in tracing of couplesolve's public functions.

The library carries no instrumentation of its own.  ``Tracer`` rebinds every
``couplesolve.*`` module attribute that refers to a traced function (several
modules import ``solve_kkt`` and friends by name, so patching the defining
module alone would miss those call sites) and the ``gather`` method of both
transports.  Each call becomes a span (name, start, end, parent span, run
id) kept in memory; ``write`` dumps them once the benchmark is done.

Self time is a span's duration minus the time its direct child spans cover.
A few wrappers also count what spans cannot show: KKT systems solved per
local solve, whether an agent's active set repeated its previous one,
messages sent and logged by the transports, and the oracle's active rows.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> (defining module, attribute)
TRACED = {
    "algorithms.run": ("couplesolve.algorithms", "run"),
    "algorithms.ada_round": ("couplesolve.algorithms", "ada_round"),
    "algorithms.pgd_round": ("couplesolve.algorithms", "pgd_round"),
    "algorithms.estimate_gradient_bound": ("couplesolve.algorithms", "estimate_gradient_bound"),
    "algorithms.default_box_bound": ("couplesolve.algorithms", "default_box_bound"),
    "local_qp.solve_kkt": ("couplesolve.local_qp", "solve_kkt"),
    "local_qp.assemble_subproblem": ("couplesolve.local_qp", "assemble_subproblem"),
    "slack.solve_all_agents": ("couplesolve.slack", "solve_all_agents"),
    "slack.assemble_gradient": ("couplesolve.slack", "assemble_gradient"),
    "oracle.solve_centralized": ("couplesolve.oracle", "solve_centralized"),
    "oracle.linprog": ("couplesolve.oracle", "linprog"),
    "problem.lipschitz_bound": ("couplesolve.problem", "lipschitz_bound"),
    "problem.validate_licq": ("couplesolve.problem", "validate_licq"),
    "problem.max_violation": ("couplesolve.problem", "max_violation"),
    "graph.induce_topology": ("couplesolve.graph", "induce_topology"),
    "graph.build_weights": ("couplesolve.graph", "build_weights"),
    "cbf.run_closed_loop": ("couplesolve.cbf", "run_closed_loop"),
    "cbf.assemble_step_problem": ("couplesolve.cbf", "assemble_step_problem"),
    "trace.emit_trace": ("couplesolve.trace", "emit_trace"),
    "formats.emit_trajectory": ("couplesolve.formats", "emit_trajectory"),
}
TRANSPORTS = ("DirectTransport", "SimnetTransport")
ROUND_SPANS = ("algorithms.ada_round", "algorithms.pgd_round")


def rebind(original, replacement) -> list:
    """Point every couplesolve.* attribute bound to ``original`` at ``replacement``.

    Returns the (module, attribute) pairs changed, for ``restore``.
    """
    bound = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "couplesolve" or name.startswith("couplesolve.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound.append((module, attr))
    return bound


def restore(bound, original) -> None:
    for module, attr in bound:
        setattr(module, attr, original)


@contextmanager
def entry_hook(module: str, attr: str, callback):
    """Call ``callback()`` at each entry to module.attr."""
    original = getattr(sys.modules[module], attr)

    def hooked(*args, **kwargs):
        callback()
        return original(*args, **kwargs)

    bound = rebind(original, hooked)
    try:
        yield
    finally:
        restore(bound, original)


def kkt_caller(caller: str) -> str:
    """Group a local solve by its nearest traced caller."""
    if caller in ROUND_SPANS:
        return "by_round"
    if caller == "slack.solve_all_agents":
        return "by_solve_all"
    if caller == "oracle.solve_centralized":
        return "oracle"
    return "other"


class Tracer:
    """In-memory spans over the traced functions; install with ``active()``."""

    def __init__(self, run_id: str):
        self.spans = []   # [name, start, end, parent index, run id]
        self.stack = []
        self.run_id = run_id
        self.counts = defaultdict(int)
        self._agent_of = {}     # id(LocalSubproblem) -> agent, until it is solved
        self._last_active = {}  # agent -> active set of its previous solve
        self._kkt_solves = 0

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(index, args, out, token)
            return out

        return traced

    def caller(self, index: int) -> str:
        parent = self.spans[index][3]
        return self.spans[parent][0] if parent >= 0 else "none"

    # -- counters taken where the work happens ----------------------------
    def _after_assemble(self, index, args, sub, token):
        self._agent_of[id(sub)] = args[0]

    def _after_solve_kkt(self, index, args, sol, kkt_before):
        group = kkt_caller(self.caller(index))
        self.counts[f"kkt_solves.{group}"] += self._kkt_solves - kkt_before
        agent = self._agent_of.pop(id(args[0]), None)
        if agent is None:
            return
        previous = self._last_active.get(agent)
        self._last_active[agent] = sol.active_set
        self.counts[f"agent_solves.{group}"] += 1
        self.counts[f"active_repeat.{group}"] += previous == sol.active_set

    def _after_gather(self, index, args, views, before):
        transport = args[0]
        self.counts["messages"] += getattr(transport, "messages", 0) - before[0]
        self.counts["log_messages"] += len(getattr(transport, "log", ())) - before[1]

    def _after_oracle(self, index, args, sol, token):
        self.counts["oracle_active_rows"] += len(sol.active_set)

    @contextmanager
    def active(self):
        """Install every wrapper; restore the originals on exit.

        A traced name the library no longer has is skipped, and its
        metrics read 0.
        """
        hooks = {
            "local_qp.assemble_subproblem": (None, self._after_assemble),
            "local_qp.solve_kkt": (lambda args: self._kkt_solves, self._after_solve_kkt),
            "oracle.solve_centralized": (None, self._after_oracle),
        }
        undo = []
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            before, after = hooks.get(name, (None, None))
            undo.append((rebind(original, self._wrap(name, original, before, after)),
                         original))

        # The local solver's KKT systems: counted, not spanned.
        kkt_solve = getattr(sys.modules.get("couplesolve.local_qp"), "_kkt_solve", None)
        if kkt_solve is not None:
            def counted_kkt_solve(*args):
                self._kkt_solves += 1
                return kkt_solve(*args)

            undo.append((rebind(kkt_solve, counted_kkt_solve), kkt_solve))

        def gather_before(args):
            return getattr(args[0], "messages", 0), len(getattr(args[0], "log", ()))

        methods = []
        for cls_name in TRANSPORTS:
            cls = getattr(sys.modules.get("couplesolve.simnet"), cls_name, None)
            if cls is None or "gather" not in vars(cls):
                continue  # an inherited gather is wrapped on its own class
            original = cls.gather
            cls.gather = self._wrap("simnet.gather", original, gather_before,
                                    self._after_gather)
            methods.append((cls, original))
        try:
            yield self
        finally:
            for bound, original in undo:
                restore(bound, original)
            for cls, original in methods:
                cls.gather = original

    # -- summaries ----------------------------------------------------------
    def summary(self) -> dict:
        """Per span name (and per caller group for solve_kkt): calls, total, self."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            keys = [name]
            if name == "local_qp.solve_kkt":
                keys.append(f"{name}.{kkt_caller(self.caller(index))}")
            for key in keys:
                entry = out[key]
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += end - start - child_time[index]
        return out

    def monitor_share(self) -> float:
        """Share of ``run`` time spent outside the round functions."""
        run_time = round_time = 0.0
        runs = set()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if name == "algorithms.run":
                run_time += end - start
                runs.add(index)
        for name, start, end, parent, _ in self.spans:
            if name in ROUND_SPANS and parent in runs:
                round_time += end - start
        return (run_time - round_time) / run_time if run_time else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
