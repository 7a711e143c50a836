"""Static checks over the package source and the scripts that call it."""

import ast
import importlib
from functools import partial
from pathlib import Path

import couplesolve as cs

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "couplesolve"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_unused_imports():
    # __init__ imports only to re-export
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := unused_imports(p))}
    assert unused == {}


def test_unused_import_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\nimport os.path\nfrom json import dumps, loads\n"
                      "print(os.path.sep, loads)\n")
    assert unused_imports(module) == ["dumps", "math"]


# Every intra-package import names a module earlier in this order.
LAYERS = ("exceptions", "trace", "problem", "graph", "local_qp", "simnet", "oracle",
          "algorithms", "cbf", "formats", "cli")


def layering_faults(path: Path, layers=LAYERS) -> list[str]:
    """A module's imports that break the layering.

    An import inside a function or class body, and a ``from .x import`` or
    ``from . import x`` whose module x is not earlier in ``layers`` than
    the importing module itself.
    """
    rank = {name: k for k, name in enumerate(layers)}
    tree = ast.parse(path.read_text())
    faults = []

    def visit(node, nested):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and nested:
            faults.append(f"line {node.lineno}: import inside a function or class")
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [a.name for a in node.names]
            faults.extend(f"line {node.lineno}: imports {target}" for target in targets
                          if rank.get(target, len(layers)) >= rank[path.stem])
        nested = nested or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, nested)

    visit(tree, False)
    return faults


def test_package_imports_one_way():
    # No import hides in a function to dodge a cycle, and the modules import
    # in one order, so the package has no cycle.
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert sorted(p.stem for p in modules) == sorted(LAYERS)
    faults = {p.name: found for p in modules if (found := layering_faults(p))}
    assert faults == {}


def test_layering_faults_see_nested_and_backward_imports(tmp_path):
    module = tmp_path / "graph.py"
    module.write_text("from . import trace\nfrom .exceptions import ValidationError\n"
                      "from .local_qp import AgentBatch\nfrom .graph import Graph\n"
                      "def f():\n    from .problem import ProblemSpec\n"
                      "class C:\n    import math\n")
    assert layering_faults(module) == [
        "line 3: imports local_qp", "line 4: imports graph",
        "line 6: import inside a function or class",
        "line 8: import inside a function or class"]


TOLERANCES = {"_ADD_TOL", "_DROP_TOL"}


def reads_name(node, names=TOLERANCES) -> bool:
    """A read of one of ``names`` (by default ``_ADD_TOL`` or ``_DROP_TOL``):
    a load, an attribute or an import."""
    return ((isinstance(node, ast.Name) and node.id in names
             and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.alias) and node.name in names))


def reads_stored_rows(node) -> bool:
    """A read of a ``CouplingConstraints`` row getter: ``agent_rows``, ``row``,
    ``ineq_row`` or ``eq_row``."""
    return isinstance(node, ast.Attribute) and node.attr in {
        "agent_rows", "row", "ineq_row", "eq_row"}


def readers(path: Path, reads=reads_name) -> set[str]:
    """The functions of a module with a node that ``reads``.

    Qualified within the module (``Class.method``); a read outside any
    function is ``<module>``.
    """
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if reads(node):
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def library_readers(reads) -> set[str]:
    """``readers`` over every package module, as ``module.function``."""
    return {f"{p.stem}.{name}" for p in sorted(SOURCE.glob("*.py"))
            for name in readers(p, reads)}


def test_active_set_rules_have_one_home():
    # The add and drop tolerances are read by the two rules the loop
    # applies, and the package has one active-set loop: the lock-step loop
    # alone moves a working set and raises the cycling and cap diagnoses,
    # and no other copy of the loop or of its LU solve is defined.
    assert library_readers(reads_name) == {"local_qp._accepted", "local_qp._moves"}
    for name in ("_moves", "_revisited", "_capped"):
        assert library_readers(partial(reads_name, names={name})) == {
            "local_qp.AgentBatch._lockstep"}, name
    defined = sorted(f"{p.stem}.{node.name}" for p in sorted(SOURCE.glob("*.py"))
                     for node in ast.walk(ast.parse(p.read_text()))
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and node.name in {"solve_kkt", "_kkt_solve", "_active_set"})
    assert defined == []


def test_stored_rows_are_stacked_in_one_place():
    # ProblemSpec's construction is the one walk that stacks every agent's
    # rows into ProblemSpec.blocks, which every other reader reads; the
    # problem file's writer takes the stored rows as they are.
    assert library_readers(reads_stored_rows) == {"problem.ProblemSpec.__post_init__",
                                                   "formats.problem_to_dict"}


def used(name, node) -> bool:
    """A load or an attribute of ``name``; an import alone is no use."""
    return not isinstance(node, ast.alias) and reads_name(node, names={name})


def test_one_rank_report_per_problem():
    # The problem builds its report once; AgentBatch.licq serves only the
    # safety filter's refreshed batch, whose rows the problem's report does
    # not describe.  Every other reader asks validate_licq.
    assert library_readers(partial(used, "licq_report")) == {
        "problem.ProblemSpec._licq", "local_qp.AgentBatch.licq"}
    def attribute(name, node):
        return isinstance(node, ast.Attribute) and node.attr == name

    assert library_readers(partial(attribute, "_licq")) == {"problem.validate_licq"}
    assert library_readers(partial(attribute, "licq")) == {"cbf.run_closed_loop"}


def test_one_cost_arithmetic():
    # Every objective value is cost_shares summed over the agents one way:
    # objective_value (the oracle's certificate reads it, and the duality
    # gap at x and at the dual point, whose row terms are the residuals'),
    # the batch's objective, one agent's value and the finite-difference
    # probes.  No einsum is left, whose bits move with z's memory layout,
    # nor the row-major copy of z that worked round it.
    assert library_readers(partial(used, "cost_shares")) == {
        "problem.AgentObjective.value", "problem.objective_value",
        "local_qp.AgentBatch.objective", "algorithms.finite_difference_gradient"}
    assert library_readers(partial(used, "objective_value")) == {
        "oracle._certificate", "oracle.duality_gap"}
    assert library_readers(partial(used, "worst_residuals")) == {
        "problem.max_violation", "local_qp.AgentBatch.violation"}
    assert library_readers(partial(used, "aggregate_violation")) == {
        "problem.max_violation", "oracle.stacked_arrays", "oracle._certificate",
        "oracle.duality_gap"}
    assert [p.name for p in sorted(SOURCE.glob("*.py")) if "einsum" in p.read_text()] == []
    assert "ascontiguousarray" not in (SOURCE / "local_qp.py").read_text()


def test_one_lagrangian_solve_per_block():
    # The problem factors each block once (ProblemSpec.block_solves), and
    # one function forms every Lagrangian minimizer from it: the oracle's
    # recovered x and the duality gap's dual point.  The gap runs no
    # per-agent least-squares solve.
    assert library_readers(partial(reads_attribute, "cholesky")) == {
        "problem.ProblemSpec.block_solves"}
    assert library_readers(partial(reads_attribute, "block_solves")) == {
        "problem.lagrangian_minimizer", "oracle._ConstraintSpace.__init__",
        "oracle._ConstraintSpace.compile"}
    assert library_readers(partial(used, "lagrangian_minimizer")) == {
        "oracle._ConstraintSpace.recover", "oracle.duality_gap"}
    assert "oracle.duality_gap" not in library_readers(partial(reads_attribute, "lstsq"))


def reads_attribute(name, node) -> bool:
    """An attribute ``.name``, read or called."""
    return isinstance(node, ast.Attribute) and node.attr == name


def test_one_home_for_the_one_hop_structure():
    # induce_topology finds every closed-neighbourhood read once, as the
    # topology's hops, and the weights, their boundary check, the transport,
    # the batch and the probes read them.  What still walks a neighbourhood
    # is the scalar reference consensus_gap and the safety filter's nominal
    # inputs (on the graph's own accessor); no module rebuilds a layout from
    # a topology, which keeps its own.
    assert library_readers(partial(reads_attribute, "neighborhood")) == {
        "graph.consensus_gap", "cbf.nominal_consensus"}
    assert library_readers(partial(reads_attribute, "from_topology")) == set()


def test_tolerance_readers_see_functions_methods_and_imports(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from .local_qp import _DROP_TOL\n_ADD_TOL = 1.0\n"
                      "def f(x):\n    return x > _ADD_TOL\n"
                      "class C:\n    def g(self, q):\n        return q._DROP_TOL\n"
                      "def h():\n    _ADD_TOL = 2.0\n")
    assert readers(module) == {"<module>", "f", "C.g"}


def test_stored_row_readers_see_attributes_only(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def f(cons, row):\n    return cons.row(1, row)\n"
                      "class C:\n    def g(self):\n        return self.cons.agent_rows(1)\n"
                      "def h(row, agent_rows):\n    return row, agent_rows\n"
                      "def k(cons):\n    return cons.ineq_row(1, 1), cons.eq_row(1, 1)\n")
    assert readers(module, reads_stored_rows) == {"f", "C.g", "k"}


def test_transport_defines_gather_on_its_class():
    # benchmarks/tracer.py wraps only a gather defined on the transport class
    # itself; an inherited one would leave simnet.gather.* and simnet.messages
    # reading 0 without an error.
    assert "gather" in vars(cs.SimnetTransport)


def library_references(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) pairs a script reads from couplesolve.

    Every ``<alias>.<name>`` of an ``import couplesolve[.<mod>] as <alias>``
    and every ``entry_hook("couplesolve.<mod>", "<attr>", ...)`` call.
    """
    tree = ast.parse(path.read_text())
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name.split(".")[0] == "couplesolve"}
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "entry_hook" and len(node.args) >= 2
              and all(isinstance(arg, ast.Constant) for arg in node.args[:2])
              and str(node.args[0].value).startswith("couplesolve")):
            found.add((node.args[0].value, node.args[1].value))
    return found


def test_benchmark_and_tool_scripts_read_only_names_the_library_has():
    # A name these scripts call that the library no longer has would crash
    # the benchmark or the digest tool; fail here first.
    scripts = sorted([*ROOT.glob("benchmarks/*.py"), *ROOT.glob("tools/*.py")])
    refs = {ref for path in scripts for ref in library_references(path)}
    assert ("couplesolve", "run") in refs
    assert ("couplesolve.cbf", "euler_step") in refs
    missing = sorted(f"{module}.{attr}" for module, attr in refs
                     if not hasattr(importlib.import_module(module), attr))
    assert missing == []


def test_library_references_see_aliases_and_entry_hooks(tmp_path):
    script = tmp_path / "script.py"
    script.write_text("import couplesolve as cs\nimport couplesolve.formats as formats\n"
                      "cs.run(cs.gone)\nformats.emit_trajectory\n"
                      "with entry_hook('couplesolve.cbf', 'euler_step', f):\n    pass\n")
    assert library_references(script) == {
        ("couplesolve", "run"), ("couplesolve", "gone"),
        ("couplesolve.formats", "emit_trajectory"), ("couplesolve.cbf", "euler_step")}
