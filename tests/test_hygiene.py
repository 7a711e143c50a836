"""Static checks over the package source."""

import ast
from pathlib import Path

import couplesolve as cs

SOURCE = Path(__file__).resolve().parent.parent / "src" / "couplesolve"


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


def test_transport_defines_gather_on_its_class():
    # benchmarks/tracer.py wraps only a gather defined on the transport class
    # itself; an inherited one would leave simnet.gather.* and simnet.messages
    # reading 0 without an error.
    assert "gather" in vars(cs.SimnetTransport)
