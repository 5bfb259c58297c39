"""Every name a module of the package imports is used in that module, the
package metadata names exactly the third-party packages it imports,
importing it loads no scipy, and the oracle imports nothing from the
engine it checks."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "onewaysim"


def imported_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_dependencies_name_the_imported_packages():
    """``pyproject.toml`` lists exactly the third-party packages that the
    package imports."""
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in meta["project"]["dependencies"]}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert declared == imported - set(sys.stdlib_module_names)


def test_oracle_imports_nothing_from_the_engine():
    """The ground truth must not share code with the fidelity engine that
    it checks."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            sources.update([node.module] if node.module else [alias.name for alias in node.names])
    assert "fidelity" not in sources


def test_no_module_loads_scipy():
    modules = [f"onewaysim.{path.stem}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    code = f"import sys; import {', '.join(modules)}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_private_name_is_read():
    """Each module-level private ``_name`` of the package is read somewhere
    in it, so a deletion leaves no orphaned helper behind."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [d for d in defined if d.startswith("_") and not d.startswith("__")]
            unread += [f"{name}: {d}" for d in private if d not in read]
    assert not unread, f"private names nobody reads: {', '.join(unread)}"


def test_every_plan_piece_is_read():
    """Each cached piece of ``PatternPlan`` is read off a plan by some module
    of the package, as ``plan.<piece>``, ``<expr>.plan.<piece>`` or, inside
    ``PatternPlan``, ``self.<piece>``, so a piece that a change replaced
    cannot linger on the plan; an attribute of the same name on anything
    else, such as ``mats.trace``, does not count."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    plan = next(
        node for node in ast.walk(ast.parse((PACKAGE / "pattern.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "PatternPlan"
    )
    read = {
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (
            isinstance(node.value, ast.Name) and node.value.id == "plan"
            or isinstance(node.value, ast.Attribute) and node.value.attr == "plan"
        )
    }
    read |= {
        node.attr for node in ast.walk(plan)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    pieces = [
        node.name for node in plan.body
        if isinstance(node, ast.FunctionDef) and any(ast.unparse(d).endswith("cached_property") for d in node.decorator_list)
    ]
    assert len(pieces) >= 9
    unread = [name for name in pieces if name not in read]
    assert not unread, f"plan pieces nobody reads: {', '.join(unread)}"
