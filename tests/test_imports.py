"""Import guards: the command-line front end loads no heavy optional
dependency (scipy and networkx alone used to cost about 500 ms of every
bellpoly process's startup), and the package carries no unused import,
constant or private function or class, and no `assert` statement (stdlib
`ast` checks, as no linter is installed)."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = ("scipy", "networkx")


def test_cli_import_loads_no_scipy_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import bellpoly.cli, sys; "
            "print('\\n'.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    loaded = [m for m in out.split()
              if m.split(".")[0] in FORBIDDEN]
    assert loaded == []


def _names(tree, ctx):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def test_every_import_and_constant_is_used():
    # also every module-level private function and class: some module of
    # the package must read it, by name or as an attribute
    package = SRC / "bellpoly"
    exported = {alias.asname or alias.name
                for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read_anywhere = set().union(*(_names(tree, ast.Load) | {n.attr for n in ast.walk(tree)
                                                            if isinstance(n, ast.Attribute)}
                                  for tree in trees.values()))
    unused = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        read = _names(tree, ast.Load)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: import {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in read]
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            unused += [f"{name}: constant {t.id}" for t in targets
                       if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)
                       and t.id not in read and t.id not in exported]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    re.fullmatch(r"_(?!_).*", node.name) and node.name not in read_anywhere:
                unused.append(f"{name}: private {node.name}")
    assert unused == []


def test_no_assert_statement_in_the_package():
    # `python -O` strips asserts; a failed cross-check must raise
    # VerificationError (exit 4) under every interpreter flag
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "bellpoly").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
