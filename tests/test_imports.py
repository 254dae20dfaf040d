"""Import guards: the command-line front end loads no heavy optional
dependency (scipy and networkx alone used to cost about 500 ms of every
bellpoly process's startup), `import bellpoly` and the commands that build
no array load no numpy (about 85 ms of a process on a quiet 2-vCPU host,
up to 145 ms under load), no command loads OpenSSL (`_hashlib` or `ssl`),
every lazy export is its submodule's object, the cut facet tests load no
game module and `facet-test` of an inequality file no `bellpoly.cut`, and
the package
carries no unused import, constant or private function or class, no
`assert` statement and no `dataclasses` import (stdlib `ast` checks, as no
linter is installed)."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellpoly

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = ("scipy", "networkx")


def _modules_after(code, expect_exit=0):
    """Full names of the modules loaded by a fresh interpreter that runs
    `code` with the package on its path (a package is listed whenever one
    of its submodules is); `code` must exit with expect_exit, and the module
    list is printed on stderr after it ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import atexit, sys\n"
            "atexit.register(lambda: sys.stderr.write('\\nMODULES ' + ' '.join(sys.modules)))\n"
            + code)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == expect_exit, run.stderr
    return set(run.stderr.rsplit("MODULES ", 1)[1].split())


def _cli_modules(argv, expect_exit=0):
    """`_modules_after` for `python -m bellpoly.cli` with these arguments."""
    return _modules_after(f"import runpy, sys; sys.argv = ['bellpoly'] + {argv!r}; "
                          "runpy.run_module('bellpoly.cli', run_name='__main__')", expect_exit)


def test_cli_import_loads_no_scipy_or_networkx():
    assert _modules_after("import bellpoly.cli") & set(FORBIDDEN) == set()


def test_package_import_loads_no_numpy():
    assert "numpy" not in _modules_after("import bellpoly")


@pytest.mark.parametrize("argv, code", [
    (["chsh", "9/20", "5/20", "5/20", "1/20"], 0),
    (["chsh", "--", "2/10", "3/10", "4/10", "-1/10"], 0),
    (["chsh", "1", "1", "1", "1"], 0),
    (["cut", "suspend", "--graph", "{graph}"], 0),
    (["cut", "cuts", "--graph", "{graph}"], 0),
    (["cut", "ce1", "--n", "4"], 0),
    (["cut", "ce-gap"], 0),
    (["--help"], 0),
    (["cut", "ce1"], 2),  # argparse refuses it: ce1 needs --n
    (["cut", "facet", "--help"], 0),
    (["cut", "pentagonal", "--graph", "{graph}"], 2),  # argparse refuses a stray option
    (["cut", "--graph", "{graph}", "suspend"], 2),  # an option before the operation
])
def test_commands_without_arrays_load_no_numpy(tmp_path, argv, code):
    graph = tmp_path / "c4.txt"
    graph.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
    argv = [str(graph) if a == "{graph}" else a for a in argv]
    assert "numpy" not in _cli_modules(argv, expect_exit=code)


GAME = ('{"kind": "linear", "d": 2, "mA": 2, "mB": 2, '
        '"q": [["1/4", "1/4"], ["1/4", "1/4"]], "f": [[0, 0], [0, 1]]}')
CORRELATOR = '{"space": "correlator", "bound": "2", "coeffs": [["1", "1"], ["1", "-1"]]}'


@pytest.mark.parametrize("argv, code", [
    (["chsh", "9/20", "5/20", "5/20", "1/20"], 0),
    (["cut", "suspend", "--graph", "{graph}"], 0),
    (["cut", "cuts", "--graph", "{graph}"], 0),
    (["cut", "ce1", "--n", "4"], 0),
    (["cut", "ce-gap"], 0),
    (["cut", "hypermetric", "--b", "1,1,-1"], 0),
    (["cut", "facet", "--b=1,1,1,-1,-1"], 0),
    (["cut", "pentagonal"], 0),
    (["analyze-game", "{game}"], 0),
    (["facet-test", "{game}", "--polytope", "bell"], 0),
    (["facet-test", "{correlator}", "--polytope", "correlation"], 0),
    (["--help"], 0),
    (["cut", "ce1"], 2),  # argparse refuses it: ce1 needs --n
])
def test_no_command_loads_openssl(tmp_path, argv, code):
    # the input digest comes from the interpreter's built-in SHA-256
    # module; hashlib would load OpenSSL's _hashlib (about 3.6 MB of memory)
    files = {"{graph}": ("c4.txt", "4\n0 1\n1 2\n2 3\n0 3\n"),
             "{game}": ("chsh.json", GAME), "{correlator}": ("chsh-correlator.json", CORRELATOR)}
    for name, text in files.values():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / files[a][0]) if a in files else a for a in argv]
    assert _cli_modules(argv, expect_exit=code) & {"_hashlib", "ssl"} == set()


def test_command_that_scans_cuts_loads_numpy():
    # the guard above can fail: a cut scan imports numpy where it runs
    assert "numpy" in _cli_modules(["cut", "hypermetric", "--b", "1,1,-1"])


def test_facet_test_of_a_game_file_loads_no_cut_module(tmp_path):
    # nor of an inequality file: a cut-space file is refused by its "space"
    # key, before bellpoly.cut would be read to parse it
    files = {
        "chsh.json": GAME,
        "chsh-correlator.json": CORRELATOR,
        "positivity-cell.json": '{"space": "probability", "bound": "0", "coeffs": '
                                '[[[["-1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]], '
                                '[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]]}',
        "triangle.json": '{"space": "cut", "n": 3, "bound": "0", '
                         '"coeffs": [[0, 1, "1"], [1, 2, "1"], [0, 2, "-1"]]}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        polytope = "bell" if name == "positivity-cell.json" else "correlation"
        code = 2 if name == "triangle.json" else 0
        assert "bellpoly.cut" not in _cli_modules(
            ["facet-test", str(tmp_path / name), "--polytope", polytope], code), name


@pytest.mark.parametrize("argv", [["cut", "facet", "--b=1,1,1,-1,-1"], ["cut", "pentagonal"]])
def test_cut_facet_tests_load_no_game_module(argv):
    # the rank tail they share with Bell facet tests lives in exactrank
    loaded = _cli_modules(argv)
    assert "bellpoly.exactrank" in loaded
    assert loaded & {"bellpoly.games", "bellpoly.values", "bellpoly.tightness"} == set()


def test_no_module_imports_dataclasses():
    # records come from bellpoly.records, which compiles no code per class
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "bellpoly").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert found == []


def test_every_export_is_its_submodule_object():
    for name in bellpoly.__all__:
        module = importlib.import_module(f"bellpoly.{bellpoly._EXPORTS[name]}")
        assert getattr(bellpoly, name) is getattr(module, name), name
    assert set(bellpoly.__all__) <= set(dir(bellpoly))
    with pytest.raises(AttributeError):
        bellpoly.no_such_name


# the behaviour model is a test reference (tests/behaviour_reference.py)
REFERENCE_ONLY = {
    "scenario": ("Behaviour", "behaviour_from_box", "mix", "is_no_signaling",
                 "enumerate_deterministic_boxes", "affine_dimension", "evaluate", "_table"),
    "cut": ("cut_to_behaviour", "ce1_from_triple_set", "ce_gap_certificate",
            "ce_gap_grid_search"),
}


def test_the_behaviour_model_is_not_in_the_library():
    from bellpoly.scenario import BellInequality, DeterministicBox
    for module, names in REFERENCE_ONLY.items():
        sub = importlib.import_module(f"bellpoly.{module}")
        for name in names:
            assert not hasattr(sub, name) and not hasattr(bellpoly, name), name
    assert not {"behaviour", "probability_vector"} & set(vars(DeterministicBox))
    assert not {"evaluate", "evaluate_box"} & set(vars(BellInequality))


# code only the tests reached: deleted, or kept in tests/games_reference.py
TEST_ONLY = {"games": ("subgame_restrict", "ditwise_add", "dits_to_index"),
             "tightness": ("saturating_boxes",)}


def test_test_only_code_is_not_in_the_library():
    from bellpoly.cut import CutVector
    from bellpoly.tightness import LambdaProfile
    for module, names in TEST_ONLY.items():
        sub = importlib.import_module(f"bellpoly.{module}")
        for name in names:
            assert not hasattr(sub, name) and name not in bellpoly.__all__, name
    assert "from_bits" not in vars(CutVector) and "i_max" not in vars(LambdaProfile)


def _names(tree, ctx):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def test_every_import_and_constant_is_used():
    # also every module-level private function and class: some module of
    # the package must read it, by name or as an attribute
    package = SRC / "bellpoly"
    exported = set(bellpoly._EXPORTS)
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
