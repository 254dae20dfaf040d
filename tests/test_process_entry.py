"""The process entry, `cli.run`: `python -m bellpoly.cli` and the console
script print the report and stderr that `cli.main` prints in process, byte
for byte, and exit with its code; an atexit handler registered before the
run still fires; a report that cannot be written (a full disk, a closed
pipe) exits 2 with one line on stderr and no traceback."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bellpoly import cli
from tests.conftest import make_nlc3_game, make_phi_ex_game

ROOT = Path(__file__).resolve().parents[1]
WRITE_FAILED = "bellpoly: cannot write report: "


def _console_entry():
    """The `module:function` that [project.scripts] makes the bellpoly command."""
    text = (ROOT / "pyproject.toml").read_text()
    return re.search(r'^\[project\.scripts\]\s*\nbellpoly = "([\w.]+):(\w+)"', text, re.M).groups()


def _python(args, stdout=subprocess.PIPE, **env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p), **env)
    return subprocess.run([sys.executable] + args, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def _as_module(argv, prelude=""):
    if prelude:  # what `python -m` does, after the prelude ran
        return _python(["-c", f"{prelude}\nimport runpy, sys\nsys.argv = ['bellpoly'] + {argv!r}\n"
                              "runpy.run_module('bellpoly.cli', run_name='__main__')"])
    return _python(["-m", "bellpoly.cli"] + argv)


def _as_console_script(argv, prelude=""):
    # the wrapper pip writes for a console script
    module, function = _console_entry()
    return _python(["-c", f"{prelude}\nimport sys\nfrom {module} import {function}\n"
                          f"sys.argv = ['bellpoly'] + {argv!r}\nsys.exit({function}())"])


# force the soundness cross-check of a value report to fail (exit 4)
DOCTORED_BOUND = "import bellpoly.values as V\nV._linear_bound = lambda g, norms: 0.1"


def _commands(tmp_path):
    nlc3, phi_ex, ineq = (str(tmp_path / name) for name in
                          ("nlc3.json", "phi-ex.json", "chsh-correlator.json"))
    Path(nlc3).write_text(cli.serialize_game(make_nlc3_game()))
    Path(phi_ex).write_text(cli.serialize_game(make_phi_ex_game()))
    Path(ineq).write_text('{"space": "correlator", "bound": "2", '
                          '"coeffs": [["1", "1"], ["1", "-1"]]}')
    return [
        (["chsh", "9/20", "5/20", "5/20", "1/20"], "", 0),
        (["cut", "pentagonal"], "", 0),
        (["cut", "facet", "--b=1,1,1,-1,-1"], "", 0),
        (["facet-test", ineq, "--polytope", "correlation"], "", 0),
        (["analyze-game", nlc3], "", 0),
        (["analyze-game", str(tmp_path / "missing.json")], "", 2),
        (["chsh", "1", "2", "x", "4"], "", 2),
        (["analyze-game", phi_ex, "--budget", "10"], "", 3),
        (["analyze-game", nlc3], DOCTORED_BOUND, 4),
    ]


def test_the_console_script_is_the_process_entry():
    assert _console_entry() == ("bellpoly.cli", "run")


@pytest.mark.parametrize("launch", [_as_module, _as_console_script])
def test_a_process_prints_what_main_prints(tmp_path, capsys, monkeypatch, launch):
    for argv, prelude, code in _commands(tmp_path):
        with monkeypatch.context() as m:
            if prelude:
                import bellpoly.values as V
                m.setattr(V, "_linear_bound", lambda g, norms: 0.1)
            assert cli.main(argv) == code, argv
        out, err = capsys.readouterr()
        run = launch(argv, prelude)
        assert (run.returncode, run.stdout, run.stderr) == (code, out, err), argv


def test_an_atexit_handler_registered_before_the_run_fires():
    run = _python(["-c", "import atexit, sys\n"
                         "atexit.register(lambda: sys.stderr.write('handler ran'))\n"
                         "from bellpoly.cli import run\n"
                         "sys.argv = ['bellpoly', 'chsh', '1/4', '1/4', '1/4', '1/4']\n"
                         "run()"])
    assert run.returncode == 0 and run.stderr == "handler ran"
    assert '"tool": "bellpoly"' in run.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_full_disk_exits_2_with_one_line(unbuffered):
    # buffered, the report fails at the flush; unbuffered, at the write
    with open("/dev/full", "w") as full:
        run = _python(["-m", "bellpoly.cli", "chsh", "1/4", "1/4", "1/4", "1/4"], stdout=full,
                      PYTHONUNBUFFERED=unbuffered)
    assert run.returncode == 2
    assert run.stderr.startswith(WRITE_FAILED) and run.stderr.count("\n") == 1, run.stderr
    assert "No space left on device" in run.stderr


def test_a_closed_pipe_exits_2_with_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _python(["-m", "bellpoly.cli", "cut", "pentagonal"], stdout=write_end)
    finally:
        os.close(write_end)
    assert run.returncode == 2
    assert run.stderr.startswith(WRITE_FAILED) and run.stderr.count("\n") == 1, run.stderr
    assert "Broken pipe" in run.stderr
