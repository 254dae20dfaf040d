"""Import-cost guard: the command-line front end loads no heavy optional
dependency. scipy and networkx alone used to cost about 500 ms of every
bellpoly process's startup."""
import os
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
