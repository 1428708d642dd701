"""The example scripts run and print the rates they demonstrate."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _ratios(lines, header):
    rows = lines[lines.index(header) + 1:]
    return [float(row.split()[-1]) for row in rows if len(row.split()) == 3]


def test_point_case_demo_refines_at_fourth_order():
    lines = _run("point_case_demo.py")
    ratios = _ratios(lines, "steps   endpoint error    ratio")
    assert len(ratios) == 4
    assert all(15.0 <= r <= 18.0 for r in ratios), ratios


def test_adiabatic_table_ratios():
    lines = _run("adiabatic_table.py")
    ratios = _ratios(lines, "lambda        |SP_lambda - SP_0|    ratio")
    assert len(ratios) == 6
    assert all(1.2 <= r <= 1.7 for r in ratios), ratios


def test_readme_quickstart_runs():
    # the first python block of the README, run as a reader would paste it
    text = (REPO / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from supertransport import" in block
    exec(compile(block, str(REPO / "README.md"), "exec"), {"__name__": "__readme__"})
