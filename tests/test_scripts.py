"""The scripts under scripts/, run as a user runs them: rows on good input,
exit 2 with a usage message and no traceback on bad input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_ks_convergence_rows():
    done = run_script("ks_convergence.py", "--q", "3,5", "--partitions", "1^2,1^9,2^1")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["partition", "q", "empirical", "exact", "abs_err", "C/sqrt(q)"]
    assert [row.split()[:2] for row in rows] == [["1^2", "3"], ["1^2", "5"], ["1^9", "out"], ["2^1", "3"], ["2^1", "5"]]
    assert rows[2].split() == ["1^9", "out", "of", "range"]


def test_linstat_gaussianity_rows():
    done = run_script("linstat_gaussianity.py", "--n", "1,4", "--m", "2,40")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["n", "nu", "m", "exact", "gaussian", "ratio"]
    assert [row.split()[:3] for row in rows] == [["1", "0", "2"], ["1", "0", "40"], ["4", "2", "2"], ["4", "2", "40"]]
    assert "out of range" in rows[1] and "out of range" in rows[3]
    assert rows[0].split()[-1] == "-"  # nu = 0: no scale to form a ratio with


@pytest.mark.parametrize(
    "name,argv,flag",
    [
        ("ks_convergence.py", ["--q", "4"], "--q"),
        ("ks_convergence.py", ["--q", "5,x"], "--q"),
        ("ks_convergence.py", ["--mode", "foo"], "--mode"),
        ("ks_convergence.py", ["--partitions", "1^2,x"], "--partitions"),
        ("linstat_gaussianity.py", ["--m", "2,x"], "--m"),
        ("linstat_gaussianity.py", ["--m", "-1"], "--m"),
        ("linstat_gaussianity.py", ["--n", "-4"], "--n"),
        ("linstat_gaussianity.py", ["--f", "0:x"], "--f"),
    ],
)
def test_bad_input_exits_2(name, argv, flag):
    done = run_script(name, *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert flag in done.stderr and "Traceback" not in done.stderr


def test_ks_convergence_over_budget_exits_4():
    done = run_script("ks_convergence.py", "--n", "3", "--q", "23", "--partitions", "1^2")
    assert done.returncode == 4
    assert "q^7 = 3404825447 exceeds budget" in done.stderr and "Traceback" not in done.stderr
