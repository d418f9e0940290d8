"""Each demo runs to completion in a fresh interpreter, with no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import biplane

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# Lines a demo must print: the claims of the paper it shows
CLAIMS = {"06_cartesian_decomposition": ["order-1152 subgroup point-primitive: True",
                                         "order-1152 subgroup orbits on flags: 1"]}


def test_all_demos_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(biplane.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
    lines = proc.stdout.splitlines()
    assert all(claim in lines for claim in CLAIMS.get(demo.stem, ()))
