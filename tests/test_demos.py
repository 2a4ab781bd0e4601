"""Each demo script runs to completion as a user would start it, and
prints exactly its pinned stdout (tests/demo_stdout/<demo>.txt)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "demo_stdout"


def test_demos_exist():
    assert DEMOS
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_pinned_stdout(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
