"""Each demo script runs to completion as a user would start it, and
prints exactly its pinned stdout (tests/demo_stdout/<demo>.txt). Demos
run in Python's development mode with every warning an error, as strict
as the in-process tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lacvoid import cli, read_trace

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "demo_stdout"


def test_demos_exist():
    assert DEMOS
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_pinned_stdout(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    command = [sys.executable, "-X", "dev", "-W", "error", str(demo)]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, timeout=300)


def test_tracing_demo_run_twice_leaves_one_trace(tmp_path, capsys):
    # the demo replaces its trace.jsonl, so a second run does not double its records
    demo = ROOT / "demos" / "04_toy_model_tracing.py"
    for _ in range(2):
        proc = run_demo(demo, tmp_path)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    trace = tmp_path / "demo_out" / "trace.jsonl"
    assert len(read_trace(trace)) == 24
    assert cli.main(["report", "--trace", str(trace), "--out", str(tmp_path / "report")]) == 0
    assert capsys.readouterr().err == ""
