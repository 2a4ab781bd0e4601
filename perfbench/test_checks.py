"""The output checks catch a one-byte corruption of a copied output.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import io
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from lacvoid import cli  # noqa: E402

WORKLOAD = workloads.WORKLOADS["replay"]  # the one workload that writes every kind of output


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Outputs of one replay iteration at the default seed."""
    base = tmp_path_factory.mktemp("replay")
    inputs = workloads.make_inputs(WORKLOAD, checks.DEFAULT_SEED, base / "inputs")
    out = base / "out"
    stdouts = []
    for argv in workloads.commands(WORKLOAD, inputs, out):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(argv) == 0
        stdouts.append(buf.getvalue())
    prompts = inputs["prompts"].read_text(encoding="ascii").splitlines()
    return prompts, out, stdouts[0]


def _corrupted_copy(out: Path, dest: Path, name: str) -> Path:
    copy = dest / "copy"
    shutil.copytree(out, copy)
    data = bytearray((copy / name).read_bytes())
    i = len(data) // 2
    data[i] = ord("7") if data[i] != ord("7") else ord("8")
    (copy / name).write_bytes(bytes(data))
    return copy


def test_clean_outputs_pass(run):
    prompts, out, stdout = run
    assert checks.check_outputs(WORKLOAD, checks.DEFAULT_SEED, prompts, out, stdout) == []


@pytest.mark.parametrize("name", ["trace.jsonl", "sweep.csv", "report.csv", "report_summary.json",
                                  "bitmap_seq000_pp.pgm", "bitmap_seq015_rg.pgm"])
def test_one_byte_corruption_is_caught(run, tmp_path, name):
    prompts, out, stdout = run
    copy = _corrupted_copy(out, tmp_path, name)
    problems = checks.check_outputs(WORKLOAD, checks.DEFAULT_SEED, prompts, copy, stdout)
    assert (checks.written_by(name), f"{name}: digest differs") in problems


@pytest.mark.parametrize("name", ["bitmap_seq005_pp.pgm", "report.csv"])
def test_invariants_catch_corruption_without_pinned_digests(run, tmp_path, name):
    prompts, out, stdout = run
    copy = _corrupted_copy(out, tmp_path, name)
    other_seed = checks.DEFAULT_SEED + 1  # invariants only, no digest comparison
    assert checks.check_outputs(WORKLOAD, other_seed, prompts, out, stdout) == []
    problems = checks.check_outputs(WORKLOAD, other_seed, prompts, copy, stdout)
    assert any(name in msg and cmd == checks.REPORT for cmd, msg in problems)
