"""The decode and prefill benchmark workloads reproduce their pinned seed-0 outputs.

decode runs token granularity under halt-frozen and prefill runs
example granularity under skip-identity, so both go through the
executor's masking paths. Each runs its CLI commands once in-process
and compares every output with perfbench/digests.json.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from lacvoid import cli  # noqa: E402


@pytest.mark.parametrize("name", ["decode", "prefill"])
def test_seed0_outputs_match_pinned_digests(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, checks.DEFAULT_SEED, tmp_path / "inputs")
    out = tmp_path / "out"
    stdouts = []
    for argv in workloads.commands(workload, inputs, out):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(argv) == 0
        stdouts.append(buf.getvalue())
    prompts = inputs["prompts"].read_text(encoding="ascii").splitlines()
    assert checks.check_outputs(workload, checks.DEFAULT_SEED, prompts, out, stdouts[0]) == []
