"""Runs one workload's CLI commands in-process, repeatedly, in a fresh process.

Started by run.py with the thread settings already in the environment.
Iteration 0 warms up and is kept on disk for the full output check; the
iterations after it are timed until --seconds have passed. Prints one
JSON object: per-iteration command exit codes, wall times, set-up times,
output digests and (with --trace 1) per-layer metrics, plus this
process's peak RSS.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import checks
import workloads

MIN_TIMED_ITERATIONS = 3


def _timed_setup(fn, times: list[float]):
    """Wrap the CLI's one model set-up call (build_model or load_weights)."""
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)
    return timed


def _run_command(cli, argv: list[str]) -> tuple[object, float, str]:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        rc = traceback.format_exc()
    return rc, time.perf_counter() - start, buf.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--work-dir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = json.loads((args.work_dir / "inputs.json").read_text(encoding="utf-8"))
    inputs = {k: Path(v) for k, v in inputs.items()}

    import lacvoid.cli as cli
    tracer = None
    if args.trace:
        import layers
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_times: list[float] = []
    cli.build_model = _timed_setup(cli.build_model, setup_times)
    cli.load_weights = _timed_setup(cli.load_weights, setup_times)

    out_root = args.work_dir / ("traced" if args.trace else "untraced")
    shutil.rmtree(out_root, ignore_errors=True)
    iterations, spans = [], []
    timed_from = None
    while True:
        k = len(iterations)
        out_dir = out_root / f"iter{k}"
        del setup_times[:]
        if tracer:
            tracer.take()
        runs = [_run_command(cli, argv) for argv in workloads.commands(workload, inputs, out_dir)]
        rec = {"rc": [r[0] for r in runs], "wall_s": [r[1] for r in runs],
               "setup_s": list(setup_times), "digests": checks.digest_dir(out_dir) if out_dir.exists() else {}}
        if k == 0:
            rec["forward_stdout"] = runs[0][2]
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        if tracer:
            spans = tracer.take()
            rec["layers"], rec["rg_steps_ms"] = layers.layer_metrics(spans)
        iterations.append(rec)
        now = time.perf_counter()
        if timed_from is None:
            timed_from = now
        elif now - timed_from >= args.seconds and k >= MIN_TIMED_ITERATIONS:
            break

    if tracer:  # spans of the last iteration, kept in memory until the end
        with gzip.open(out_root / "spans.tsv.gz", "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tthread\tcount\n")
            for s in spans:
                fh.write("\t".join("" if v is None else str(v) for v in s) + "\n")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump({"iterations": iterations, "peak_rss_mb": peak_rss_mb}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
