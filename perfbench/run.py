"""lacvoid benchmark: seeded CLI workloads, output checks, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload decode --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
runs the workload untraced and then traced, each for half of --seconds,
and reports the per-layer metrics and the tracing overhead. Every run
happens in fresh worker processes with the thread budget pinned: the
CLI pool gets nproc threads and BLAS one. The last stdout line is the
result object; the line before it records the machine and the threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 150

# name -> unit; every workload reports every one (README.md defines them).
END_TO_END = {"setup_s": "s", "wall_s": "s", "tok_per_s": "1/s", "peak_rss_mb": "MB"}


def thread_env() -> dict[str, str]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({"LAC_VOID_THREADS": str(nproc), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)})
    return env


def context(env: dict[str, str]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"},
        "threads": {k: env[k] for k in ("LAC_VOID_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")},
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(name: str, work_dir: Path, seconds: float, traced: bool, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--work-dir", str(work_dir),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = proc.stdout.strip().splitlines()[-1]
    (work_dir / f"{'traced' if traced else 'untraced'}.json").write_text(out + "\n", encoding="utf-8")
    return json.loads(out)


def check_run(workload, seed: int, prompts: list[str], work_dir: Path, result: dict, traced: bool):
    """(attempted, failed, problems) over every command of every iteration."""
    import checks

    iterations = result["iterations"]
    first = iterations[0]
    out0 = work_dir / ("traced" if traced else "untraced") / "iter0"
    bad = {(0, i) for i, rc in enumerate(first["rc"]) if rc != 0}
    problems = [f"iteration 0 command {i} exited {rc!r}" for i, rc in enumerate(first["rc"]) if rc != 0]
    for cmd, msg in checks.check_outputs(workload, seed, prompts, out0, first["forward_stdout"]):
        bad.add((0, cmd))
        problems.append(f"iteration 0: {msg}")
    for k, rec in enumerate(iterations[1:], start=1):
        for cmd, rc in enumerate(rec["rc"]):
            if rc != 0:
                bad.add((k, cmd))
                problems.append(f"iteration {k} command {cmd} exited {rc!r}")
        for cmd, msg in checks.compare_digests(rec["digests"], first["digests"]):
            bad.add((k, cmd))
            problems.append(f"iteration {k}: {msg} from iteration 0")
    attempted = sum(len(rec["rc"]) for rec in iterations)
    return attempted, len(bad), problems


def end_to_end(result: dict, records: int) -> dict[str, float]:
    timed = result["iterations"][1:]
    setup = [s for rec in timed for s in rec["setup_s"]]
    forward_rate = [records / (rec["wall_s"][0] - sum(rec["setup_s"])) for rec in timed]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(rec["wall_s"]) for rec in timed),
        "tok_per_s": statistics.median(forward_rate),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced_e2e: dict, traced_e2e: dict) -> dict[str, float]:
    from layers import LAYER_METRICS

    timed = traced["iterations"][1:]
    metrics = {name: statistics.median(rec["layers"][name] for rec in timed)
               for name in LAYER_METRICS if name in timed[0]["layers"]}
    steps = sorted(ms for rec in timed for ms in rec["rg_steps_ms"])
    if len(steps) >= 2:
        cuts = statistics.quantiles(steps, n=100)
        metrics["model.rg_step_ms.p50"], metrics["model.rg_step_ms.p99"] = cuts[49], cuts[98]
    else:
        metrics["model.rg_step_ms.p50"] = metrics["model.rg_step_ms.p99"] = steps[0] if steps else 0.0
    metrics["tracing.overhead_s"] = traced_e2e["wall_s"] - untraced_e2e["wall_s"]
    return {name: metrics[name] for name in LAYER_METRICS}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env) -> dict:
    import workloads
    from layers import LAYER_METRICS

    workload = workloads.WORKLOADS[name]
    work_dir = HERE / "out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    inputs = workloads.make_inputs(workload, seed, work_dir / "inputs")
    (work_dir / "inputs.json").write_text(json.dumps({k: str(v) for k, v in inputs.items()}), encoding="utf-8")
    prompts = inputs["prompts"].read_text(encoding="ascii").splitlines()

    share = seconds / 2 if trace else seconds
    untraced = run_worker(name, work_dir, share, False, env)
    attempted, failed, problems = check_run(workload, seed, prompts, work_dir, untraced, False)
    records = len((work_dir / "untraced" / "iter0" / "trace.jsonl").read_text(encoding="utf-8").splitlines())
    e2e = end_to_end(untraced, records)
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if trace:
        traced = run_worker(name, work_dir, share, True, env)
        a, f, p = check_run(workload, seed, prompts, work_dir, traced, True)
        attempted, failed, problems = attempted + a, failed + f, problems + [f"traced {m}" for m in p]
        layer = per_layer(traced, e2e, end_to_end(traced, records))
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in layer.items()}
    for msg in problems:
        print(f"{name}: FAILED CHECK {msg}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["decode", "prefill", "replay", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lacvoid" / "cli.py").is_file():
        print(f"error: no lacvoid sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = thread_env()
    names = ["decode", "prefill", "replay"] if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps(context(env)))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
