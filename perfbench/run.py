"""Pipeline benchmark for pnp-upscale.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's inputs are generated
from the seed, set-up is timed in several fresh interpreters, then the
workload's pipeline command runs in a fresh interpreter, round after round,
until S seconds have passed.  Every command's outputs are checked.  Times are
reported at a reference machine speed gauged by ``speed.probe``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up is timed this many times before the first round, and once per round
SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 150
#: BLAS threads of the program.  At the workloads' sizes a second OpenBLAS
#: thread bought no wall time (it only doubled cpu_s) and made the figures
#: noisier on a shared machine, so the program runs with one.
BLAS_THREADS = 1

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = inputs.program_env(ROOT)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list, result: Path, env: dict) -> tuple[int, dict | None]:
    """Run child.py in a fresh interpreter; return (exit code, its result)."""
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), args[0], str(result), *args[1:]],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode or 1, None
    data = json.loads(result.read_text())
    return int(data["code"]) if "code" in data else 0, data


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    paths = sorted(out.rglob("*")) if out.is_dir() else [out]
    for path in paths:
        if path.is_file():
            digest.update(str(path.relative_to(out.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def median(values: list) -> float:
    return float(statistics.median(values))


def as_reported(value, unit: str):
    if unit == "count" and value is not None and float(value).is_integer():
        return int(value)
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pnp_upscale" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cores={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    env = child_env()
    inp = inputs.make_inputs(args.workload, args.seed, work, ROOT)
    result = work / "child.json"

    setup_args = ["setup", str(inp.config)] + ([str(inp.tensors)] if inp.tensors else [])
    setups = []

    def time_setup() -> bool:
        _, data = run_child(setup_args, result, env)
        if data is not None:
            setups.append(data)
        return data is not None

    # the first set-up warms the file cache and the bytecode cache, untimed
    if not all(time_setup() for _ in range(SETUP_REPEATS + 1)):
        print("perfbench: set-up failed", file=sys.stderr)
        return 1
    del setups[0]

    # one round is one untraced command, plus one traced command with --trace 1
    kinds = ["0", "1"] if args.trace else ["0"]
    runs = {kind: [] for kind in kinds}
    attempted = failed = 0
    correct = True
    first_digest = None
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        for kind in kinds:
            attempted += 1
            code, data = run_child(["op", kind, "--", *inp.argv], result, env)
            if code != 0 or data is None:
                print(f"perfbench: command exited with {code}", file=sys.stderr)
                failed += 1
                continue
            fails = checks.check_outputs(args.workload,
                                         checks.load_outputs(args.workload, inp.out), inp)
            digest = output_digest(inp.out)
            first_digest = first_digest or digest
            if digest != first_digest:
                fails.append(("deterministic", "outputs differ from the run's first command"))
            if fails:
                for name, message in fails:
                    print(f"perfbench: check {name} failed: {message}", file=sys.stderr)
                failed += 1
                correct = False
                continue
            runs[kind].append(data)
            print(f"perfbench: command {attempted} trace={kind} wall_s={data['wall_s']:.4f} "
                  f"cpu_s={data['cpu_s']:.4f} probe_s={data['probe_s']:.4f} "
                  f"peak_rss_mb={data['peak_rss_mb']:.1f}", file=sys.stderr)
        # one more set-up sample per round spreads them over the whole run
        if not time_setup():
            print("perfbench: set-up failed", file=sys.stderr)
            return 1

    if args.trace:
        metrics = layer_metrics(runs, setups)
        units = tracing.LAYER_METRICS
    else:
        metrics = {name: median([speed.at_reference(r[name], r["probe_s"]) for r in runs["0"]])
                   if runs["0"] else None for name in ("wall_s", "cpu_s")}
        metrics["peak_rss_mb"] = median([r["peak_rss_mb"] for r in runs["0"]]) if runs["0"] else None
        metrics["setup_s"] = median([speed.at_reference(s["setup_s"], s["probe_s"])
                                     for s in setups])
        units = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": as_reported(metrics.get(name), unit), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def layer_metrics(runs: dict, setups: list) -> dict:
    """Medians over the run's traced commands of each per-layer figure, as
    measured (not brought to the reference speed); ``speed.probe_s`` gives
    the machine's speed during them."""
    per_command = [tracing.command_layer_metrics(r["spans"], r["wall_s"]) for r in runs["1"]]
    metrics = {}
    if per_command:
        for name in per_command[0]:
            metrics[name] = median([c[name] for c in per_command])
        if runs["0"]:
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                           - median([r["wall_s"] for r in runs["0"]]))
    metrics["config.load_s"] = median([s["load_s"] for s in setups])
    metrics["unitcell.build_s"] = median([s["build_s"] for s in setups])
    metrics["setup.import_s"] = median([s["import_s"] for s in setups])
    metrics["speed.probe_s"] = median([r["probe_s"] for r in runs["1"]]) if runs["1"] else None
    return metrics


if __name__ == "__main__":
    sys.exit(main())
