"""Run one stepsqp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stall --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
src/. The workloads are stall, converge and campaign (see workloads.py);
`--workload all` runs the three in turn. --trace 0 prints the end-to-end
metrics, --trace 1 runs a separate traced measurement and prints the
per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Exit code 0 means every
run passed the correctness gate, 1 that some did not, 2 that the
program could not be found or the arguments are wrong.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported: the
# workloads and the speed gauge each keep exactly one core busy, and
# bench --jobs N then runs N threads, never more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("stall", "converge", "campaign")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> "str | None":
    # A ceiling at the checkout's parent keeps git from reporting some
    # enclosing repository when the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "threads_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _import_program():
    """Import stepsqp from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "stepsqp" / "__init__.py").is_file():
        print(f"error: no stepsqp package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import stepsqp

    if Path(stepsqp.__file__).resolve().parent != SRC / "stepsqp":
        print(f"error: stepsqp imported from {stepsqp.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def run_one(args) -> int:
    _import_program()
    import workloads

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work, SRC
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    tally = outcome.tally
    correct = tally.failed == 0
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    print("fingerprint " + json.dumps(outcome.fingerprint.as_dict(), sort_keys=True))
    print("report " + json.dumps(outcome.report, sort_keys=True))
    verdict = "correct" if correct else "INCORRECT"
    print(f"verdict {verdict}: {tally.failed} of {tally.attempted} operations failed "
          f"(fail_frac {tally.fail_frac:g})")
    for line in tally.violations[:20]:
        print(f"  violation {line}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own interpreter; combine their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
        status = max(status, proc.returncode)
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2^64) and --seconds positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
