"""polaris benchmark: one workload, one seed, one measured run.

    python3 polarbench/run.py --workload reduction --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The run starts the measured worker process with BLAS and OpenMP threads set
to 1, plus ``SETUP_PROBES`` processes that only set up, so that ``setup_s``
is a median over several set-ups.  It prints the machine, the digests of
inputs and verdicts, every metric with its unit, and as the last line the
JSON result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See polarbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# The launcher imports neither numpy nor the package, so it names the
# workloads itself; worker.py builds them.
WORKLOADS = ("reduction", "curvature", "geodesic", "algebraic")
SETUP_PROBES = 2
TIME_LIMIT_S = 170
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def worker(args, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **THREADS),
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {TIME_LIMIT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")
    if not (ROOT / "src" / "polaris" / "__init__.py").is_file():
        print(f"error: no polaris package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    load_start = os.getloadavg()
    commit, dirty = git_state()
    try:
        setups = [] if args.trace else \
            [worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        result = worker(args, deadline)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    notes = result["notes"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        notes["setup_s"] = f"median of {len(setups)} set-ups"

    attempted, failed = result["attempted"], result["failed"]
    machine = dict(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                   loadavg_start=load_start, loadavg_end=os.getloadavg(),
                   commit=commit, dirty=dirty, **result["machine"])
    print(f"polarbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} chunks={result['chunks']} ops={attempted}")
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"inputs_digest {result['inputs_digest']}")
    print(f"verdict_digest {result['verdict_digest']}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name:48s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"{'fail_ratio':48s} {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    for reason in result["failures"]:
        print(f"failed: {reason}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    correct = failed == 0 and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
