"""Tests of the benchmark itself, run through its command.

    python3 polarbench/selftest.py            # about two minutes on 2 cores
    python3 -m pytest polarbench/selftest.py  # the same tests under pytest

The file name keeps these runs out of the package's own test collection.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, seed: int, trace: int):
    """One shortest run: (final JSON result, {digest name: value})."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests = dict(line.split(" ", 1) for line in lines
                   if line.startswith(("inputs_digest ", "verdict_digest ")))
    return json.loads(lines[-1]), digests


def _counts(result) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(".calls") or name == "transversal.grid_points"}


def test_same_seed_repeats_counts_and_verdicts():
    for workload in WORKLOADS:
        first, first_digests = bench(workload, 5, trace=1)
        second, second_digests = bench(workload, 5, trace=1)
        assert first["correct"] and second["correct"], workload
        assert _counts(first) == _counts(second), workload
        assert first_digests == second_digests, workload


def test_other_seed_changes_inputs_keeps_verdicts():
    for workload in WORKLOADS:
        first, first_digests = bench(workload, 5, trace=0)
        other, other_digests = bench(workload, 6, trace=0)
        assert first_digests["inputs_digest"] != other_digests["inputs_digest"], workload
        for result in (first, other):
            assert result["correct"] and result["failed"] == 0, workload


if __name__ == "__main__":
    for test in (test_same_seed_repeats_counts_and_verdicts,
                 test_other_seed_changes_inputs_keeps_verdicts):
        test()
        print(f"{test.__name__}: PASS", flush=True)
