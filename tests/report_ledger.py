"""The report ledger: catalog reports of ``analyze --entry all`` at fixed seeds.

``tests/reports/seed_<n>.json`` holds the report at seed n with every
record's ``runtime`` removed.  ``test_report_ledger`` re-runs the reports
and compares them field by field: statuses, verdicts, strings, integers
and booleans exactly, floats to ``REL_TOL`` relative with an absolute
floor of ``ABS_FLOOR``, so that last-digit libm differences between hosts
pass and a moved residual or counter does not.

Run ``PYTHONPATH=src python tests/report_ledger.py`` from the repository
root to rewrite the ledger; it prints each field that moved, as
``seed <n> <path>: <committed> -> <new>``, for the change's notes.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

from polaris import cli

SEEDS = (0, 1, 7)
LEDGER = Path(__file__).resolve().parent / "reports"
REL_TOL = 1e-9
ABS_FLOOR = 1e-14


def ledger_path(seed: int) -> Path:
    return LEDGER / f"seed_{seed}.json"


def current_report(seed: int) -> dict:
    """The catalog report at ``seed``, from the command line, without runtimes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["analyze", "--entry", "all", "--seed", str(seed)])
    doc = json.loads(out.getvalue())
    for report in doc["reports"]:
        for record in report["records"]:
            record.pop("runtime")
    return doc


def _floats_agree(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def differences(old, new, path: str = ""):
    """(path, old, new) of every field where ``new`` departs from ``old``."""
    if type(old) is not type(new):
        yield path, old, new
    elif isinstance(old, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                yield f"{path}.{key}", old.get(key, "<absent>"), new.get(key, "<absent>")
            else:
                yield from differences(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list):
        if len(old) != len(new):
            yield f"{path}.length", len(old), len(new)
        for i, (a, b) in enumerate(zip(old, new)):
            # a report is named by its entry and a record by its check
            key = a.get("entry", a.get("check", i)) if isinstance(a, dict) else i
            yield from differences(a, b, f"{path}[{key}]")
    elif isinstance(old, float):
        if not _floats_agree(old, new):
            yield path, old, new
    elif old != new:
        yield path, old, new


def main() -> int:
    LEDGER.mkdir(exist_ok=True)
    moved = 0
    for seed in SEEDS:
        new = current_report(seed)
        path = ledger_path(seed)
        if path.exists():
            for where, a, b in differences(json.loads(path.read_text()), new):
                print(f"seed {seed} {where}: {a!r} -> {b!r}")
                moved += 1
        path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{moved} fields moved; ledger written to {LEDGER}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
