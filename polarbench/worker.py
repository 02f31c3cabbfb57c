"""One run of one workload, in a process of its own; started by run.py.

Set-up time runs from the first statement of this file, so it covers the
package import, the catalog builds and the generation of every input.  The
run then executes its chunks of ops in a closed loop (one client, each op
starts when the previous one ends), judges every op, and prints one JSON
object as the last line of standard output.

With ``--trace 1`` it runs chunk 0 untraced, then runs each op of chunk 0
once more untraced and once with the package's public functions wrapped
(tracing.py), and reports per-layer figures.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import polaris  # noqa: E402

if Path(polaris.__file__).resolve().parent != (SRC / "polaris").resolve():
    sys.exit(f"error: polaris imported from {polaris.__file__}, not from {SRC}")

import tracing  # noqa: E402
from workloads import LIBRARY_ERRORS, WORKLOADS, Outcome  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
QUALITY = ("weyl.reduction.max_rel_error", "weyl.reduction.max_excess",
           "transversal.oneill.residual", "transversal.rescale.value",
           "transversal.claims.max_residual")


def run_chunk(ops):
    """Run ops back to back; return the chunk's wall time and per-op results."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            raw = op.run()
        except LIBRARY_ERRORS as exc:
            latency = time.perf_counter() - start
            name = type(exc).__name__
            outcome = Outcome(False, f"{op.label}: {name}: {exc}", ["raised", name], {})
        else:
            latency = time.perf_counter() - start
            outcome = op.judge(raw)
            del raw
        # Free the op's cyclic garbage now, so that peak_rss_mb is the largest
        # live set of one op, not a matter of when the collector last ran.
        gc.collect()
        results.append((op.label, latency, outcome))
    return time.perf_counter() - t0, results


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it.

    A run of fewer than 21 ops has no such percentile above its median, so
    its tail is the slowest op (p100).  Either way the tail is never below
    the median.  Returns the latency, the percentile and the number of ops
    beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n - 11 >= n // 2 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def verdict_digest(results) -> str:
    doc = json.dumps([[label, out.canonical] for label, _, out in results],
                     sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def reach_problems(workload: str, tracer) -> list:
    """Layers each workload must reach, or must stay away from."""
    quotient = tracer.calls["weyl.quotient_distance"]
    problems = []
    if workload in ("reduction", "curvature") and quotient == 0:
        problems.append("weyl.quotient_distance was never called")
    if workload in ("geodesic", "algebraic") and quotient:
        problems.append(f"weyl.quotient_distance was called {quotient} times")
    if workload == "geodesic" and tracer.grid_points == 0:
        problems.append("no geodesic grid points")
    if workload == "algebraic":
        if tracer.calls["cli.load_model"] == 0:
            problems.append("cli.load_model was never called")
        reached = sum(n for name, n in tracer.calls.items() if name.startswith("transversal."))
        if reached:
            problems.append(f"{reached} calls into transversal")
    return problems


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    chunks = max(1, round(args.seconds / cls.nominal_chunk_s))
    workload = cls(args.seed, 1 if args.trace else chunks)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # Objects that live through the run are never collected again, which
    # keeps the per-op collections below at microseconds.
    gc.collect()
    gc.freeze()

    walls, results = [], []
    for ops in workload.chunks:
        wall, res = run_chunk(ops)
        walls.append(wall)
        results.extend(res)
    digest = verdict_digest(results)
    problems = []
    if args.trace:
        # Each op of chunk 0 runs again untraced, now warm, and then traced,
        # so that the two runs compared by trace_overhead are a moment apart
        # and the host's speed swings between passes do not enter the ratio.
        tracer = tracing.Tracer()
        plain, traced = [], []
        for op in workload.chunks[0]:
            plain += run_chunk([op])[1]
            uninstall = tracing.install(tracer)
            traced += run_chunk([op])[1]
            uninstall()
        if verdict_digest(plain) != digest or verdict_digest(traced) != digest:
            problems.append("repeated or traced verdicts differ from the first pass")
        problems += reach_problems(args.workload, tracer)
        results += plain + traced
        metrics = {}
        for name in tracing.SPAN_NAMES:
            metrics[f"{name}.calls"] = (tracer.calls[name], "count")
            metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
        metrics["transversal.grid_points"] = (tracer.grid_points, "count")
        for key in QUALITY:
            readings = [o.quality[key] for _, _, o in traced if key in o.quality]
            metrics[key] = (max(readings, default=0.0), "1")
        overhead = sum(lat for _, lat, _ in traced) / sum(lat for _, lat, _ in plain) - 1.0
        metrics["trace_overhead"] = (overhead, "ratio")
        notes = {}
    else:
        latencies = [lat for _, lat, _ in results]
        tail_value, tail_pct, beyond = tail(latencies)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail_value, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {"wall_s": f"median of {len(walls)} chunks of {len(workload.chunks[0])} ops",
                 "op_p50_ms": f"{len(latencies)} ops",
                 "op_tail_ms": f"p{tail_pct:.1f} of {len(latencies)} ops, {beyond} beyond"}
    failures = [o.reason for _, _, o in results if not o.ok]
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": len(results),
        "failed": len(failures),
        "failures": sorted(set(failures))[:20],
        "problems": problems,
        "chunks": len(walls),
        "inputs_digest": workload.inputs_digest(),
        "verdict_digest": digest,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "machine": machine(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
