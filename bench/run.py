"""Benchmark entry point for thermalqfi.

    python3 bench/run.py --workload figures|large_spin|verify --seed N --seconds S --trace 0|1

Run from the repository root. One process runs one workload: it sets up
(import, inputs, one warm-up pass) SETUP_REPEATS times, then runs whole
passes for ``--seconds``, each unit bracketed by a reference kernel, and
checks every op's output. It prints the figures by name with units and
sample counts, writes a run record under bench/out/, and prints one JSON
object as its last line. With ``--trace 1`` the first third of the time
is measured untraced and the rest traced, and the per-layer metrics are
reported instead of the end-to-end ones.

Exit status: 0 when every op passed its check, 1 when any failed, 2 when
the package or the arguments are unusable (no result is printed then).
"""

import os

# One BLAS/OpenMP thread, set for this process before numpy is imported.
THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from reference import timed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
UNTRACED_SHARE = 1.0 / 3.0


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": os.cpu_count(),
        "blas_threads_set": THREADS,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def show(name: str, value: float, unit: str, note: str) -> None:
    print(f"{name} = {value:.6g} {unit}  ({note})")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "thread_vars"))
    print(f"workload {workload.name}, seed {args.seed}: {workload.seed_note}")

    kernel = workload.kernel()
    for _ in range(5):
        timed(kernel)  # first calls allocate LAPACK workspaces
    try:
        units, setups = harness.set_up(workload, args.seed, kernel)
    except ImportError as exc:
        print(f"cannot import thermalqfi from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    tracer = None
    if args.trace:
        untraced = harness.measure(units, kernel, args.seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            remaining = args.seconds - (time.perf_counter() - start)
            passes = harness.measure(units, kernel, remaining, tracer)
        finally:
            tracer.uninstall()
        all_passes = untraced + passes
    else:
        passes = harness.measure(units, kernel, args.seconds)
        all_passes = passes
    elapsed = time.perf_counter() - start

    attempted, failed = harness.counts(all_passes)
    refs = harness.pass_refs(passes)
    ref_raw = [s.ref_before for p in all_passes for s in p]
    walls = [sum(s.wall for s in p) for p in passes]
    print(
        f"reference {kernel.name} kernel: raw median {1e3 * statistics.median(ref_raw):.4f} ms "
        f"(n={len(ref_raw)} calls); raw pass wall median {statistics.median(walls):.4f} s "
        f"(n={len(walls)} passes, {elapsed:.1f} s measured)"
    )
    show("fail_ratio", failed / attempted, "1", f"{failed} of {attempted} ops failed")

    if args.trace:
        ops, _ = harness.counts(passes)
        overhead = statistics.median(refs) / statistics.median(harness.pass_refs(untraced))
        metrics = tracing.per_layer_metrics(tracer.totals, ops, overhead)
        extra = tracing.workload_layer_metrics(tracer.totals, ops, workload.name)
        for name, (value, unit) in {**metrics, **extra}.items():
            show(name, value, unit, f"{ops} ops in {tracer.passes} traced passes")
    else:
        metrics = harness.end_to_end(passes, setups, kernel)
        notes = {
            "ops_per_kref": f"{attempted} ops over {sum(refs):.0f} ref",
            "pass_ref_p50": f"n={len(refs)} passes",
            "setup_s": f"median of n={len(setups)} set-ups at nominal reference speed; "
            f"raw median {statistics.median(s.wall for s in setups):.4f} s",
            "peak_rss_mb": "n=1, whole process",
        }
        for name, (value, unit) in metrics.items():
            show(name, value, unit, notes[name])
        tail = harness.tail_percentile(refs)
        if tail is None:
            print(f"pass_ref_tail omitted: {len(refs)} passes leave fewer than "
                  f"{harness.MIN_BEYOND} beyond p{harness.TAIL_PERMILLE[-1] / 10:g}")
        else:
            show("pass_ref_tail", tail[1], "ref", f"p{tail[0]:g}, n={len(refs)} passes")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_note": workload.seed_note,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "reference": {"kernel": kernel.name, "raw_median_s": statistics.median(ref_raw), "calls": len(ref_raw)},
        "setups": [dataclasses.asdict(s) for s in setups],
        "samples": [[dataclasses.asdict(s) for s in p] for p in all_passes],
        "metrics": metrics,
    }
    if tracer is not None:
        record["spans_first_traced_pass"] = [
            [s.sid, s.parent, s.name, s.start, s.end, s.unit] for s in tracer.first_pass or []
        ]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
