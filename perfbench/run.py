"""smoe performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark imports smoe from ./src only and
exits with code 2, printing no result, when that package is not there. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics untraced (--trace 0),
the per-layer metrics traced (--trace 1). See perfbench/README.md.
"""

import os

# pinned before numpy is imported: one BLAS thread, so runs do not depend on
# how many other processes share the machine's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ["train", "decode_single", "decode_dual", "paper_decode", "checkpoint", "dataset"]


def import_smoe() -> float:
    """Import numpy and smoe from ROOT/src; returns the seconds it took."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import smoe.data
    import smoe.model
    import smoe.signal
    import smoe.train  # noqa: F401

    if not Path(smoe.__file__).resolve().is_relative_to(src):
        raise ImportError(f"smoe was imported from {smoe.__file__}, not from {src}")
    return time.perf_counter() - t0


def environment(result, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "unit": result.workload.unit,
        "speed_probe": result.workload.probe.name,
        "workload_config": result.workload.describe(),
    }


def report(result, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines, and the result object printed as the last line."""
    from metrics import END_TO_END, PER_LAYER, UNITS

    factors = result.plain.cycle_factors
    lines = [
        f"info setup_import_s = {result.import_s!r} s",
        f"info setup_reps_s = {json.dumps(result.setup_s)}",
        f"info speed_factor_median = {statistics.median(factors)!r}",
        f"info speed_factor_range = {json.dumps([min(factors), max(factors)])}",
    ]
    for label, scaled in (("raw", False), ("scaled", True)):
        values, detail = result.end_to_end(scaled)
        values["setup_s"] = result.setup_seconds(scaled)
        lines += [f"{label} {name} = {v!r} {unit}" for name, (v, unit) in detail.items()]
        lines += [f"{label} {name} = {v!r} {UNITS[name]}" for name, v in values.items()]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines += [f"ops_attempted = {result.attempted}", f"ops_failed = {result.failed}"]
    if trace:
        values = result.layer_metrics()
        names = [name for name, *_ in PER_LAYER]
    else:
        names = [name for name, *_ in END_TO_END]
    lines += [f"metric {name} = {values[name]!r} {UNITS[name]}" for name in names]
    return lines, {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(values[name]), "unit": UNITS[name]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_s = import_smoe()
    except ImportError as exc:
        print(f"perfbench: cannot import smoe from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import workloads

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, import_s
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.print_errors(result)

    env = dict(environment(result, args.seed), workload=args.workload, trace=args.trace)
    print("\n".join(f"env {key} = {json.dumps(value)}" for key, value in env.items()))
    lines, out = report(result, bool(args.trace))
    if args.trace:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        result.tracer.write(trace_path, env)
        lines.insert(0, f"info trace_file = {trace_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
