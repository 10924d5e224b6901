"""Paired perfbench runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --label NAME [--workload WORKLOAD ...]
        [--seed S]

Run from anywhere inside the repository. The parent revision is extracted
with `git archive` into a temporary directory, and the working tree is
copied into another beside it: the files `git ls-files --cached --others
--exclude-standard` lists, tracked files deleted from the tree left out.
So both sides run from fresh trees of the same shape, with no build or
cache files of earlier runs. For each workload the tool then runs the
benchmark command that BENCHMARK.json declares, for its `run_seconds`,
alternately in the two trees: 10 pairs, the parent first on odd pairs.
Every run uses the same seed. With --parent HEAD and a clean working tree
the file is an A/A baseline: the spread the benchmark shows between two
copies of one revision.

It writes BENCH_<label>.json at the repository root. For each workload and
end-to-end metric it holds the parent's and the change's median and
quartiles, the pairs the change won and whether it shows a gain, for the
scaled figures of each run's final JSON line and, where the run prints
them, for the raw ones; the change/parent ratio of every pair; and the
BENCHMARK.json bound and whether the change's scaled median stays inside
it, which is "unresolved" when the parent's own quartile spread is wider
than the bound and some run of the change reads no better than some run of
the parent. Each run's record keeps the host facts it printed.

Before each pair the tool asks whether the host gives it a second core: it
times a short one-thread matmul loop in one process alone, then in two
processes at once (two, never more). The slower of the two over the one
alone is stored as `two_over_one` in both runs' host facts: near 1 when the
two ran on two cores, near 2 when they shared one. A workload is flagged
`shared_core` when some pair saw a ratio above SHARED_CORE_RATIO, since
the figures of an operation that runs a helper thread (a checkpoint load, a
dataset pass, a paper-preset decode) then depend on what else the host ran.
The temporary trees are deleted on exit, and no run outlives the tool.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
HOST_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc", "speed_probe")
INFO_KEYS = ("setup_import_s", "speed_factor_median", "speed_factor_range")
SIDES = ("parent", "change")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one probe process: 300 products of a 300 x 300 matrix, ~0.3 s on one core
# of a 2-core Intel Xeon host
CORE_PROBE = """import time
import numpy as np
a = np.random.default_rng(0).random((300, 300))
a @ a
start = time.perf_counter()
for _ in range(300):
    a @ a
print(f"probe_s = {time.perf_counter() - start!r}")
"""
SHARED_CORE_RATIO = 1.5


def parse_run(text: str) -> dict:
    """One benchmark run's standard output as its final JSON result, its raw
    figures (`raw NAME = VALUE UNIT` lines) and its host facts: the `env`
    lines of HOST_KEYS, and the import time and speed-probe factors."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    raw, host = {}, {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        name, eq, value = rest.partition(" = ")
        if not eq:
            continue
        if kind == "raw":
            raw[name] = float(value.split()[0])
        elif kind == "env" and name in HOST_KEYS:
            host[name] = json.loads(value)
        elif kind == "info" and name in INFO_KEYS:
            host[name] = json.loads(value.removesuffix(" s"))
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw": raw,
        "host": host,
    }


def parse_probe(text: str) -> float:
    """The loop seconds a core probe process printed as its last line."""
    name, eq, value = text.strip().rpartition("\n")[2].partition(" = ")
    if name != "probe_s" or not eq:
        raise ValueError(f"not a core probe's output: {text!r}")
    return float(value)


def probe_times(count: int) -> list[float]:
    """The loop seconds of `count` core probe processes started together,
    each with one BLAS thread. A failed probe raises, and no probe outlives
    the call."""
    env = {**os.environ, **dict.fromkeys(BLAS_THREADS, "1")}
    procs = []
    try:
        for _ in range(count):
            procs.append(subprocess.Popen([sys.executable, "-c", CORE_PROBE], env=env,
                                          stdout=subprocess.PIPE, text=True))
        outs = [proc.communicate()[0] for proc in procs]
        if any(proc.returncode for proc in procs):
            raise RuntimeError(f"a core probe exited {[proc.returncode for proc in procs]}")
        return [parse_probe(out) for out in outs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def core_ratio() -> float:
    """The slower of two probes run at once over one probe run alone."""
    alone = probe_times(1)[0]
    return max(probe_times(2)) / alone


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], lower: bool) -> dict:
    """One figure over pairs of runs: each side's median and quartiles, the
    pairs the change won, and whether it shows a gain: it wins at least nine
    tenths of at least ten pairs, and its median is better by more than the
    parent runs' interquartile distance."""
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    base, new = spread(parent), spread(change)
    better_by = (base["median"] - new["median"]) * (1.0 if lower else -1.0)
    return {"parent": base, "change": new, "pairs_won": won,
            "gain_shown": (len(parent) >= PAIRS and 10 * won >= 9 * len(parent)
                           and better_by > base["q3"] - base["q1"])}


def summarize_metric(metric: dict, pairs: list[tuple[dict, dict]]) -> dict:
    """One end-to-end metric over (parent run, change run) pairs: `compare`
    of its scaled figures, per-pair ratios and the bound check, and
    `compare` of its raw figures where every run printed them, since a
    one-thread speed probe can misstate an operation that uses two threads.
    `worse_by` is how far the change's median is worse than the parent's, as
    a share of the parent's; negative is better. `within_bound` is
    "unresolved" when the parent's interquartile distance, as a share of its
    median, is wider than the bound, unless every run of the change reads
    better than every run of the parent."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["metrics"][name] for p, _ in pairs]
    change = [c["metrics"][name] for _, c in pairs]
    scaled = compare(parent, change, lower)
    base = scaled["parent"]
    worse_by = (scaled["change"]["median"] / base["median"] - 1.0) * (1.0 if lower else -1.0)
    apart = max(change) < min(parent) if lower else min(change) > max(parent)
    noisy = base["q3"] - base["q1"] > metric["bound"] * base["median"] and not apart
    out = {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": base,
        "change": scaled["change"],
        "ratios": [c / p for p, c in zip(parent, change)],
        "pairs_won": scaled["pairs_won"],
        "worse_by": worse_by,
        "within_bound": "unresolved" if noisy else worse_by <= metric["bound"],
        "gain_shown": scaled["gain_shown"],
    }
    if all(name in run["raw"] for pair in pairs for run in pair):
        out["raw"] = compare([p["raw"][name] for p, _ in pairs],
                             [c["raw"][name] for _, c in pairs], lower)
    return out


def summarize(spec: dict, pairs: list[tuple[dict, dict]]) -> dict:
    """One workload's pairs: the operation counts of each side, the core
    probe's ratio before each pair whose runs carry it and whether any is
    above SHARED_CORE_RATIO, and summarize_metric of every end-to-end metric
    in BENCHMARK.json's `spec`."""
    ratios = [p["host"]["two_over_one"] for p, _ in pairs if "two_over_one" in p["host"]]
    return {
        "pairs": len(pairs),
        "ops": {side: {key: sum(pair[i][key] for pair in pairs) for key in ("attempted", "failed")}
                for i, side in enumerate(SIDES)},
        "two_over_one": ratios,
        "shared_core": any(r > SHARED_CORE_RATIO for r in ratios),
        "metrics": {m["name"]: summarize_metric(m, pairs) for m in spec["end_to_end"]},
    }


def extract(rev: str, into: Path) -> str:
    """Write the tree of `rev` into `into` by git archive; returns its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def snapshot(root: Path, into: Path) -> None:
    """Copy into `into` the files of the working tree at `root` that git
    lists, tracked or untracked but not ignored, except tracked files
    deleted from the tree."""
    def listed(*flags: str) -> list[str]:
        out = subprocess.run(["git", "ls-files", "-z", *flags], cwd=root, check=True,
                             capture_output=True).stdout
        return [name for name in os.fsdecode(out).split("\0") if name]

    deleted = set(listed("--deleted"))
    for name in listed("--cached", "--others", "--exclude-standard"):
        if name not in deleted:
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name, follow_symlinks=False)


def run_once(command: list[str], tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`, parsed; a failed run raises."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--workload", action="append", help="a workload to run (default: all)")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = [n for n in names if n in (args.workload or names)]
    unknown = sorted(set(args.workload or []) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    out = {"label": args.label, "change": f"snapshot of the working tree on {head}",
           "seed": args.seed, "seconds": spec["run_seconds"], "command": spec["command"],
           "method": "alternating pairs, the parent first on odd pairs; medians and "
                     "inclusive quartiles over each side's runs", "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        out["parent"] = extract(args.parent, trees["parent"])
        snapshot(ROOT, trees["change"])
        for workload in chosen:
            pairs, runs = [], []
            for i in range(1, PAIRS + 1):
                order = SIDES if i % 2 else SIDES[::-1]
                got, ratio = {}, core_ratio()
                for position, side in enumerate(order, start=1):
                    got[side] = run_once(spec["command"], trees[side], workload, args.seed,
                                         spec["run_seconds"])
                    got[side]["host"]["two_over_one"] = ratio
                    runs.append({"pair": i, "side": side, "position": position, **got[side]})
                    print(f"{workload} pair {i}/{PAIRS} {side}: "
                          f"{json.dumps(got[side]['metrics'])}", file=sys.stderr)
                pairs.append((got["parent"], got["change"]))
            out["workloads"][workload] = {**summarize(spec, pairs), "runs": runs}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
