"""tools/bench_pairs.py's summary, on canned benchmark output, and its
snapshot of a working tree. No benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
]}


def run_output(op_ms: float, items: float, raw_op_ms: float, failed: int = 0) -> str:
    """The tail of one benchmark run's standard output, as run.py prints it."""
    result = {"correct": failed == 0, "attempted": 20, "failed": failed, "metrics": {
        "op_ms_p50": {"value": op_ms, "unit": "ms"},
        "items_per_s": {"value": items, "unit": "1/s"}}}
    return "\n".join([
        'env python = "3.11.7"',
        "env nproc = 2",
        'env workload_config = {"op": "save_checkpoint + load_checkpoint"}',
        "info setup_import_s = 0.108 s",
        "info speed_factor_range = [1.15, 1.46]",
        f"raw op_ms_p50 = {raw_op_ms!r} ms",
        "raw setup_s = 0.36 s",
        f"scaled op_ms_p50 = {op_ms!r} ms",
        f"metric op_ms_p50 = {op_ms!r} ms",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_result_raw_figures_and_host_facts():
    run = bench_pairs.parse_run(run_output(50.0, 4000.0, 40.0, failed=1))
    assert run["metrics"] == {"op_ms_p50": 50.0, "items_per_s": 4000.0}
    assert run["raw"] == {"op_ms_p50": 40.0, "setup_s": 0.36}
    assert run["host"] == {"python": "3.11.7", "nproc": 2, "setup_import_s": 0.108,
                           "speed_factor_range": [1.15, 1.46]}
    assert (run["attempted"], run["failed"]) == (20, 1)


def test_summary_of_ten_pairs_shows_a_gain_inside_every_bound():
    parent = [60.0, 62.0, 58.0, 61.0, 59.0, 60.5, 59.5, 61.5, 58.5, 60.0]
    change = [47.0, 48.0, 46.0, 47.5, 46.5, 61.0, 47.0, 48.5, 46.0, 47.0]
    pairs = [(bench_pairs.parse_run(run_output(p, 1e5 / p, p - 10)),
              bench_pairs.parse_run(run_output(c, 1e5 / c, c - 10)))
             for p, c in zip(parent, change)]
    out = bench_pairs.summarize(SPEC, pairs)
    assert out["pairs"] == 10
    assert out["ops"] == {"parent": {"attempted": 200, "failed": 0},
                          "change": {"attempted": 200, "failed": 0}}
    op = out["metrics"]["op_ms_p50"]
    assert op["parent"] == {"median": 60.0, "q1": 59.125, "q3": 60.875}
    assert op["change"]["median"] == 47.0
    assert op["pairs_won"] == 9 and op["gain_shown"] and op["within_bound"]
    assert op["ratios"][5] == pytest.approx(61.0 / 60.5)
    assert op["worse_by"] == pytest.approx(47.0 / 60.0 - 1.0)
    assert op["raw"]["parent"]["median"] == 50.0 and op["raw"]["change"]["median"] == 37.0
    assert op["raw"]["pairs_won"] == 9 and op["raw"]["gain_shown"]
    items = out["metrics"]["items_per_s"]
    assert items["pairs_won"] == 9 and items["gain_shown"] and items["within_bound"]
    assert items["worse_by"] == pytest.approx(1.0 - 60.0 / 47.0, rel=1e-3)
    assert "raw" not in items  # the run prints no raw items_per_s line here


@pytest.mark.parametrize("parent, change, gain, inside", [
    ([50.0] * 3, [49.0] * 3, False, True),  # wins every pair, but three pairs are no claim
    ([50.0] * 10, [50.0] * 10, False, True),  # ties count for neither side
    ([50.0] * 10, [63.0] * 10, False, False),  # 26% slower: outside the 24% bound
    ([45.0, 55.0] * 5, [44.0, 54.0] * 5, False, True),  # wins all by less than the spread
    ([40.0, 60.0] * 5, [30.0, 45.0] * 5, False, "unresolved"),  # spread 40% > 24% bound
    ([40.0, 60.0] * 5, [30.0, 35.0] * 5, False, True),  # ... but every change run is faster
])
def test_summary_claims_no_gain_it_cannot_show(parent, change, gain, inside):
    pairs = [(bench_pairs.parse_run(run_output(p, 1.0, p)),
              bench_pairs.parse_run(run_output(c, 1.0, c))) for p, c in zip(parent, change)]
    op = bench_pairs.summarize(SPEC, pairs)["metrics"]["op_ms_p50"]
    assert (op["gain_shown"], op["within_bound"]) == (gain, inside)


def test_raw_figures_are_judged_apart_from_the_scaled_ones():
    # a one-thread speed probe can scale a two-thread operation wrongly, so
    # the raw figures get their own pairs won and gain: here the scaled
    # medians tie while every raw pair is won by 10 ms, 5x the parent spread
    parent = [(60.0 + i % 3, 50.0 + i % 3) for i in range(10)]
    change = [(60.0 + i % 3, 40.0 + i % 3) for i in range(10)]
    pairs = [(bench_pairs.parse_run(run_output(p, 1.0, p_raw)),
              bench_pairs.parse_run(run_output(c, 1.0, c_raw)))
             for (p, p_raw), (c, c_raw) in zip(parent, change)]
    op = bench_pairs.summarize(SPEC, pairs)["metrics"]["op_ms_p50"]
    assert (op["pairs_won"], op["gain_shown"]) == (0, False)
    assert (op["raw"]["pairs_won"], op["raw"]["gain_shown"]) == (10, True)
    assert op["raw"]["change"]["median"] == 41.0


def test_snapshot_copies_the_files_git_lists_of_the_working_tree(tmp_path):
    repo, into = tmp_path / "repo", tmp_path / "snapshot"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    for name in ("pkg/kept.py", "pkg/edited.py", "pkg/deleted.py"):
        (repo / name).write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "edited.py").write_text("edited\n")
    (repo / "pkg" / "deleted.py").unlink()
    (repo / "pkg" / "untracked.py").write_text("untracked\n")
    (repo / "pkg" / "__pycache__").mkdir()
    (repo / "pkg" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"ignored")
    bench_pairs.snapshot(repo, into)
    copied = {p.relative_to(into).as_posix(): p.read_text()
              for p in into.rglob("*") if p.is_file()}
    assert copied == {".gitignore": "__pycache__/\n", "pkg/kept.py": "committed\n",
                      "pkg/edited.py": "edited\n", "pkg/untracked.py": "untracked\n"}


def test_parse_probe_reads_the_loop_seconds_and_rejects_other_output():
    assert bench_pairs.parse_probe("probe_s = 0.316\n") == 0.316
    assert bench_pairs.parse_probe("a warning\nprobe_s = 0.5\n") == 0.5
    for text in ("", "0.316\n", "probe_s = 0.3\nleft over\n"):
        with pytest.raises(ValueError, match="not a core probe's output"):
            bench_pairs.parse_probe(text)


def test_probe_times_runs_the_probes_it_is_asked_for(monkeypatch):
    monkeypatch.setattr(bench_pairs, "CORE_PROBE", "print('probe_s = 0.25')")
    assert bench_pairs.probe_times(2) == [0.25, 0.25]
    monkeypatch.setattr(bench_pairs, "CORE_PROBE", "raise SystemExit(3)")
    with pytest.raises(RuntimeError, match=r"exited \[3\]"):
        bench_pairs.probe_times(1)


@pytest.mark.parametrize("ratios, shared", [
    ([1.02, 0.98, 1.21] + [1.0] * 7, False),  # a second core before every pair
    ([1.0] * 9 + [2.03], True),  # one pair ran with the two probes on one core
    ([1.0] * 9 + [1.5], False),  # the flag is for a ratio above 1.5
])
def test_summary_keeps_the_core_probe_ratios_and_flags_a_shared_core(ratios, shared):
    pairs = []
    for ratio in ratios:
        pair = (bench_pairs.parse_run(run_output(50.0, 1.0, 50.0)),
                bench_pairs.parse_run(run_output(49.0, 1.0, 49.0)))
        for run in pair:
            run["host"]["two_over_one"] = ratio
        pairs.append(pair)
    out = bench_pairs.summarize(SPEC, pairs)
    assert (out["two_over_one"], out["shared_core"]) == (ratios, shared)
    unprobed = bench_pairs.summarize(SPEC, [(bench_pairs.parse_run(run_output(50.0, 1.0, 50.0)),
                                             bench_pairs.parse_run(run_output(49.0, 1.0, 49.0)))])
    assert (unprobed["two_over_one"], unprobed["shared_core"]) == ([], False)
