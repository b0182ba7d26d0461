"""Smoke runs of the scripts under ``benchmarks/`` and of the benchmark in
``perfbench/``.

Each script runs in its own interpreter with ``PYTHONPATH`` at this
checkout's ``src``, so the monkeypatching ``bench_probe.py`` does to count
evaluations cannot leak into the other tests.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from mbcheck.containers import ALL_CLASSES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(tmp_path, name, *args):
    """Run ``benchmarks/<name>`` with ``args``; returns its last stdout line
    parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / name), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bench_probe_runs_and_counts_the_searched_pre_states(tmp_path):
    out = run_script(tmp_path, "bench_probe.py", "--repeats", "1")
    counts = out["evaluations_per_pass"]
    # the figures README gives for one pass
    assert counts["pre_states_checked"] == 10_204
    assert counts["pre_states_searched"] == 2_077
    assert counts["post"] == 7_702
    assert counts["solved"] == 1_344
    assert counts["invariant"] == 10_462
    assert counts["domain_invariant"] == 2_549
    # every task's median, and the sums per level, in reference seconds too
    assert set(out["median_ref_s"]) == set(out["median_cpu_s"])
    assert min(out["median_ref_s"].values()) > 0
    assert set(out["summed_median_ref_s_by_level"]) == {"strong", "weak"}
    assert min(out["summed_median_ref_s_by_level"].values()) > 0


def test_bench_sessions_runs(tmp_path):
    out = run_script(tmp_path, "bench_sessions.py", "--seeds", "1", "--calls", "300")
    assert out["seeds"] == 1 and out["calls"] == 300
    assert sorted(out["calls_per_cpu_s"]) == list(ALL_CLASSES)


@pytest.mark.parametrize("workload", ["sweep", "large_objects", "probe"])
def test_perfbench_workload_runs_correct_when_traced(tmp_path, workload):
    # a copy of perfbench/ beside a link to src/, so the run writes its
    # reports and spans under tmp_path; a traced run also checks the calls
    # the tracer wraps, and the workload checks its pinned outputs
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
