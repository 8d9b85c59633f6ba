"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, (unit, _) in tracing.PER_LAYER.items() if unit == "count"]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    for entry in doc["end_to_end"] + doc["per_layer"]:
        table = run.END_TO_END if "bound" in entry else tracing.PER_LAYER
        assert (entry["unit"], entry["better"]) == table[entry["name"]]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke(workload, trace):
    result = _result("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    table = tracing.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == list(table)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name][0]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sampler_times_the_kernel_beside_a_command():
    before = os.sched_getaffinity(0)
    cpu = speed.cpus()[0]
    for kernel in speed.KERNELS:
        with speed.pinned({cpu}), speed.Sampler(cpu, kernel) as sampler:
            subprocess.run([sys.executable, "-c", "import time; time.sleep(0.3)"],
                           check=True)
        assert len(sampler.times) >= 3
        assert sampler.mean_seconds() > 0 and speed.nominal_seconds(kernel) > 0
    assert os.sched_getaffinity(0) == before


def test_traced_counts_repeat():
    runs = [
        _result("--workload", "module-plan", "--seed", str(seed), "--seconds", "0",
                "--trace", "1", "--smoke")["metrics"]
        for seed in (1, 2)
    ]
    assert runs[0]["delivery.optimal_delivery_time.calls"]["value"] > 0
    assert {n: runs[0][n] for n in COUNTS} == {n: runs[1][n] for n in COUNTS}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mc-verify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _outcome(argv, out_dir):
    """Run translink in process, as the traced run does."""
    from translink import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, "--out", str(out_dir)])
    return checks.Outcome(code, out.getvalue(), err.getvalue(), out_dir)


@pytest.fixture
def configs(tmp_path):
    return workloads.write_configs(tmp_path, workloads.SMOKE)


@pytest.fixture
def analyzed(tmp_path, configs):
    """A real analyze command's outcome, and the command that made it."""
    cmd = workloads.Command("a", ("analyze", "--config", configs["ex1"], "--k-max", "50"),
                            expect={"k_max": 50})
    return cmd, _outcome(cmd.argv, tmp_path / "out")


def test_checker_passes_good_output(analyzed):
    cmd, out = analyzed
    assert checks.check(cmd, out, {}) == []


def test_checker_flags_exit_code_and_stderr(analyzed):
    cmd, out = analyzed
    out.returncode = 2
    assert checks.check(cmd, out, {})
    out.returncode, out.stderr = 0, "warning: something\n"
    assert checks.check(cmd, out, {})


@pytest.mark.parametrize("corrupt", ["drop_row", "bad_total", "stdout"])
def test_checker_flags_corrupted_artifacts(analyzed, corrupt):
    cmd, out = analyzed
    if corrupt == "stdout":
        out.stdout = out.stdout.replace("0.", "0.1", 1)
    else:
        name = "delivery_curve.csv" if corrupt == "drop_row" else "infidelity_breakdown.csv"
        path = out.out_dir / name
        lines = path.read_text().splitlines()
        if corrupt == "drop_row":
            del lines[-1]
        else:
            lines[5] = lines[5].rsplit(",", 1)[0] + ",0.75"
        path.write_text("\n".join(lines) + "\n")
    assert checks.check(cmd, out, {})


def test_checker_flags_a_dominated_tradeoff_point(tmp_path, configs):
    cmd = workloads.Command("b", ("tradeoff", "--config", configs["lattice_small"]),
                            expect={"budget": workloads.SMOKE.budget_small})
    out = _outcome(cmd.argv, tmp_path / "out")
    assert checks.check(cmd, out, {}) == []
    path = out.out_dir / "tradeoff.csv"
    first = path.read_text().splitlines()[2].split(",")
    first[2] = str(float(first[2]) / 2)  # same links and rate, lower fidelity
    with open(path, "a") as handle:
        handle.write(",".join(first) + "\n")
    out.stdout = path.read_text()
    assert checks.check(cmd, out, {})


def test_checker_compares_jobs_twins(tmp_path, configs):
    def simulate(label, seed, jobs):
        argv = ("simulate", "--config", configs["ex3"], "--trials", "3000",
                "--seed", seed, "--jobs", jobs)
        return _outcome(argv, tmp_path / label)

    dirs = {"j1": simulate("j1", "5", "1").out_dir}
    cmd = workloads.Command("j2", ("simulate",), expect={"trials": 3000, "same_as": "j1"})
    assert checks.check(cmd, simulate("j2", "5", "2"), dirs) == []
    assert checks.check(cmd, simulate("other", "6", "2"), dirs)


def test_failures_raise_the_pass_fail_count(tmp_path, configs):
    ex1 = configs["ex1"]
    commands = (
        workloads.Command("ok", ("analyze", "--config", ex1, "--k-max", "20"),
                          expect={"k_max": 20}),
        workloads.Command("exit1", ("analyze", "--config", ex1, "--k-max", "x"),
                          expect={"k_max": 20}),
        workloads.Command("rows", ("analyze", "--config", ex1, "--k-max", "10"),
                          expect={"k_max": 20}),
    )
    result = run.untraced_pass(workloads.Workload("t", commands, "x"),
                               tmp_path / "pass", run.child_env())
    assert result.attempted == 3
    assert [label for label, _ in result.problems] == ["exit1", "rows"]
