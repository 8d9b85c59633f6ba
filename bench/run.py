"""Benchmark of the translink command line, run from the root of a checkout:

    python3 bench/run.py --workload analytic-sweep --seed 1 --seconds 30 --trace 0

One client runs the workload's commands one after another, each in a fresh
interpreter that imports the checkout's src/ (a closed loop, no server). It
repeats such passes for --seconds, checks every command's output, and prints
as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones below, their
times scaled to a nominal machine speed (see speed.py). With --trace 1 it
also runs one traced pass in process (see tracing.py) and the metrics are
the per-layer ones. --smoke runs one pass at reduced size.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_tmp"
# What the `translink` console script runs.
CLI_SHIM = "import sys; from translink.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import translink; "
    "t = time.perf_counter() - t; print(repr(t)); print(translink.__file__)"
)
SETUP_PER_PASS = 3  # import timings taken before each pass
COMMAND_TIMEOUT_S = 120.0

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "focus_s": ("s", "lower"),
}


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class PassResult:
    wall_s: float = 0.0  # sum of the commands' wall times
    cpu_s: float = 0.0  # user + sys of the commands' processes
    peak_rss_mb: float = 0.0  # largest max-RSS of any command
    focus_s: float = 0.0  # wall time of the workload's focus commands
    # sum over commands of wall time x the speed kernel's mean time beside it
    kernel_weighted: float = 0.0
    attempted: int = 0
    problems: list = field(default_factory=list)  # (label, [problem, ...])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list, stdout: Path, stderr: Path, env: dict):
    """Run `python args` to completion; returns (exit code, wall s, rusage)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def warm_up(work: Path, env: dict):
    """Import translink once, untimed, which compiles the checkout's bytecode
    (users pay that once, not on every run)."""
    err = work / "probe.err"
    code, _, _ = spawn(["-c", "import translink.cli"], work / "probe.out", err, env)
    if code != 0:
        raise SetupError("cannot import translink from src/: "
                         + err.read_text(errors="replace").strip()[-500:])


def import_seconds(work: Path, env: dict) -> float:
    """Time of `import translink` in a fresh interpreter."""
    out, err = work / "probe.out", work / "probe.err"
    code, _, _ = spawn(["-c", IMPORT_PROBE], out, err, env)
    if code != 0:
        raise SetupError("import probe failed: " + err.read_text(errors="replace"))
    seconds, path = out.read_text().split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise SetupError(f"translink imported from {path}, not from {SRC}")
    return float(seconds)


def untraced_pass(workload, pass_dir: Path, env: dict) -> PassResult:
    """One pass in fresh interpreters. Each command runs on the first
    `cmd.threads` CPUs only, and the workload's speed kernel is timed on the
    first CPU while it runs (see speed.py)."""
    result = PassResult()
    dirs = {}
    cpus = speed.cpus()
    for cmd in workload.commands:
        out_dir = dirs[cmd.label] = pass_dir / cmd.label
        out_dir.mkdir(parents=True)
        stdout, stderr = pass_dir / f"{cmd.label}.out", pass_dir / f"{cmd.label}.err"
        cpu_set = set(cpus[:cmd.threads])
        with (speed.pinned(cpu_set),
              speed.Sampler(cpus[0], workload.kernel) as sampler):
            code, wall, usage = spawn(
                ["-c", CLI_SHIM, *cmd.argv, "--out", str(out_dir)], stdout, stderr, env
            )
        result.kernel_weighted += wall * sampler.mean_seconds()
        result.wall_s += wall
        result.focus_s += wall if cmd.focus else 0.0
        result.cpu_s += usage.ru_utime + usage.ru_stime
        result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024)  # KiB
        outcome = checks.Outcome(code, stdout.read_text(errors="replace"),
                                 stderr.read_text(errors="replace"), out_dir)
        _record(result, cmd, checks.check(cmd, outcome, dirs))
    shutil.rmtree(pass_dir)
    return result


def in_process_pass(workload, pass_dir: Path, recorder: tracing.Recorder) -> PassResult:
    """One pass in this process through translink.cli.main.

    Each command runs in a top-level `cli.<subcommand>` span; the layer spans
    below it are recorded only while the recorder is installed.
    """
    from translink import cli

    result = PassResult()
    dirs = {}
    for cmd in workload.commands:
        out_dir = dirs[cmd.label] = pass_dir / cmd.label
        out_dir.mkdir(parents=True)
        recorder.command = cmd.label
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = recorder.span(f"cli.{cmd.argv[0]}", cli.main,
                                     [*cmd.argv, "--out", str(out_dir)])
        except Exception:  # an escaped exception fails the command
            code = 1
            err.write(traceback.format_exc())
        result.wall_s += time.perf_counter() - start
        outcome = checks.Outcome(code, out.getvalue(), err.getvalue(), out_dir)
        _record(result, cmd, checks.check(cmd, outcome, dirs))
    shutil.rmtree(pass_dir)
    return result


def _record(result: PassResult, cmd, problems: list):
    result.attempted += 1
    if problems:
        result.problems.append((cmd.label, problems))


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": os.getloadavg(),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat passes (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at reduced size, for the benchmark's tests")
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "translink" / "__init__.py").is_file():
        raise SetupError(f"no translink package under {SRC}")
    print("env " + json.dumps(environment(args)), flush=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = 0.0 if args.smoke else args.seconds
    env = child_env()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        configs = workloads.write_configs(work, sizes)
        workload = workloads.build(args.workload, configs, args.seed, sizes)
        warm_up(work, env)
        if args.trace:
            sys.path.insert(0, str(SRC))
            # untraced passes on both sides of the traced one, so that the
            # first pass's warm-up and slow drift do not count as overhead
            passes = [in_process_pass(workload, work / "plain0", tracing.Recorder())]
            recorder = tracing.Recorder()
            recorder.install()
            try:
                passes.append(in_process_pass(workload, work / "traced", recorder))
            finally:
                recorder.uninstall()
            passes.append(in_process_pass(workload, work / "plain1", tracing.Recorder()))
            overhead_s = passes[1].wall_s - (passes[0].wall_s + passes[2].wall_s) / 2
            metrics = tracing.layer_metrics(
                recorder, tracing.tradeoff_peak_mb(recorder), overhead_s
            )
            units = tracing.PER_LAYER
        else:
            passes, setup, unscaled_setup = [], [], []
            cpu = speed.cpus()[0]
            start = time.perf_counter()
            while True:  # stop before a pass that would likely end past `seconds`
                # Import timings are spread over the run: the machine's speed
                # can switch state for seconds at a time, and a burst of
                # back-to-back timings would all land in one state.
                # Each import is scaled alone, by the kernel timings beside it.
                for _ in range(SETUP_PER_PASS):
                    with speed.pinned({cpu}), speed.Sampler(cpu, "mixed") as sampler:
                        unscaled_setup.append(import_seconds(work, env))
                    setup.append(unscaled_setup[-1] * speed.nominal_seconds("mixed")
                                 / sampler.mean_seconds())
                passes.append(untraced_pass(workload, work / f"pass{len(passes)}", env))
                elapsed = time.perf_counter() - start
                if elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
            unscaled = {
                "wall_s": statistics.median(p.wall_s for p in passes),
                "cpu_s": statistics.median(p.cpu_s for p in passes),
                "setup_s": statistics.median(unscaled_setup),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
                "focus_s": statistics.median(p.focus_s for p in passes),
            }
            # Command times are scaled to the nominal machine speed by one
            # factor for the run: the kernel's mean time, weighted by the
            # wall time of the command it was timed beside.
            factor = (speed.nominal_seconds(workload.kernel)
                      * sum(p.wall_s for p in passes)
                      / sum(p.kernel_weighted for p in passes))
            metrics = {name: value * factor if END_TO_END[name][0] == "s" else value
                       for name, value in unscaled.items()}
            metrics["setup_s"] = statistics.median(setup)
            print(f"speed factor {factor:.4f}; unscaled: "
                  + ", ".join(f"{name} {value:.6g}" for name, value in unscaled.items()))
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.problems) for p in passes)
    for p in passes:
        for label, problems in p.problems:
            print(f"FAIL {label}: {'; '.join(problems)}")
    print("pass wall_s " + " ".join(f"{p.wall_s:.4f}" for p in passes))
    print(f"passes {len(passes)}, commands {attempted}, "
          f"fail_rate {failed / attempted:.4g} (ratio)")
    if not args.trace:
        focus = metrics["focus_s"]
        if workload.focus_work:
            print(f"{workload.focus_name} {workload.focus_work / focus:.6g} (1/s)")
        else:
            print(f"{workload.focus_name} {focus:.6g} (s)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} ({units[name][0]})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
