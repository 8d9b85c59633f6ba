"""Output checks. A command fails if it exits non-zero, writes to stderr, or
breaks an invariant of its artifacts.

The checks test invariants, not frozen digests, so a change that moves the
numbers for a good reason still passes while a broken engine does not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# MC mean vs analytic f_del: a correct engine lands outside 5 standard
# errors with probability about 6e-7 per command.
Z_BAND = 5.0
PRIMARY = {
    "analyze": "metrics.json",
    "simulate": "mcstats.json",
    "plan": "plan.json",
    "tradeoff": "tradeoff.csv",
    "distill": "distill.json",
}


@dataclass
class Outcome:
    """What one finished command left behind."""

    returncode: int
    stdout: str
    stderr: str
    out_dir: Path


def _csv(path: Path) -> np.ndarray:
    """Numeric body of a translink CSV artifact (manifest and header skipped)."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def _rounding(values: np.ndarray) -> np.ndarray:
    """Half a unit in the 9th significant digit: the artifacts' print precision."""
    mag = np.abs(values)
    exp = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    return np.where(mag > 0, 0.5 * 10.0 ** (exp - 8), 0.0)


def _check_analyze(cmd, out: Outcome, _dirs) -> list:
    problems = []
    curve = _csv(out.out_dir / "delivery_curve.csv")
    breakdown = _csv(out.out_dir / "infidelity_breakdown.csv")
    k_max = cmd.expect["k_max"]
    for name, rows in (("delivery_curve", curve), ("infidelity_breakdown", breakdown)):
        if rows.shape[0] != k_max:
            problems.append(f"{name}.csv has {rows.shape[0]} rows, expected {k_max}")
    p_success, f_del = curve[:, 1], curve[:, 2]
    if np.any(np.diff(p_success) < 0):
        problems.append("p_success decreases along the grid")
    if np.any((f_del < 0.5) | (f_del > 1.0)):
        problems.append("f_del outside [0.5, 1]")
    parts, total = breakdown[:, 1:5], breakdown[:, 5]
    # each printed value carries up to half a 9th-digit unit of rounding
    slack = _rounding(parts).sum(axis=1) + _rounding(total) + 1e-15
    if np.any(np.abs(parts.sum(axis=1) - total) > slack):
        problems.append("breakdown components do not sum to total")
    return problems


def _strip_run_fields(text: str) -> str:
    """mcstats.json without the manifest's command line and timestamp."""
    return "\n".join(
        line for line in text.splitlines()
        if not line.startswith(('    "command":', '    "created_utc":'))
    )


def _check_simulate(cmd, out: Outcome, dirs) -> list:
    problems = []
    text = (out.out_dir / "mcstats.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    mc, analytic = doc["mcstats"], doc["analytic"]
    n = cmd.expect["trials"]
    if mc["n_trials"] != n:
        problems.append(f"n_trials {mc['n_trials']}, expected {n}")
    if sum(mc["herald_histogram"]) + mc["n_no_herald"] != n:
        problems.append("herald histogram and no-herald count do not add to n_trials")
    if abs(mc["mean_f_del"] - analytic["f_del"]) > Z_BAND * mc["std_error"]:
        problems.append(
            f"MC mean {mc['mean_f_del']} more than {Z_BAND} SE from analytic "
            f"{analytic['f_del']}"
        )
    p = analytic["p_success"]
    if abs(mc["p_success"] - p) > Z_BAND * math.sqrt(p * (1 - p) / n) + 1e-12:
        problems.append("MC herald fraction outside the binomial band")
    if cmd.expect.get("keep_trials"):
        # timed-out trials leave herald_round and winning_channel empty
        with open(out.out_dir / "trials.csv", encoding="utf-8") as handle:
            rows = sum(1 for _ in handle) - 2
        if rows != n:
            problems.append(f"trials.csv has {rows} rows, expected {n}")
    twin = cmd.expect.get("same_as")
    if twin is not None:
        other = (dirs[twin] / "mcstats.json").read_text(encoding="utf-8")
        if _strip_run_fields(other) != _strip_run_fields(text):
            problems.append(f"mcstats differs from {twin} beyond the command line")
    return problems


def _check_tradeoff(cmd, out: Outcome, _dirs) -> list:
    problems = []
    rows = _csv(out.out_dir / "tradeoff.csv")
    if rows.shape[0] == 0:
        return ["empty trade-off surface"]
    n_links, rate, f_del, n_parallel, rounds, t_del = rows.T
    used = n_links * n_parallel * 2.0**rounds
    if np.any(used > cmd.expect["budget"]):
        problems.append("a point uses more transducers than the budget")
    if np.any(np.abs(rate * t_del - 1.0) > 1e-8):
        problems.append("rate_per_us is not 1/t_del_us")
    obj = rows[:, :3]
    ge = (obj[None, :, :] >= obj[:, None, :]).all(axis=2)
    gt = (obj[None, :, :] > obj[:, None, :]).any(axis=2)
    if (ge & gt).any():
        problems.append("a returned point is dominated by another")
    return problems


def _check_plan(_cmd, out: Outcome, _dirs) -> list:
    plan = json.loads((out.out_dir / "plan.json").read_text(encoding="utf-8"))["plan"]
    if plan["total_transducers"] != plan["links_required"] * plan["transducers_per_link"]:
        return ["total_transducers != links_required * transducers_per_link"]
    return []


def _check_distill(_cmd, out: Outcome, _dirs) -> list:
    block = json.loads((out.out_dir / "distill.json").read_text(encoding="utf-8"))["distill"]
    if not block["f_out"] > block["f_in"]:
        return [f"f_out {block['f_out']} does not exceed f_in {block['f_in']}"]
    return []


_ARTIFACT_CHECKS = {
    "analyze": _check_analyze,
    "simulate": _check_simulate,
    "tradeoff": _check_tradeoff,
    "plan": _check_plan,
    "distill": _check_distill,
}


def check(cmd, out: Outcome, dirs: dict) -> list:
    """Problems with one finished command; an empty list means it passed.

    `dirs` maps the labels of this pass's earlier commands to their output
    directories, for checks that compare two commands.
    """
    problems = []
    if out.returncode != 0:
        problems.append(f"exit code {out.returncode}")
    if out.stderr:
        problems.append("stderr: " + out.stderr.strip()[:200])
    if problems:
        return problems
    subcommand = cmd.argv[0]
    try:
        primary = (out.out_dir / PRIMARY[subcommand]).read_text(encoding="utf-8")
        if out.stdout != primary:
            problems.append(f"stdout differs from {PRIMARY[subcommand]}")
        problems += _ARTIFACT_CHECKS[subcommand](cmd, out, dirs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable artifact: {exc!r}")
    return problems
