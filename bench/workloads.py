"""The benchmark's inputs: example link configs and each workload's command list.

The configs are the README examples (ex1, ex2, ex3 and lattice.json, which is
ex3's link plus a 1000-qubit lattice-surgery architecture). They are written
into the run's work directory, so the benchmark needs nothing outside git.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

EX1 = {
    "transducer": "preset:transducer1",
    "qubit": "preset:qubit1",
    "protocol": {"basis": "one_photon", "pump": "tms"},
    "policy": {"t_del_us": 88.0},
}
EX2 = {
    "transducer": "preset:transducer2",
    "qubit": "preset:qubit2",
    "protocol": {"basis": "two_photon", "pump": "upconversion"},
    "policy": {"t_del_us": 400.0},
    "memory": {"kind": "spin_cavity", "eta_mem": 1.0, "lifetime_us": 1000.0},
    "p_her_reference": 0.03,
}
EX3 = {
    "transducer": "preset:transducer2",
    "qubit": "preset:qubit1",
    "protocol": {"basis": "one_photon", "pump": "tms", "p_mo_override": 0.02},
    "policy": {"t_del_us": 15.0, "n_parallel": 20},
}
LINKS = {"ex1": EX1, "ex2": EX2, "ex3": EX3}


def _lattice(budget: int) -> dict:
    return dict(
        EX3,
        architecture={
            "qubits_per_processor": 1000,
            "clock_cycle_us": 1.0,
            "transducer_budget": budget,
            "target_fidelity": 0.89,
            "architecture": "lattice_surgery",
        },
    )


@dataclass(frozen=True)
class Sizes:
    k_max: int
    trials: int
    keep_trials: int
    budget_small: int
    budget_large: int


FULL = Sizes(k_max=200_000, trials=500_000, keep_trials=200_000,
             budget_small=1_000, budget_large=10_000)
# Every workload once, in a few seconds: for the benchmark's own tests.
SMOKE = Sizes(k_max=2_000, trials=20_000, keep_trials=5_000,
              budget_small=100, budget_large=1_000)


@dataclass(frozen=True)
class Command:
    """One translink invocation; `--out` is appended when it runs."""

    label: str  # unique within the workload; also names per-layer metrics
    argv: tuple  # starts with the subcommand, which picks the output check
    focus: bool = False  # counted in the workload's focus_s
    threads: int = 1  # CPUs the command may use in untraced runs
    expect: dict = field(default_factory=dict)  # sizes the check verifies


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    # the summary prints focus_s under this name: as focus_work per second
    # when focus_work is set, else as a time
    focus_name: str
    focus_work: int = 0
    kernel: str = "mixed"  # the speed kernel its times are scaled by (speed.py)


def write_configs(directory: Path, sizes: Sizes) -> dict:
    """Write the example configs as JSON files; returns name -> path."""
    docs = dict(LINKS)
    docs["lattice"] = _lattice(sizes.budget_large)
    docs["lattice_small"] = _lattice(sizes.budget_small)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def build(name: str, configs: dict, seed: int, sizes: Sizes) -> Workload:
    """The command list of workload `name`; `seed` sets the simulate seeds."""
    if name == "analytic-sweep":
        commands = [
            Command(f"analyze.{ex}",
                    ("analyze", "--config", configs[ex], "--k-max", str(sizes.k_max)),
                    focus=True, expect={"k_max": sizes.k_max})
            for ex in LINKS
        ]
        commands += [
            Command("distill.recurrence",
                    ("distill", "--config", configs["ex1"], "--mode", "recurrence",
                     "--rounds", "4")),
            Command("distill.calibrated",
                    ("distill", "--mode", "calibrated", "--f-in", "0.91",
                     "--rounds", "4")),
        ]
        return Workload(name, tuple(commands), "grid_points_per_s",
                        focus_work=len(LINKS) * sizes.k_max, kernel="format")
    if name == "mc-verify":
        rng = random.Random(seed)
        commands = []
        for ex in LINKS:
            ex_seed = str(rng.randrange(2**32))
            for jobs in (1, 2):
                commands.append(Command(
                    f"{ex}.j{jobs}",
                    ("simulate", "--config", configs[ex], "--trials", str(sizes.trials),
                     "--seed", ex_seed, "--jobs", str(jobs)),
                    focus=True,
                    threads=jobs,
                    expect={"trials": sizes.trials,
                            "same_as": f"{ex}.j1" if jobs == 2 else None},
                ))
        commands.append(Command(
            "keep",
            ("simulate", "--config", configs["ex1"], "--trials", str(sizes.keep_trials),
             "--seed", str(rng.randrange(2**32)), "--keep-trials"),
            focus=True,
            expect={"trials": sizes.keep_trials, "keep_trials": True},
        ))
        return Workload(name, tuple(commands), "trials_per_s",
                        focus_work=6 * sizes.trials + sizes.keep_trials)
    if name == "module-plan":
        commands = (
            Command("b10000", ("tradeoff", "--config", configs["lattice"]),
                    focus=True, expect={"budget": sizes.budget_large}),
            Command("b1000", ("tradeoff", "--config", configs["lattice_small"]),
                    expect={"budget": sizes.budget_small}),
            Command("plan", ("plan", "--config", configs["lattice"],
                             "--code-distance", "7")),
        )
        return Workload(name, commands, "tradeoff_s")
    raise KeyError(name)


NAMES = ("analytic-sweep", "mc-verify", "module-plan")
