"""Command-line front end.

Subcommands: analyze, simulate, plan, tradeoff, distill, presets. One runner
does what they share. It reads the JSON config (see config_io) when --config
is given: presets takes none, and distill takes one or, in its place, --f-in
with --rounds. Every link value comes from that file: the runner resolves
its link and builds the run manifest, whose resolved_config is the file
with its defaults filled in. Each command then only computes and hands its
artifacts to the runner in order, which writes each atomically into --out
(default: current directory). Once the command returns, the runner copies
the first, primary artifact's file to stdout. A rejected input writes
nothing. A negative value after a space (`--f-in -1e5`, `--f-in -inf`)
reads as `--f-in=-1e5` does. Errors print one JSON object to stderr; exit
codes: 0 success, 1 configuration error or an artifact that cannot be
written, 2 model-domain error, a result that overflows a float included.
Where this module is imported before numpy, numpy loads at the first array
a command builds: presets, distill --f-in and a usage or config error never
load it. Where it loads, the process runs only the threads that simulate
--jobs starts: numpy's OpenBLAS is capped at one thread, unless the user
sets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import json
import math
import os
import re
import shlex
import sys
from dataclasses import asdict, fields

# numpy's OpenBLAS starts a worker thread per extra CPU when numpy loads, and
# each busy-waits for work; no command calls a float BLAS routine. Where the
# user sets none of OpenBLAS's thread variables, numpy's load caps the pool at
# the one calling thread and removes the variable again, so os.environ and
# any child see the environment unchanged. numpy loaded earlier keeps its pool.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class _CappedLoader:
    """numpy's own loader, run with OpenBLAS capped as above."""

    def __init__(self, loader):
        self.loader = loader

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        # the loaded module keeps numpy's own loader, resource reader included
        module.__spec__.loader = module.__loader__ = self.loader
        cap = not any(var in os.environ for var in _BLAS_THREAD_VARS)
        if cap:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            self.loader.exec_module(module)
        finally:
            if cap:
                del os.environ["OPENBLAS_NUM_THREADS"]


# A command that builds no array (presets, distill --f-in, a usage or config
# error) would spend about half its run importing numpy. So numpy goes into
# sys.modules as a deferred module, which loads, capped, at the first
# attribute that a command reads; the array modules bind it through _numpy.
if "numpy" not in sys.modules and (_spec := importlib.util.find_spec("numpy")):
    _spec.loader = importlib.util.LazyLoader(_CappedLoader(_spec.loader))
    sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["numpy"])

from ._numpy import np
from .config_io import (
    ParsedConfig,
    build_manifest,
    emit_csv,
    emit_json,
    parse_config,
    resolved_config,
)
from .delivery import (
    Link,
    delivered_fidelity,
    delivery_curve,
    infidelity_breakdown,
    infidelity_breakdown_curve,
    resolve,
)
from .distillation import DistillMode, nested_distill
from .errors import ConfigError, ModelDomainError, SchemaError
from .mcsim import TrialColumns, run_trials
from .params import DEVICE_PRESETS, QUBIT_PRESETS, TRANSDUCER_PRESETS
from .planner import (
    TradeoffPoint,
    circuit_cut_comparison,
    cryostat_budget_check,
    graph_state_pipe_width,
    lattice_surgery_plan,
    tradeoff_surface,
)

# The interpreter's final collections would walk every object that numpy
# and this package created at import, some 20 ms of every command. Freezing
# them at exit skips that walk and loses nothing: every artifact is written
# and closed by config_io's atomic writer before main returns, and the
# interpreter flushes stdout and stderr whether or not the collection runs.
# An in-process caller (a test runner, a benchmark) meets the hook only at
# its own exit. main itself does not freeze: repeated in-process calls would
# pin whatever cyclic garbage exists at each call.
atexit.register(gc.freeze)

# Relative mismatch between the formula p_her and an externally quoted
# reference above which the discrepancy is flagged in reports.
P_HER_FLAG_REL_TOL = 0.01

DEFAULT_CIRCUIT_BUDGET = 100_000

# Characters per read when the primary artifact is copied to stdout.
_ECHO_BLOCK = 1 << 20

# Every negative number that float() reads. argparse's own matcher knows only
# -5 and -.5, and takes -1e5, -inf or -nan after a space for an option.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1).

    Each parser, subparsers included, reads any negative number as a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="translink",
        description="Analytics, simulation and planning for heralded "
        "optical entanglement links.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def subcommand(func, help, config=True):
        """The subcommand that func runs. Its --config is required (True),
        optional (False) or absent (None). An optional --config is
        distill's, and --f-in, an input fidelity in place of the config's
        link, excludes it."""
        p = sub.add_parser(func.__name__.removeprefix("_cmd_"), help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", default=".", help="artifact output directory")
        if config is None:
            return p
        source = p if config else p.add_mutually_exclusive_group()
        source.add_argument("--config", required=config, help="JSON config file")
        if not config:
            source.add_argument(
                "--f-in", type=float,
                help="input fidelity in place of a config's link; needs --rounds",
            )
        return p

    analyze = subcommand(
        _cmd_analyze, "link metrics, delivery curve and infidelity breakdown"
    )
    analyze.add_argument("--k-max", type=int, help="delivery-curve grid length")

    simulate = subcommand(_cmd_simulate, "Monte Carlo trials of the delivery protocol")
    simulate.add_argument("--trials", type=int, default=100_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--jobs", type=int, default=1,
        help="threads drawing the trials, the calling one included; each draws "
        "65536-trial spans, so there are never more threads than spans, and "
        "counts their herald rounds. Only the merge of those counts runs on "
        "one. Results are byte-identical for any value",
    )
    simulate.add_argument(
        "--keep-trials", action="store_true",
        help="also write per-trial rows (trials.csv)",
    )

    plan = subcommand(
        _cmd_plan, "lattice-surgery resource plan for a module architecture"
    )
    plan.add_argument(
        "--circuit-budget", type=int, default=DEFAULT_CIRCUIT_BUDGET,
        help="circuit executions available to the cutting comparison",
    )
    plan.add_argument(
        "--code-distance", type=int,
        help="also report the graph-state pipe width for this code distance",
    )

    tradeoff = subcommand(_cmd_tradeoff, "Pareto surface of links vs rate vs fidelity")
    tradeoff.description = (
        "Of the policy only fidelity_model shapes the surface, which sweeps widths, rounds "
        "0-4 and delivery times itself: t_del_us, n_parallel and distill_rounds are only "
        "validated."
    )
    tradeoff.add_argument("--format", choices=("csv", "json"), default="csv")
    tradeoff.add_argument("--k-max", type=int, help="last round of the per-width search")

    distill = subcommand(
        _cmd_distill, "nested entanglement distillation of a link's output",
        config=False,
    )
    distill.add_argument(
        "--mode", choices=[m.value for m in DistillMode], default="calibrated"
    )
    distill.add_argument(
        "--rounds", type=int,
        help="distillation rounds (default: the policy's distill_rounds)",
    )

    subcommand(_cmd_presets, "list built-in parameter presets", config=None)
    return parser


def _run(args, command: str) -> int:
    """Run one subcommand: everything but its own computation happens here.

    The handler args.func(args, parsed, link, emit) gets the parsed config
    and its resolved link (both None without --config), and passes each
    artifact to emit(name, data): a JSON payload for a .json name, CSV
    columns for a .csv one. The steps: parse the config, resolve its link,
    build the manifest, run the handler, and copy the first artifact's file
    to stdout a block at a time, so that no artifact's text is held for it.
    """
    parsed = link = None
    if getattr(args, "config", None) is not None:
        parsed = parse_config(args.config)
        if args.command in ("plan", "tradeoff") and parsed.architecture is None:
            raise ConfigError(
                f"{args.command} requires an architecture section in the config"
            )
        link = resolve(parsed.link)
    manifest = build_manifest(
        command, resolved_config(parsed) if parsed else {},
        seed=getattr(args, "seed", None),
    )
    primary = []

    def emit(name: str, data: dict) -> None:
        path = os.path.join(args.out, name)
        (emit_json if name.endswith(".json") else emit_csv)(path, data, manifest)
        if not primary:
            primary.append(path)

    args.func(args, parsed, link, emit)
    # the artifact as written: UTF-8 with "\n" line ends, which newline="" keeps
    with open(primary[0], encoding="utf-8", newline="") as artifact:
        while block := artifact.read(_ECHO_BLOCK):
            sys.stdout.write(block)
    return 0


def _columns(cls, column) -> dict:
    """CSV columns named after dataclass cls's fields, in order: column(name)."""
    return {f.name: column(f.name) for f in fields(cls)}


def _discrepancy_report(link: Link) -> dict | None:
    """Compare the formula herald probability against the config's reference."""
    reference = link.config.p_her_reference
    if reference is None:
        return None
    formula = link.formula.p_her
    rel = (formula - reference) / reference
    return {
        "formula_p_her": formula,
        "reference_p_her": reference,
        "relative_deviation": rel,
        "flagged": abs(rel) > P_HER_FLAG_REL_TOL,
        "note": "delivery metrics use the reference herald probability; "
        "the formula value deviates by the stated relative amount",
    }


def _cmd_analyze(args, parsed: ParsedConfig, link: Link, emit) -> None:
    payload = {
        "metrics": delivered_fidelity(link),
        "infidelity_breakdown": infidelity_breakdown(link),
        "p_her_discrepancy": _discrepancy_report(link),
    }
    # before any write, so that a rejected --k-max leaves no artifact behind
    curve = delivery_curve(link, k_max=args.k_max)
    emit("metrics.json", payload)
    emit("delivery_curve.csv", _columns(curve, lambda name: getattr(curve, name)))
    t_grid, comps = infidelity_breakdown_curve(link, curve)
    del curve  # frees p_success and f_del, which the breakdown has used
    comps["total_infidelity"] = comps.pop("total")
    emit("infidelity_breakdown.csv", {"t_del_us": t_grid, **comps})


def _cmd_simulate(args, parsed: ParsedConfig, link: Link, emit) -> None:
    stats = run_trials(
        link, args.trials, args.seed, n_jobs=args.jobs, keep_trials=args.keep_trials
    )
    trials = (
        _trial_columns(stats.trials, link.config.policy.n_parallel)
        if args.keep_trials else None
    )
    mcstats = stats.to_dict()
    del stats  # frees the per-trial arrays before any artifact is formatted
    analytic = delivered_fidelity(link)
    emit("mcstats.json", {
        "mcstats": mcstats,
        "analytic": {
            "p_success": analytic.p_success,
            "f_del": analytic.f_del,
            "f_her": analytic.f_her,
        },
    })
    if trials is not None:
        emit("trials.csv", trials)


def _trial_columns(cols: TrialColumns, n_channels: int) -> dict:
    """trials.csv's columns: the kept trials' round codes and table, as one
    emit_csv group.

    Every trial of a herald round holds the same round, tau and f_del bits,
    and with one channel the same channel too, so those cells come from the
    trial's row of the per-round table, formatted once. A timed-out trial
    (round 0, channel -1) leaves its round and channel cells empty. With
    N > 1 the channel is a group of its own, keyed by channel + 1.
    """
    timed_out = cols.herald_round == 0

    def blank_timeouts(column):
        cells = column.astype(object)
        cells[timed_out] = ""
        return cells

    # trial ids as int32: at most MAX_TRIAL_DUMP = 10^6 trials are kept
    trial = np.arange(len(cols), dtype=np.int32)
    rounds = blank_timeouts(cols.herald_round)
    if n_channels == 1:
        return {
            "trial": trial,
            ("herald_round", "winning_channel", "tau_us", "f_del"): (cols.code, (
                rounds, blank_timeouts(np.zeros_like(cols.herald_round)),
                cols.tau_us, cols.f_del,
            )),
        }
    return {
        "trial": trial,
        ("herald_round",): (cols.code, (rounds,)),
        ("winning_channel",): (
            cols.winning_channel + 1, (np.array(["", *range(n_channels)], dtype=object),)
        ),
        ("tau_us", "f_del"): (cols.code, (cols.tau_us, cols.f_del)),
    }


def _cmd_plan(args, parsed: ParsedConfig, link: Link, emit) -> None:
    report = lattice_surgery_plan(parsed.architecture, link)
    emit("plan.json", {
        "plan": report,
        "cryostat": cryostat_budget_check(
            report.links_required, report.transducers_per_link
        ),
        "circuit_cut": circuit_cut_comparison(
            1.0 - report.fidelity_at_t_del, args.circuit_budget
        ),
        "graph_state_pipe_width": (
            graph_state_pipe_width(args.code_distance)
            if args.code_distance is not None
            else None
        ),
    })


def _cmd_tradeoff(args, parsed: ParsedConfig, link: Link, emit) -> None:
    points = tradeoff_surface(
        parsed.architecture.transducer_budget, link, k_max=args.k_max
    )
    if args.format == "json":
        emit("tradeoff.json", {"tradeoff": points})
    else:
        emit("tradeoff.csv", _columns(
            TradeoffPoint, lambda name: [getattr(p, name) for p in points]
        ))


def _cmd_distill(args, parsed: ParsedConfig | None, link: Link | None, emit) -> None:
    f_in, rounds = args.f_in, args.rounds
    if link is not None:  # --config, which excludes --f-in
        f_in = delivered_fidelity(link).f_del
        rounds = link.config.policy.distill_rounds if rounds is None else rounds
    # argparse's float takes "nan" and "inf"; a config file's number cannot be either
    elif f_in is not None and not math.isfinite(f_in):
        raise ConfigError(f"--f-in: expected a finite number, got {f_in}")
    if f_in is None or rounds is None:
        raise ConfigError("distill needs --config or both --f-in and --rounds")
    mode = DistillMode(args.mode)
    result = nested_distill(f_in, rounds, mode)
    ladder, recurrence = result.ladder, mode is DistillMode.RECURRENCE
    emit("distill.json", {"distill": {
        "mode": args.mode,
        "f_in": f_in,
        "rounds": rounds,
        "f_out": result.f_out,
        "pairs_nominal": result.pairs_nominal,
        "pairs_expected": result.pairs_expected,
        "final_state": list(ladder[-1].state.as_tuple()) if ladder else None,
        "round_success_probabilities": (
            [o.success_probability for o in ladder] if recurrence else None
        ),
    }})


def _cmd_presets(args, parsed, link, emit) -> None:
    emit("presets.json", {
        "transducers": {
            name: {**asdict(t), "eta_tot": t.eta_tot}
            for name, t in TRANSDUCER_PRESETS.items()
        },
        "qubits": QUBIT_PRESETS,
        "devices": DEVICE_PRESETS,
    })


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SchemaError):
        payload["pointer"] = exc.pointer
    if isinstance(exc, ConfigError) and exc.violations:
        payload["violations"] = exc.violations
    offending = getattr(exc, "offending_sum", None)
    if offending is not None:
        payload["offending_sum"] = offending
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args, "translink " + shlex.join(argv))
    except (ConfigError, OSError) as exc:  # OSError: an unwritable --out
        _emit_error(exc)
        return 1
    except ModelDomainError as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
