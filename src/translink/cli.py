"""Command-line front end.

Subcommands: analyze, simulate, plan, tradeoff, distill, presets. Every
command reads a JSON config (see config_io), writes its artifacts into
--out (default: current directory) and echoes the primary JSON document to
stdout. Errors print one JSON object to stderr; exit codes: 0 success,
1 configuration error or an artifact that cannot be written, 2 model-domain
error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import shlex
import sys
from dataclasses import asdict, fields, replace

import numpy as np

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
from .mcsim import run_trials
from .params import (
    ALPHA_PROTOCOL,
    DEVICE_PRESETS,
    QUBIT_PRESETS,
    TRANSDUCER_PRESETS,
    FidelityModel,
    LinkConfig,
    PhotonBasis,
    PumpMode,
    validate,
)
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

_PROTOCOL_NAMES = {
    "1p-upconv": (PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION),
    "1p-tms": (PhotonBasis.ONE_PHOTON, PumpMode.TMS),
    "2p-upconv": (PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
    "2p-tms": (PhotonBasis.TWO_PHOTON, PumpMode.TMS),
}
_FIDELITY_MODELS = {
    "thermal-half": FidelityModel.THERMAL_HALF,
    "linear": FidelityModel.LINEAR_SUM,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="translink",
        description="Analytics, simulation and planning for heralded "
        "optical entanglement links.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="artifact output directory")

    def link_overrides(p, t_del=True):
        if t_del:
            p.add_argument(
                "--t-del", dest="t_del", type=float, metavar="MICROSECONDS",
                help="override policy t_del_us",
            )
        p.add_argument(
            "--protocol", choices=sorted(_PROTOCOL_NAMES),
            help="override the protocol basis/pump",
        )
        p.add_argument(
            "--fidelity-model", dest="fidelity_model",
            choices=sorted(_FIDELITY_MODELS),
            help="override the heralded-fidelity model",
        )

    analyze = sub.add_parser(
        "analyze", help="link metrics, delivery curve and infidelity breakdown"
    )
    common(analyze)
    link_overrides(analyze)
    analyze.add_argument(
        "--k-max", dest="k_max", type=int, help="delivery-curve grid length"
    )
    analyze.set_defaults(func=_cmd_analyze)

    simulate = sub.add_parser(
        "simulate", help="Monte Carlo trials of the delivery protocol"
    )
    common(simulate)
    link_overrides(simulate)
    simulate.add_argument("--trials", type=int, default=100_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--jobs", type=int, default=1,
        help="threads drawing the trials; the reduction runs on one, so this "
        "pays only on large runs. Results are byte-identical for any value",
    )
    simulate.add_argument(
        "--keep-trials", dest="keep_trials", action="store_true",
        help="also write per-trial rows (trials.csv)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    plan = sub.add_parser(
        "plan", help="lattice-surgery resource plan for a module architecture"
    )
    common(plan)
    link_overrides(plan)
    plan.add_argument(
        "--circuit-budget", dest="circuit_budget", type=int,
        default=DEFAULT_CIRCUIT_BUDGET,
        help="circuit executions available to the cutting comparison",
    )
    plan.add_argument(
        "--code-distance", dest="code_distance", type=int,
        help="also report the graph-state pipe width for this code distance",
    )
    plan.set_defaults(func=_cmd_plan)

    tradeoff = sub.add_parser(
        "tradeoff", help="Pareto surface of links vs rate vs fidelity"
    )
    common(tradeoff)
    # each width searches its own t_del, so tradeoff takes no --t-del
    link_overrides(tradeoff, t_del=False)
    tradeoff.add_argument("--format", choices=("csv", "json"), default="csv")
    tradeoff.add_argument(
        "--k-max", dest="k_max", type=int, help="last round of the per-width search"
    )
    tradeoff.set_defaults(func=_cmd_tradeoff)

    distill = sub.add_parser(
        "distill", help="nested entanglement distillation of a link's output"
    )
    distill.add_argument(
        "--config", help="JSON config file; the link overrides need one"
    )
    distill.add_argument("--out", default=".", help="artifact output directory")
    link_overrides(distill)
    distill.add_argument(
        "--mode", choices=("calibrated", "recurrence"), default="calibrated"
    )
    distill.add_argument(
        "--f-in", dest="f_in", type=float,
        help="input fidelity (default: the link's delivered fidelity)",
    )
    distill.add_argument(
        "--rounds", type=int,
        help="distillation rounds (default: the policy's distill_rounds)",
    )
    distill.set_defaults(func=_cmd_distill)

    presets = sub.add_parser("presets", help="list built-in parameter presets")
    presets.add_argument("--out", default=".", help="artifact output directory")
    presets.set_defaults(func=_cmd_presets)
    return parser


def _require_link(parsed: ParsedConfig) -> LinkConfig:
    if parsed.link is None:
        raise ConfigError(
            "config has no link sections (transducer/qubit/protocol/policy)"
        )
    return parsed.link


def _apply_overrides(parsed: ParsedConfig, args) -> ParsedConfig:
    link = _require_link(parsed)
    protocol = link.protocol
    if getattr(args, "protocol", None):
        basis, pump = _PROTOCOL_NAMES[args.protocol]
        protocol = replace(
            protocol,
            basis=basis,
            pump=pump,
            alpha=protocol.alpha if (basis, pump) == ALPHA_PROTOCOL else None,
        )
    policy = link.policy
    if getattr(args, "t_del", None) is not None:
        policy = replace(policy, t_del_us=args.t_del)
    if getattr(args, "fidelity_model", None):
        policy = replace(policy, fidelity_model=_FIDELITY_MODELS[args.fidelity_model])
    if protocol is link.protocol and policy is link.policy:
        return parsed
    link = replace(link, protocol=protocol, policy=policy)
    violations = validate(link)
    if violations:
        raise ConfigError(
            "overrides produce an invalid link config: " + "; ".join(violations),
            violations,
        )
    return replace(parsed, link=link)


def _discrepancy_report(link: Link, reference: float | None) -> dict | None:
    """Compare the formula herald probability against an external reference."""
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


def _cmd_analyze(args, command: str) -> int:
    parsed = _apply_overrides(parse_config(args.config), args)
    link = resolve(parsed.link, parsed.p_her_reference)
    manifest = build_manifest(command, resolved_config(parsed))

    payload = {
        "metrics": delivered_fidelity(link),
        "infidelity_breakdown": infidelity_breakdown(link),
        "p_her_discrepancy": _discrepancy_report(link, parsed.p_her_reference),
    }
    # before any write, so that a rejected --k-max leaves no artifact behind
    curve = delivery_curve(link, k_max=args.k_max)
    text = emit_json(os.path.join(args.out, "metrics.json"), payload, manifest)
    emit_csv(
        os.path.join(args.out, "delivery_curve.csv"),
        {f.name: getattr(curve, f.name) for f in fields(curve)},
        manifest,
    )
    t_grid, comps = infidelity_breakdown_curve(link, curve)
    del curve  # frees p_success and f_del, which the breakdown has used
    comps["total_infidelity"] = comps.pop("total")
    emit_csv(
        os.path.join(args.out, "infidelity_breakdown.csv"),
        {"t_del_us": t_grid, **comps},
        manifest,
    )
    sys.stdout.write(text)
    return 0


def _cmd_simulate(args, command: str) -> int:
    parsed = _apply_overrides(parse_config(args.config), args)
    link = resolve(parsed.link, parsed.p_her_reference)
    manifest = build_manifest(command, resolved_config(parsed), seed=args.seed)
    stats = run_trials(
        link, args.trials, args.seed, n_jobs=args.jobs, keep_trials=args.keep_trials
    )
    analytic = delivered_fidelity(link)
    payload = {
        "mcstats": stats.to_dict(),
        "analytic": {
            "p_success": analytic.p_success,
            "f_del": analytic.f_del,
            "f_her": analytic.f_her,
        },
    }
    text = emit_json(os.path.join(args.out, "mcstats.json"), payload, manifest)
    if args.keep_trials:
        cols = stats.trials
        # timed-out trials (round 0, channel -1) leave both cells empty; object
        # columns hold them in a fraction of a numpy string array's memory
        timed_out = cols.winning_channel < 0
        herald_round = cols.herald_round.astype(object)
        winning_channel = cols.winning_channel.astype(object)
        herald_round[timed_out] = winning_channel[timed_out] = ""
        emit_csv(
            os.path.join(args.out, "trials.csv"),
            {
                "trial": np.arange(len(cols)),
                "herald_round": herald_round,
                "winning_channel": winning_channel,
                "tau_us": cols.tau_us,
                "f_del": cols.f_del,
            },
            manifest,
        )
    sys.stdout.write(text)
    return 0


def _cmd_plan(args, command: str) -> int:
    parsed = _apply_overrides(parse_config(args.config), args)
    if parsed.architecture is None:
        raise ConfigError("plan requires an architecture section in the config")
    link = resolve(parsed.link, parsed.p_her_reference)
    report = lattice_surgery_plan(parsed.architecture, link)
    cryostat = cryostat_budget_check(
        report.links_required, report.transducers_per_link
    )
    cut = circuit_cut_comparison(
        1.0 - report.fidelity_at_t_del, args.circuit_budget
    )
    payload = {
        "plan": report,
        "cryostat": cryostat,
        "circuit_cut": cut,
        "graph_state_pipe_width": (
            graph_state_pipe_width(args.code_distance)
            if args.code_distance is not None
            else None
        ),
    }
    manifest = build_manifest(command, resolved_config(parsed))
    text = emit_json(os.path.join(args.out, "plan.json"), payload, manifest)
    sys.stdout.write(text)
    return 0


def _cmd_tradeoff(args, command: str) -> int:
    parsed = _apply_overrides(parse_config(args.config), args)
    if parsed.architecture is None:
        raise ConfigError("tradeoff requires an architecture section in the config")
    link = resolve(parsed.link, parsed.p_her_reference)
    points = tradeoff_surface(
        parsed.architecture.transducer_budget, link, k_max=args.k_max
    )
    manifest = build_manifest(command, resolved_config(parsed))
    path = os.path.join(args.out, "tradeoff." + args.format)
    if args.format == "json":
        text = emit_json(path, {"tradeoff": points}, manifest)
    else:
        columns = {
            f.name: [getattr(p, f.name) for p in points] for f in fields(TradeoffPoint)
        }
        text = emit_csv(path, columns, manifest)
    sys.stdout.write(text)
    return 0


def _cmd_distill(args, command: str) -> int:
    f_in, rounds = args.f_in, args.rounds
    # argparse's float takes "nan" and "inf"; a config file's number cannot be either
    if f_in is not None and not math.isfinite(f_in):
        raise ConfigError(f"--f-in: expected a finite number, got {f_in}")
    resolved = {}
    if args.config is None and (
        args.t_del is not None or args.protocol or args.fidelity_model
    ):
        raise ConfigError("distill's --t-del, --protocol and --fidelity-model need --config")
    if args.config is not None:
        parsed = _apply_overrides(parse_config(args.config), args)
        resolved = resolved_config(parsed)
        if f_in is None:
            link = resolve(parsed.link, parsed.p_her_reference)
            f_in = delivered_fidelity(link).f_del
        if rounds is None:
            rounds = parsed.link.policy.distill_rounds
    if f_in is None or rounds is None:
        raise ConfigError("distill needs --config or both --f-in and --rounds")
    mode = DistillMode.CALIBRATED if args.mode == "calibrated" else DistillMode.RECURRENCE
    result = nested_distill(f_in, rounds, mode)
    ladder, recurrence = result.ladder, mode is DistillMode.RECURRENCE
    block = {
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
    }
    manifest = build_manifest(command, resolved)
    text = emit_json(os.path.join(args.out, "distill.json"), {"distill": block}, manifest)
    sys.stdout.write(text)
    return 0


def _cmd_presets(args, command: str) -> int:
    payload = {
        "transducers": {
            name: {**asdict(t), "eta_tot": t.eta_tot}
            for name, t in TRANSDUCER_PRESETS.items()
        },
        "qubits": QUBIT_PRESETS,
        "devices": DEVICE_PRESETS,
    }
    manifest = build_manifest(command, {})
    text = emit_json(os.path.join(args.out, "presets.json"), payload, manifest)
    sys.stdout.write(text)
    return 0


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
        return args.func(args, "translink " + shlex.join(argv))
    except (ConfigError, OSError) as exc:  # OSError: an unwritable --out
        _emit_error(exc)
        return 1
    except ModelDomainError as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
