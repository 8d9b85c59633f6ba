"""Property suite over the command line: every input ends in exit 0, 1 or 2.

Inputs are argv over all six subcommands, run on the shipped examples (with
their presets written out) after at most one numeric field was set to an
extreme value (an explicit example may set several). On exit 0 stderr is
empty and stdout is the text of the command's primary artifact, which is
strict JSON (no Infinity or NaN) when it is JSON; otherwise stdout is empty,
stderr is exactly one JSON line with `error` and `message`, and --out holds
no file. A warning counts as stderr text, as it would in a process of its
own, and a Python traceback fails the test.
"""

import contextlib
import io
import json
import math
import warnings
from dataclasses import asdict
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from translink import cli, preset
from translink.params import MAX_TRANSDUCER_BUDGET

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

EXTREMES = [0, -1, math.nan, math.inf, -math.inf, 1e308, 10**30, 1e-300, 5e-324, 10**700]


def _expanded(name: str) -> dict:
    """An example config with its presets written out as objects."""
    cfg = json.loads((EXAMPLES / f"{name}.json").read_text())
    for section in ("transducer", "qubit"):
        cfg[section] = asdict(preset(cfg[section].removeprefix("preset:")))
    return cfg


BASES = {name: _expanded(name) for name in ("ex1", "ex2", "ex3", "lattice")}


def _numeric_fields(cfg: dict) -> list:
    """Paths to every numeric field."""
    fields = []
    for key, value in cfg.items():
        if isinstance(value, dict):
            fields += [
                (key, sub) for sub, v in value.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
        elif isinstance(value, (int, float)):
            fields.append((key,))
    return sorted(fields)


FLOATS = [
    "0", "-1", "nan", "inf", "-inf", "1e308", str(10**30), "1e-300",
    "37.5", "0.91", "12",
]
INTS = ["0", "-1", "1", "7", "2000", str(2**64), str(10**30)]


def _flag(name, values):
    """The flag with one of `values`, or (twice as likely) no flag at all."""
    return st.just([]) | st.just([]) | st.sampled_from(values).map(lambda v: [name, v])


def _flags(*parts):
    return st.tuples(*parts).map(lambda chosen: [a for part in chosen for a in part])


FLAGS = {
    "analyze": _flags(_flag("--k-max", INTS)),
    "simulate": _flags(
        # --trials is always given: its default of 10^5 is too slow here
        st.sampled_from(["-1", "0", "1", "500", "2000"]).map(lambda n: ["--trials", n]),
        _flag("--seed", INTS),
        _flag("--jobs", ["-1", "0", "1", "2"]),
        st.sampled_from([[], ["--keep-trials"]]),
    ),
    "plan": _flags(_flag("--circuit-budget", INTS), _flag("--code-distance", INTS)),
    "tradeoff": _flags(_flag("--format", ["csv", "json"]), _flag("--k-max", INTS)),
    "distill": _flags(
        _flag("--mode", ["calibrated", "recurrence"]),
        _flag("--f-in", FLOATS),
        _flag("--rounds", INTS + [str(10**20)]),
    ),
    "presets": st.just([]),
}


@st.composite
def cli_cases(draw):
    """(example or None, {field path: value} or None, argv without --config/--out)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    examples = st.sampled_from(sorted(BASES))
    if command == "presets":
        name = None
    elif command == "distill":
        name = draw(st.none() | examples)
    else:
        name = draw(examples)
    mutation = None
    if name is not None:
        mutation = draw(
            st.none()
            | st.tuples(
                st.sampled_from(_numeric_fields(BASES[name])), st.sampled_from(EXTREMES)
            ).map(lambda edit: dict([edit]))
        )
    return name, mutation, [command, *draw(FLAGS[command])]


PRIMARY = {
    "analyze": "metrics.json",
    "simulate": "mcstats.json",
    "plan": "plan.json",
    "distill": "distill.json",
    "presets": "presets.json",
}


def _primary(argv) -> str:
    """The artifact whose text a successful run echoes to stdout."""
    if argv[0] != "tradeoff":
        return PRIMARY[argv[0]]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    return f"tradeoff.{fmt}"


def _run(directory: Path, name, mutation, argv) -> tuple:
    if name is not None:
        cfg = json.loads(json.dumps(BASES[name]))
        for path, value in (mutation or {}).items():
            *sections, key = path
            target = cfg
            for section in sections:
                target = target[section]
            target[key] = value
        config = directory / "config.json"
        config.write_text(json.dumps(cfg))
        argv = [argv[0], "--config", str(config), *argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([*argv, "--out", str(directory / "out")])
    shown = [warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught]
    return code, out.getvalue(), err.getvalue() + "".join(shown)


def _reject_constant(name):
    raise AssertionError(f"{name} in a JSON artifact")


SIMULATE_9 = ["simulate", "--trials", "9"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cli_cases())
# the inputs that ended in a traceback before they were bounded
@example(case=("ex1", {("policy", "t_del_us"): 1e308}, ["analyze"]))
@example(case=("lattice", {("policy", "t_del_us"): 1e308}, ["plan"]))
@example(case=("ex1", {("policy", "t_del_us"): 1e308}, ["simulate", "--trials", "100"]))
@example(case=("ex1", {("transducer", "t_rep_us"): 1e-300}, ["analyze"]))
@example(case=("ex1", {("transducer", "t_rep_us"): 1e-300}, SIMULATE_9))
@example(case=("ex3", {("policy", "n_parallel"): 10**30}, SIMULATE_9))
@example(case=("ex1", {("qubit", "t_coh_us"): 1e308}, ["analyze"]))
@example(case=("ex2", {("transducer", "eta_mw"): 0}, ["analyze"]))
@example(case=(None, None, ["distill", "--mode", "recurrence", "--f-in", "0.9",
                            "--rounds", "2000"]))
@example(case=(None, None, ["distill", "--f-in", "0.9", "--rounds", str(10**20)]))
# one example for each of the remaining extreme values
@example(case=("ex3", {("policy", "t_del_us"): math.nan}, ["analyze"]))
@example(case=("ex2", {("memory", "lifetime_us"): -1}, SIMULATE_9))
@example(case=("lattice", {("architecture", "clock_cycle_us"): math.inf}, ["plan"]))
@example(case=("ex2", {("p_her_reference",): -math.inf}, ["analyze"]))
@example(case=("lattice", {("architecture", "qubits_per_processor"): 10**30}, ["plan"]))
@example(case=("lattice", {("qubit", "t_coh_us"): 1e308}, ["tradeoff"]))
# tradeoff works on at most 10^4 widths at once, so it runs at any budget
@example(case=("lattice", {("architecture", "transducer_budget"): MAX_TRANSDUCER_BUDGET},
               ["tradeoff"]))
# an integer literal beyond the float range
@example(case=("ex1", {("policy", "t_del_us"): 10**400}, ["analyze"]))
# results that overflow a float: a plan's utilizations and speedup at a
# 1e-310 us clock, its utilizations at 10^700 qubits, and a link capacity of
# 1e308 * 0.01 / 1e-3
@example(case=("lattice", {("architecture", "clock_cycle_us"): 1e-310}, ["plan"]))
@example(case=("lattice", {("architecture", "qubits_per_processor"): 10**700}, ["plan"]))
@example(case=("ex1", {("transducer", "t_rep_us"): 1e-3, ("qubit", "t_coh_us"): 1e308,
                       ("policy", "t_del_us"): 0.088}, ["analyze"]))
def test_every_input_exits_0_1_or_2(tmp_path_factory, case):
    _check_run(tmp_path_factory.mktemp("cli"), *case)


def _check_run(directory: Path, name, mutation, argv) -> None:
    """Run one case and check the contract in the module docstring."""
    code, out, err = _run(directory, name, mutation, argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        primary = directory / "out" / _primary(argv)
        assert out == primary.read_text(encoding="utf-8")
        if primary.suffix == ".json":
            json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
        assert not any(p.is_file() for p in (directory / "out").rglob("*"))
        assert err.endswith("\n") and err.count("\n") == 1
        payload = json.loads(err)
        assert {"error", "message"} <= set(payload)


LINK_EXTREMES = [5e-324, 1e-310, 1e-300, 1e-12, 0.5, 1, 1e12, 1e300, 1.7e308]
LINK_FIELDS = [("qubit", "t_coh_us"), ("p_her_reference",), ("policy", "t_del_us"),
               ("transducer", "t_rep_us")]
# every subcommand, at sizes that keep a run to milliseconds
SMALL_RUNS = [["analyze", "--k-max", "50"], ["simulate", "--trials", "50", "--keep-trials"],
              ["plan"], ["tradeoff"], ["distill"], ["presets"]]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(values=st.tuples(*[st.sampled_from(LINK_EXTREMES)] * len(LINK_FIELDS)))
# the inputs that printed numpy's overflow warning before it was silenced
# where inf is the answer: a subnormal p_her (simulate's herald-round
# quotient), a subnormal t_coh (simulate's decay exponent), a subnormal t_rep
# (tradeoff's rate) and a t_rep near the float maximum (the t_del of
# analyze's grid and of tradeoff's optimum)
@example(values=(1e12, 5e-324, 1, 0.5))
@example(values=(1e12, 1e-310, 1, 0.5))
@example(values=(5e-324, 1e-12, 1, 0.5))
@example(values=(5e-324, 1e-12, 5e-324, 5e-324))
@example(values=(1e-300, 1e-12, 1.7e308, 1.7e308))
@example(values=(1.7e308, 1e-12, 1e300, 1e300))
def test_link_extremes_through_every_subcommand(tmp_path_factory, values):
    """The lattice link with its coherence time, reference herald
    probability, delivery time and repetition time all at extremes, through
    every subcommand."""
    mutation = dict(zip(LINK_FIELDS, values))
    for argv in SMALL_RUNS:
        name = None if argv[0] == "presets" else "lattice"
        _check_run(tmp_path_factory.mktemp("cli"), name, mutation, argv)
