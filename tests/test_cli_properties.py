"""Property suite over the command line: every input ends in exit 0, 1 or 2.

Inputs are argv over all six subcommands, run on the shipped examples (with
their presets written out) after at most one numeric field was set to an
extreme value. On exit 0 stderr is empty; otherwise stderr is exactly one
JSON line with `error` and `message`. A Python traceback fails the test.
"""

import contextlib
import io
import json
import math
from dataclasses import asdict
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from translink import cli, preset
from translink.params import MAX_TRANSDUCER_BUDGET

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

EXTREMES = [0, -1, math.nan, math.inf, -math.inf, 1e308, 10**30, 1e-300]


def _expanded(name: str) -> dict:
    """An example config with its presets written out as objects."""
    cfg = json.loads((EXAMPLES / f"{name}.json").read_text())
    transducer = asdict(preset(cfg["transducer"].removeprefix("preset:")))
    cfg["transducer"] = {k: v for k, v in transducer.items() if v is not None}
    qubit = preset(cfg["qubit"].removeprefix("preset:"))
    cfg["qubit"] = {"t1_us": qubit.t1_us, "t2_us": qubit.t2_us}
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


_OVERRIDES = (
    _flag("--t-del", FLOATS),
    _flag("--protocol", ["1p-upconv", "1p-tms", "2p-upconv", "2p-tms"]),
    _flag("--fidelity-model", ["thermal-half", "linear"]),
)
FLAGS = {
    "analyze": _flags(*_OVERRIDES, _flag("--k-max", INTS)),
    "simulate": _flags(
        *_OVERRIDES,
        # --trials is always given: its default of 10^5 is too slow here
        st.sampled_from(["-1", "0", "1", "500", "2000"]).map(lambda n: ["--trials", n]),
        _flag("--seed", INTS),
        _flag("--jobs", ["-1", "0", "1", "2"]),
        st.sampled_from([[], ["--keep-trials"]]),
    ),
    "plan": _flags(
        *_OVERRIDES, _flag("--circuit-budget", INTS), _flag("--code-distance", INTS)
    ),
    "tradeoff": _flags(
        *_OVERRIDES, _flag("--format", ["csv", "json"]), _flag("--k-max", INTS)
    ),
    "distill": _flags(
        *_OVERRIDES,
        _flag("--mode", ["calibrated", "recurrence"]),
        _flag("--f-in", FLOATS),
        _flag("--rounds", INTS + [str(10**20)]),
    ),
    "presets": st.just([]),
}


@st.composite
def cli_cases(draw):
    """(example or None, (field path, value) or None, argv without --config/--out)."""
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
            )
        )
    return name, mutation, [command, *draw(FLAGS[command])]


def _run(directory: Path, name, mutation, argv) -> tuple:
    if name is not None:
        cfg = json.loads(json.dumps(BASES[name]))
        if mutation is not None:
            path, value = mutation
            *sections, key = path
            target = cfg
            for section in sections:
                target = target[section]
            target[key] = value
        config = directory / "config.json"
        config.write_text(json.dumps(cfg))
        argv = [argv[0], "--config", str(config), *argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(directory / "out")])
    return code, out.getvalue(), err.getvalue()


SIMULATE_9 = ["simulate", "--trials", "9"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cli_cases())
# the inputs that ended in a traceback before they were bounded
@example(case=("ex1", None, ["analyze", "--t-del", "1e308"]))
@example(case=("lattice", None, ["plan", "--t-del", "1e308"]))
@example(case=("ex1", None, ["simulate", "--t-del", "1e308", "--trials", "100"]))
@example(case=("ex1", (("transducer", "t_rep_us"), 1e-300), ["analyze"]))
@example(case=("ex1", (("transducer", "t_rep_us"), 1e-300), SIMULATE_9))
@example(case=("ex3", (("policy", "n_parallel"), 10**30), SIMULATE_9))
@example(case=("ex1", (("qubit", "t2_us"), 1e308), ["analyze"]))
@example(case=("ex2", (("transducer", "eta_mw"), 0), ["analyze"]))
@example(case=(None, None, ["distill", "--mode", "recurrence", "--f-in", "0.9",
                            "--rounds", "2000"]))
@example(case=(None, None, ["distill", "--f-in", "0.9", "--rounds", str(10**20)]))
# one example for each of the remaining extreme values
@example(case=("ex3", (("policy", "t_del_us"), math.nan), ["analyze"]))
@example(case=("ex2", (("memory", "lifetime_us"), -1), SIMULATE_9))
@example(case=("lattice", (("architecture", "clock_cycle_us"), math.inf), ["plan"]))
@example(case=("ex2", (("p_her_reference",), -math.inf), ["analyze"]))
@example(case=("lattice", (("architecture", "qubits_per_processor"), 10**30), ["plan"]))
@example(case=("lattice", (("qubit", "t2_us"), 1e308), ["tradeoff"]))
# tradeoff works on at most 10^4 widths at once, so it runs at any budget
@example(case=("lattice", (("architecture", "transducer_budget"), MAX_TRANSDUCER_BUDGET),
               ["tradeoff"]))
# an integer literal beyond the float range
@example(case=("ex1", (("policy", "t_del_us"), 10**400), ["analyze"]))
def test_every_input_exits_0_1_or_2(tmp_path_factory, case):
    code, out, err = _run(tmp_path_factory.mktemp("cli"), *case)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        payload = json.loads(err)
        assert {"error", "message"} <= set(payload)
