"""End-to-end CLI behavior: artifacts, stdout/stderr contracts, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grid_oracle import grid_min_time_to_fidelity
from translink import cli
from translink import (
    ArchitectureSpec,
    ConfigError,
    DeliveryPolicy,
    LinkConfig,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    delivered_fidelity,
    lattice_surgery_plan,
    min_time_to_fidelity,
    optimal_delivery_time,
    parse_config,
    preset,
    resolve,
    run_trials,
    tradeoff_surface,
)

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"
EX1 = str(EXAMPLES / "ex1.json")
EX2 = str(EXAMPLES / "ex2.json")
EX3 = str(EXAMPLES / "ex3.json")
LATTICE = str(EXAMPLES / "lattice.json")


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_manifest(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("manifest")
    return doc


def _edited_config(tmp_path, base, section, **values) -> str:
    """The path of a copy of config `base` with `values` set in `section`."""
    cfg = json.loads(Path(base).read_text())
    cfg[section].update(values)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_analyze_reference_link(tmp_path, capsys):
    code, out, err = _run(
        capsys, "analyze", "--config", EX1, "--out", str(tmp_path)
    )
    assert code == 0
    assert err == ""
    text = (tmp_path / "metrics.json").read_text()
    assert out == text
    doc = json.loads(text)
    metrics = doc["metrics"]
    assert list(metrics) == [
        "p_her", "i_prot", "i_th", "f_her", "eta_link", "p_success", "f_del",
    ]
    assert metrics["p_her"] == 0.01
    assert metrics["f_her"] == 0.728
    assert metrics["eta_link"] == 2.0
    assert metrics["p_success"] == 0.587050329
    assert metrics["f_del"] == 0.605113212
    assert doc["p_her_discrepancy"] is None
    bd = doc["infidelity_breakdown"]
    assert bd["protocol"] == 0.208
    assert bd["total"] == pytest.approx(1 - metrics["f_del"], abs=1e-9)
    assert "analyze" in doc["manifest"]["command"]
    assert doc["manifest"]["resolved_config"]["policy"]["t_del_us"] == 88.0

    curve_lines = (tmp_path / "delivery_curve.csv").read_text().splitlines()
    assert curve_lines[0].startswith("# manifest: ")
    assert curve_lines[1] == "t_del_us,p_success,f_del"
    bd_lines = (tmp_path / "infidelity_breakdown.csv").read_text().splitlines()
    assert bd_lines[1] == "t_del_us,protocol,thermal,decoherence,fallback,total_infidelity"
    assert len(bd_lines) == len(curve_lines)


def test_analyze_golden_modulo_manifest(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert _run(capsys, "analyze", "--config", EX1, "--out", str(dir_a))[0] == 0
    assert _run(capsys, "analyze", "--config", EX1, "--out", str(dir_b))[0] == 0
    doc_a = json.loads((dir_a / "metrics.json").read_text())
    doc_b = json.loads((dir_b / "metrics.json").read_text())
    assert _strip_manifest(doc_a) == _strip_manifest(doc_b)
    for name in ("delivery_curve.csv", "infidelity_breakdown.csv"):
        lines_a = (dir_a / name).read_text().splitlines()[1:]
        lines_b = (dir_b / name).read_text().splitlines()[1:]
        assert lines_a == lines_b


def test_analyze_reports_reference_discrepancy(tmp_path, capsys):
    code, out, _ = _run(capsys, "analyze", "--config", EX2, "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    disc = doc["p_her_discrepancy"]
    assert disc["flagged"] is True
    assert disc["formula_p_her"] == 0.02375
    assert disc["reference_p_her"] == 0.03
    assert disc["relative_deviation"] == pytest.approx(-0.2083333333, abs=1e-9)
    # the metrics themselves quote the reference value
    assert doc["metrics"]["p_her"] == 0.03
    assert doc["metrics"]["eta_link"] == 75.0


def test_analyze_fidelity_model_override(tmp_path, capsys):
    """A copy of ex1 whose policy overrides the thermal-half default."""
    config = _edited_config(tmp_path, EX1, "policy", fidelity_model="linear_sum")
    code, out, _ = _run(
        capsys, "analyze", "--config", config, "--out", str(tmp_path / "out")
    )
    assert code == 0
    assert json.loads(out)["metrics"]["f_her"] == pytest.approx(0.664)


def test_analyze_t_del_override(tmp_path, capsys):
    """A copy of ex1 that overrides its t_del_us of 88."""
    config = _edited_config(tmp_path, EX1, "policy", t_del_us=44)
    code, out, _ = _run(
        capsys, "analyze", "--config", config, "--out", str(tmp_path / "out")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["resolved_config"]["policy"]["t_del_us"] == 44.0
    assert doc["metrics"]["p_success"] == pytest.approx(1 - 0.99**44, rel=1e-8)


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_non_finite_t_del_in_config_exits_1(tmp_path, capsys, literal):
    text = Path(EX1).read_text().replace("88.0", literal)
    assert literal in text
    config = tmp_path / "cfg.json"
    config.write_text(text)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "analyze", "--config", str(config), "--out", str(out_dir))
    assert (code, out, err.count("\n")) == (1, "", 1)
    payload = json.loads(err)
    assert (payload["error"], payload["pointer"]) == ("SchemaError", "/policy/t_del_us")
    assert not out_dir.exists()


def test_simulate_matches_library(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "simulate", "--config", EX1, "--out", str(tmp_path),
        "--trials", "2000", "--seed", "9", "--keep-trials",
    )
    assert code == 0
    doc = json.loads(out)
    cfg = LinkConfig(
        transducer=preset("transducer1"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        policy=DeliveryPolicy(t_del_us=88.0),
    )
    stats = run_trials(resolve(cfg), 2000, seed=9)
    assert doc["mcstats"]["p_success"] == stats.p_success
    assert doc["mcstats"]["mean_f_del"] == pytest.approx(stats.mean_f_del, abs=1e-9)
    assert doc["mcstats"]["seed"] == 9
    assert doc["analytic"]["f_del"] == 0.605113212
    assert doc["manifest"]["seed"] == 9

    lines = (tmp_path / "trials.csv").read_text().splitlines()
    assert lines[1] == "trial,herald_round,winning_channel,tau_us,f_del"
    assert len(lines) == 2 + 2000
    no_herald = [ln for ln in lines[2:] if ",,," in ln]
    assert len(no_herald) == stats.n_no_herald


def _trials_csv_oracle(config: str, trials: int, seed: int) -> str:
    """trials.csv below its manifest line, one cell at a time from the library.

    The run takes one job: the command's rows must not depend on --jobs.
    """
    parsed = parse_config(config)
    link = resolve(parsed.link)
    cols = run_trials(link, trials, seed, keep_trials=True).trials
    lines = ["trial,herald_round,winning_channel,tau_us,f_del\n"]
    for trial, (rnd, chan, tau, f_del) in enumerate(zip(
        cols.herald_round[cols.code].tolist(), cols.winning_channel.tolist(),
        cols.tau_us[cols.code].tolist(), cols.f_del[cols.code].tolist(),
    )):
        rnd, chan = ("", "") if rnd == 0 else ("%d" % rnd, "%d" % chan)
        lines.append("%d,%s,%s,%.9g,%.9g\n" % (trial, rnd, chan, tau, f_del))
    return "".join(lines)


def _simulated_trials_csv(out, config: str, trials: int, seed: int, jobs: int) -> str:
    """The trials.csv that `simulate --keep-trials` writes, below its manifest line."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "simulate", "--config", config, "--out", str(out), "--trials", str(trials),
            "--seed", str(seed), "--jobs", str(jobs), "--keep-trials",
        ])
    assert code == 0
    return (Path(out) / "trials.csv").read_text().split("\n", 1)[1]


def _assert_same_lines(got: str, want: str) -> None:
    """got == want, reported at the first differing line: diffing two texts of
    10^4 lines each would take the assertion minutes."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (got_line, want_line) in enumerate(zip(got, want)):
        assert got_line == want_line, f"line {i}"
    assert len(got) == len(want)


def _config_file(path, base: str, p_her_reference=None, **policy) -> str:
    cfg = json.loads(Path(base).read_text())
    cfg["policy"].update(policy)
    if p_her_reference is not None:
        cfg["p_her_reference"] = p_her_reference
    Path(path).write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("case", [
    # N = 20 over two 65536-trial spans, at one and two jobs
    (EX3, {}, 70_000, 1),
    (EX3, {}, 70_000, 2),
    # every trial heralds in round 1
    (EX1, {"p_her_reference": 1.0}, 5000, 1),
    (EX3, {"p_her_reference": 1.0}, 5000, 2),
    # one channel, with about a third of the trials timed out
    (EX1, {"p_her_reference": 0.005}, 9000, 1),
    # the 10^7-round cap: a few thousand trials over sparse rounds
    (EX1, {"p_her_reference": 1e-7, "t_del_us": 1e7}, 2000, 2),
], ids=["ex3-j1", "ex3-j2", "p1-ex1", "p1-ex3-j2", "timeouts", "round-cap"])
def test_trials_csv_matches_per_row_oracle(tmp_path, case):
    base, changes, trials, jobs = case
    config = _config_file(tmp_path / "cfg.json", base, **changes)
    got = _simulated_trials_csv(tmp_path / "out", config, trials, 21, jobs)
    _assert_same_lines(got, _trials_csv_oracle(config, trials, 21))


@settings(max_examples=25, deadline=None)
@given(
    base=st.sampled_from([EX1, EX3]),
    n_parallel=st.integers(1, 40),
    reference=st.sampled_from([None, 1.0, 0.02, 1e-3]),
    trials=st.integers(1, 9000),
    seed=st.integers(0, 2**64 - 1),
    jobs=st.sampled_from([1, 2]),
)
def test_trials_csv_matches_oracle_property(
    tmp_path_factory, base, n_parallel, reference, trials, seed, jobs
):
    tmp = tmp_path_factory.mktemp("trials")
    config = _config_file(tmp / "cfg.json", base, reference, n_parallel=n_parallel)
    got = _simulated_trials_csv(tmp / "out", config, trials, seed, jobs)
    _assert_same_lines(got, _trials_csv_oracle(config, trials, seed))


def test_simulate_deterministic_across_jobs(tmp_path, capsys):
    out_docs = []
    for jobs, sub in (("1", "a"), ("3", "b")):
        code, out, _ = _run(
            capsys, "simulate", "--config", EX3, "--out", str(tmp_path / sub),
            "--trials", "3000", "--seed", "4", "--jobs", jobs,
        )
        assert code == 0
        out_docs.append(_strip_manifest(json.loads(out)))
    assert out_docs[0] == out_docs[1]


def test_simulate_cost_follows_trials_not_rounds(tmp_path, capsys):
    """10^7 rounds and 1000 trials: the histogram holds only the heralded rounds."""
    cfg = json.loads(Path(EX2).read_text())
    del cfg["memory"]
    cfg["qubit"] = {"t_coh_us": 1e6}
    cfg["policy"]["t_del_us"] = 1e7  # K = 10^7 rounds of 1 us
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code, out, err = _run(
        capsys, "simulate", "--config", str(path), "--out", str(tmp_path),
        "--trials", "1000", "--seed", "3",
    )
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    artifact = tmp_path / "mcstats.json"
    assert out == artifact.read_text()
    assert artifact.stat().st_size < 64 * 1024
    mc = json.loads(out)["mcstats"]
    assert len(mc["herald_rounds"]) == len(mc["herald_histogram"]) <= 1000
    assert sum(mc["herald_histogram"]) + mc["n_no_herald"] == 1000
    assert elapsed < 1.0


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
def test_artifacts_honour_umask(tmp_path, capsys, umask):
    """Artifacts get the mode of any new file: 0o666 less the umask."""
    old = os.umask(umask)
    try:
        for argv in (
            ["analyze", "--config", EX1],
            ["simulate", "--config", EX3, "--trials", "100", "--keep-trials"],
        ):
            code, _, err = _run(capsys, *argv, "--out", str(tmp_path))
            assert (code, err) == (0, "")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["delivery_curve.csv", "infidelity_breakdown.csv", "metrics.json",
         "mcstats.json", "trials.csv"],
        0o666 & ~umask,
    )


def test_plan_reference_architecture(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "plan", "--config", LATTICE, "--out", str(tmp_path),
        "--code-distance", "7",
    )
    assert code == 0
    doc = json.loads(out)
    plan = doc["plan"]
    assert plan["links_required"] == 32
    assert plan["transducers_per_link"] == 300
    assert plan["total_transducers"] == 9600
    assert plan["feasible"] is False
    assert plan["limiting_factor"] == "communication qubits"
    assert plan["min_t_del_us"] == 8.0
    assert doc["cryostat"]["in_envelope"] is False
    assert doc["cryostat"]["per_link_in_envelope"] is False
    assert doc["circuit_cut"]["k_classical"] == 10
    assert doc["circuit_cut"]["advantage"] is True
    assert doc["graph_state_pipe_width"] == 7
    assert (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("command", ["plan", "tradeoff"])
def test_plan_without_architecture_fails(tmp_path, capsys, command):
    code, out, err = _run(
        capsys, command, "--config", EX1, "--out", str(tmp_path)
    )
    assert (code, out) == (1, "")
    message = json.loads(err)["message"]
    assert "architecture" in message and message.startswith(command)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "simulate", "plan", "tradeoff", "distill"])
def test_config_without_link_exits_1(tmp_path, capsys, command):
    cfg = json.loads(Path(LATTICE).read_text())
    path = tmp_path / "architecture_only.json"
    path.write_text(json.dumps({"architecture": cfg["architecture"]}))
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, command, "--config", str(path), "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert (error["error"], error["pointer"]) == ("SchemaError", "/")
    assert all(name in error["message"]
               for name in ("transducer", "qubit", "protocol", "policy"))
    assert not out_dir.exists()


def test_analyze_long_coherence_default_grid(tmp_path, capsys):
    # 10 T_coh is 2e7 rounds, past MAX_GRID_POINTS, but the default curve
    # needs only 1000 of them, and plan's search builds no grid at all
    cfg = json.loads(Path(LATTICE).read_text())
    cfg["qubit"] = {"t_coh_us": 2e6}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cfg))
    code, _, err = _run(capsys, "analyze", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    lines = (tmp_path / "delivery_curve.csv").read_text().splitlines()
    assert len(lines) == 2 + 1000
    code, out, err = _run(capsys, "plan", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    # a grid prefix that holds a hit has the full grid's first hit, and this
    # one spares the test the 2e7-point grid
    parsed = parse_config(path)
    t_del, _ = grid_min_time_to_fidelity(
        parsed.link, parsed.architecture.target_fidelity, k_max=1000
    )
    assert t_del is not None
    assert json.loads(out)["plan"]["min_t_del_us"] == t_del


def test_plan_at_very_long_coherence(tmp_path, capsys):
    """10 T_coh is 10^10 rounds: the search bisects and stays fast."""
    cfg = json.loads(Path(LATTICE).read_text())
    cfg["qubit"] = {"t_coh_us": 1e9}
    path = tmp_path / "very_long.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code, _, err = _run(capsys, "plan", "--config", str(path), "--out", str(tmp_path))
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < 1.0


def test_plan_unattainable_target_exit_2(tmp_path, capsys):
    cfg = json.loads(Path(LATTICE).read_text())
    cfg["architecture"]["target_fidelity"] = 0.99
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(cfg))
    code, _, err = _run(capsys, "plan", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "UnattainableError"
    assert "best f_del" in payload["message"]


def test_plan_credits_distill_rounds(tmp_path, capsys):
    """Two calibrated rounds lift the lattice link's 0.8964 past a target of
    0.95 that no delivery time reaches undistilled."""
    cfg = json.loads(Path(LATTICE).read_text())
    cfg["policy"]["distill_rounds"] = 2
    cfg["architecture"]["target_fidelity"] = 0.95
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "plan", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    plan = doc["plan"]
    assert plan["transducers_per_link"] == 1200
    assert plan["fidelity_at_t_del"] == 0.967254295
    assert plan["fidelity_met"] is True
    assert plan["link_error_below_threshold"] is True
    assert plan["min_t_del_us"] == 5.0
    # the cutting comparison reads the distilled link too: 0.0327 < 0.05 is free
    assert doc["circuit_cut"]["k_quantum"] is None


def _violations_of(capsys, tmp_path, argv):
    """(message, violations) of a rejected command, which writes nothing."""
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, *argv, "--out", str(out_dir))
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert not out_dir.exists()
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    return payload["message"], payload["violations"]


def _plan_error(spec):
    with pytest.raises(ConfigError) as err:
        lattice_surgery_plan(spec, resolve(parse_config(LATTICE).link))
    return str(err.value), err.value.violations


@pytest.mark.parametrize("what, violations, rejected", [
    pytest.param(
        "link config",
        ["policy.n_parallel must be >= 1",
         "policy.t_del_us must be >= transducer.t_rep_us"],
        lambda capsys, tmp_path: _violations_of(capsys, tmp_path, [
            "plan", "--config",
            _edited_config(tmp_path, LATTICE, "policy", t_del_us=0.5, n_parallel=0),
        ]),
        id="link-in-config",
    ),
    pytest.param(
        "architecture spec",
        ["architecture.clock_cycle_us must be > 0",
         "architecture.target_fidelity out of (0.5, 1)"],
        lambda capsys, tmp_path: _violations_of(capsys, tmp_path, [
            "plan", "--config",
            _edited_config(tmp_path, LATTICE, "architecture", clock_cycle_us=0,
                           target_fidelity=1.5),
        ]),
        id="architecture-in-config",
    ),
    pytest.param(
        "architecture spec",
        ["architecture.qubits_per_processor must be >= 1",
         "architecture.target_fidelity out of (0.5, 1)"],
        lambda capsys, tmp_path: _plan_error(ArchitectureSpec(0, 1.0, 10_000, 0.5)),
        id="lattice_surgery_plan",
    ),
])
def test_violation_lists_reach_the_error_the_same_way(
    tmp_path, capsys, what, violations, rejected
):
    """Each list of violations becomes "invalid <what>: v1; v2" with the list."""
    message, got = rejected(capsys, tmp_path)
    assert got == violations
    assert message == f"invalid {what}: " + "; ".join(violations)


def _tradeoff_config(tmp_path, budget=16, **policy):
    cfg = {
        "transducer": "preset:transducer2",
        "qubit": "preset:qubit1",
        "protocol": {"basis": "one_photon", "pump": "tms", "p_mo_override": 0.02},
        "policy": {"t_del_us": 15.0, "n_parallel": 20},
        "architecture": {
            "qubits_per_processor": 1000,
            "clock_cycle_us": 1.0,
            "transducer_budget": budget,
            "target_fidelity": 0.89,
        },
    }
    cfg["policy"].update(policy)
    path = tmp_path / "tradeoff.json"
    path.write_text(json.dumps(cfg))
    return path


def test_tradeoff_csv(tmp_path, capsys):
    path = _tradeoff_config(tmp_path)
    code, out, _ = _run(
        capsys, "tradeoff", "--config", str(path), "--out", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "tradeoff.csv").read_text().splitlines()
    assert out == "\n".join(lines) + "\n"
    assert lines[1] == "n_links,rate_per_us,f_del,n_parallel,distill_rounds,t_del_us"
    assert lines[2] == "16,0.0108695652,0.767253867,1,0,92"
    points = tradeoff_surface(
        16,
        resolve(LinkConfig(
            transducer=preset("transducer2"),
            qubit=preset("qubit1"),
            protocol=ProtocolSpec(
                PhotonBasis.ONE_PHOTON, PumpMode.TMS, p_mo_override=0.02
            ),
            policy=DeliveryPolicy(t_del_us=15.0, n_parallel=20),
        )),
    )
    assert len(lines) == 2 + len(points)


def test_tradeoff_budget_above_cap_exits_1(tmp_path, capsys):
    path = _tradeoff_config(tmp_path, budget=10**9 + 1)
    out_dir = tmp_path / "out"
    code, out, err = _run(
        capsys, "tradeoff", "--config", str(path), "--out", str(out_dir)
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert "architecture.transducer_budget must be <= 1000000000" in err
    assert not out_dir.exists()


def test_tradeoff_json(tmp_path, capsys):
    path = _tradeoff_config(tmp_path)
    code, out, _ = _run(
        capsys, "tradeoff", "--config", str(path), "--out", str(tmp_path),
        "--format", "json",
    )
    assert code == 0
    doc = json.loads((tmp_path / "tradeoff.json").read_text())
    rows = doc["tradeoff"]
    assert rows[0]["n_links"] == 16
    assert rows[0]["t_del_us"] == 92.0
    assert {tuple(sorted(r)) for r in map(dict.keys, rows)} == {
        tuple(sorted(
            ["n_links", "rate_per_us", "f_del", "n_parallel", "distill_rounds", "t_del_us"]
        ))
    }


def _tradeoff_rows(capsys, out_dir, *argv):
    out_dir.mkdir()
    code, _, err = _run(capsys, "tradeoff", *argv, "--out", str(out_dir))
    assert (code, err) == (0, "")
    lines = (out_dir / "tradeoff.csv").read_text().splitlines()[2:]
    return [dict(zip(
        ["n_links", "rate_per_us", "f_del", "n_parallel", "distill_rounds", "t_del_us"],
        map(float, line.split(",")),
    )) for line in lines]


def test_tradeoff_honours_memory_lifetime(tmp_path, capsys):
    cfg = json.loads(Path(EX2).read_text())
    cfg["architecture"] = json.loads(Path(LATTICE).read_text())["architecture"]
    cfg["architecture"]["transducer_budget"] = 64
    path = tmp_path / "ex2_module.json"
    path.write_text(json.dumps(cfg))
    rows = _tradeoff_rows(capsys, tmp_path / "out", "--config", str(path))
    assert rows
    # without the memory, p_her = 0.00113 and the optimum sits at 1424 us
    assert all(r["t_del_us"] <= cfg["memory"]["lifetime_us"] for r in rows)
    # ex2's p_her_reference of 0.03 replaces the formula value 0.02375,
    # whose optimum is 173 us
    assert rows[0]["t_del_us"] == 144.0


def test_tradeoff_k_max_capped_at_memory_lifetime(tmp_path, capsys):
    cfg = json.loads(Path(EX2).read_text())
    cfg["p_her_reference"] = 0.001
    cfg["architecture"] = json.loads(Path(LATTICE).read_text())["architecture"]
    cfg["architecture"]["transducer_budget"] = 1
    path = tmp_path / "ex2_slow.json"
    path.write_text(json.dumps(cfg))
    lifetime = cfg["memory"]["lifetime_us"]
    # this link's optimum, 1527 us, lies past the memory's 1000 us lifetime
    default = _tradeoff_rows(capsys, tmp_path / "default", "--config", str(path))
    explicit = _tradeoff_rows(
        capsys, tmp_path / "explicit", "--config", str(path), "--k-max", "5000"
    )
    assert default == explicit
    assert [r["t_del_us"] for r in explicit] == [lifetime]


def test_plan_and_tradeoff_run_at_any_coherence_time(tmp_path, capsys):
    """Ten coherence times of 1e300 us are past any round count that a float
    holds, so the default search range stops at 2**53 rounds; its optimum is
    the one of 10^6 rounds. An explicit k_max past 2**53 is still refused."""
    cfg = json.loads(Path(LATTICE).read_text())
    cfg["qubit"] = {"t_coh_us": 1e300}
    path = tmp_path / "long_coherence.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "plan", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["plan"]["min_t_del_us"] == 7.0
    rows = _tradeoff_rows(capsys, tmp_path / "default", "--config", str(path))
    assert len(rows) == 370
    assert rows == _tradeoff_rows(
        capsys, tmp_path / "explicit", "--config", str(path), "--k-max", "1000000"
    )
    link = resolve(parse_config(str(path)).link)
    for k_max in (None, 10**6, 2**53):
        assert optimal_delivery_time(link, k_max) == (90.0, 0.921975)
        assert min_time_to_fidelity(link, 0.89, k_max) == 7.0
    code, out, err = _run(
        capsys, "tradeoff", "--config", str(path), "--k-max", str(2**53 + 1),
        "--out", str(tmp_path / "refused"),
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == (
        f"k_max of {2**53 + 1} rounds exceeds {2**53}; pass a smaller k_max"
    )


def test_plan_and_tradeoff_honour_p_her_reference(tmp_path, capsys):
    cfg = json.loads(Path(LATTICE).read_text())
    cfg["architecture"]["transducer_budget"] = 64
    docs = {}
    for ref in (None, 0.03):
        if ref is not None:
            cfg["p_her_reference"] = ref
        path = tmp_path / f"lattice_{ref}.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / f"out_{ref}"
        code, out, err = _run(
            capsys, "plan", "--config", str(path), "--out", str(out_dir)
        )
        assert (code, err) == (0, "")
        plan = _strip_manifest(json.loads(out))["plan"]
        tradeoff = _tradeoff_rows(
            capsys, tmp_path / f"tradeoff_{ref}", "--config", str(path)
        )
        docs[ref] = plan, tradeoff
    # the reference raises p_her from the formula's 0.02, so links herald
    # sooner: the target is met earlier, and at the fixed t_del of 15 us the
    # heralded pairs sit longer in storage
    assert docs[0.03][0]["min_t_del_us"] == 5.0 < docs[None][0]["min_t_del_us"]
    assert docs[0.03][0]["fidelity_at_t_del"] < docs[None][0]["fidelity_at_t_del"]
    assert docs[0.03][1][0]["t_del_us"] < docs[None][1][0]["t_del_us"]


def test_tradeoff_fidelity_model_override(tmp_path, capsys):
    """A config whose policy overrides the thermal-half default."""
    path = str(_tradeoff_config(tmp_path))
    thermal = _tradeoff_rows(capsys, tmp_path / "thermal", "--config", path)
    path = str(_tradeoff_config(tmp_path, fidelity_model="linear_sum"))
    linear = _tradeoff_rows(capsys, tmp_path / "linear", "--config", path)
    assert linear[0]["n_links"] == thermal[0]["n_links"] == 16
    assert linear[0]["f_del"] < thermal[0]["f_del"]


def test_tradeoff_ignores_the_policy_delivery_settings(tmp_path, capsys):
    """tradeoff sweeps widths, distillation rounds and delivery times itself,
    so the policy's distill_rounds, t_del_us and n_parallel leave
    tradeoff.csv below its manifest line byte for byte as it is."""
    bodies = set()
    for i, policy in enumerate([
        {"distill_rounds": 0}, {"distill_rounds": 4}, {"t_del_us": 150.0, "n_parallel": 1},
    ]):
        path = _edited_config(tmp_path, LATTICE, "policy", **policy)
        out_dir = tmp_path / f"out{i}"
        code, _, err = _run(capsys, "tradeoff", "--config", path, "--out", str(out_dir))
        assert (code, err) == (0, "")
        bodies.add((out_dir / "tradeoff.csv").read_bytes().split(b"\n", 1)[1])
    assert len(bodies) == 1


@pytest.mark.parametrize("flag", [["--t-del", "5"], ["--protocol", "2p-tms"],
                                  ["--fidelity-model", "linear"]],
                         ids=["t-del", "protocol", "fidelity-model"])
@pytest.mark.parametrize("command, config", [
    ("analyze", EX1), ("simulate", EX1), ("plan", LATTICE), ("tradeoff", LATTICE),
    ("distill", EX1),
], ids=["analyze", "simulate", "plan", "tradeoff", "distill"])
def test_removed_link_overrides_are_usage_errors(tmp_path, capsys, command, config, flag):
    """Every link value comes from the config file: no flag sets one."""
    out_dir = tmp_path / "out"
    code, out, err = _run(
        capsys, command, "--config", config, *flag, "--out", str(out_dir)
    )
    assert (code, out, err.count("\n")) == (1, "", 1)
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert flag[0] in payload["message"]
    assert not out_dir.exists()


def test_distill_flags_only(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "distill", "--f-in", "0.91", "--rounds", "4", "--out", str(tmp_path)
    )
    assert code == 0
    block = json.loads(out)["distill"]
    assert block["mode"] == "calibrated"
    assert block["f_out"] == 0.991
    assert block["pairs_nominal"] == 16
    assert block["pairs_expected"] == 16.0
    assert block["final_state"] is None

    code, out, _ = _run(
        capsys, "distill", "--f-in", "0.91", "--rounds", "4",
        "--mode", "recurrence", "--out", str(tmp_path),
    )
    block = json.loads(out)["distill"]
    assert block["f_out"] == 0.977546226
    assert block["pairs_expected"] == 21.8735106
    assert len(block["round_success_probabilities"]) == 4
    assert sum(block["final_state"]) == pytest.approx(1.0, abs=1e-8)


def test_distill_defaults_from_config(tmp_path, capsys):
    code, out, _ = _run(capsys, "distill", "--config", EX3, "--out", str(tmp_path))
    assert code == 0
    block = json.loads(out)["distill"]
    assert block["rounds"] == 0
    assert block["f_in"] == pytest.approx(0.89644899, abs=1e-8)
    assert block["f_out"] == block["f_in"]


def test_distill_requires_inputs(tmp_path, capsys):
    code, _, err = _run(capsys, "distill", "--f-in", "0.91", "--out", str(tmp_path))
    assert code == 1
    assert "rounds" in json.loads(err)["message"]


def test_distill_config_excludes_f_in(tmp_path, capsys):
    """--f-in would replace the fidelity of the config's link, so the pair is
    refused."""
    out_dir = tmp_path / "out"
    code, out, err = _run(
        capsys, "distill", "--config", EX1, "--f-in", "0.9", "--rounds", "2",
        "--out", str(out_dir),
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "--f-in" in payload["message"] and "--config" in payload["message"]
    assert not out_dir.exists()


def test_distill_empty_config_path_fails_to_open(tmp_path, capsys):
    """An empty --config is a path like any other."""
    out_dir = tmp_path / "out"
    code, out, err = _run(
        capsys, "distill", "--config", "", "--rounds", "2", "--out", str(out_dir)
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "cannot read config" in payload["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "f_in",
    [pytest.param([f"--f-in={v}"], id=v) for v in ("nan", "inf", "-inf")]
    + [pytest.param(["--f-in", v], id=f"{v}-after-space")
       for v in ("nan", "inf", "-inf")],
)
def test_distill_non_finite_f_in_is_config_error(tmp_path, capsys, f_in):
    """A non-finite --f-in is rejected like a NaN or inf in a config file,
    whether the value follows an "=" or a space."""
    out_dir = tmp_path / "out"
    code, out, err = _run(
        capsys, "distill", *f_in, "--rounds", "2", "--out", str(out_dir)
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "expected a finite number" in payload["message"]
    assert not out_dir.exists()


def test_distill_domain_error_exit_2(tmp_path, capsys):
    code, _, err = _run(
        capsys, "distill", "--f-in", "0.4", "--rounds", "2", "--out", str(tmp_path)
    )
    assert code == 2
    assert json.loads(err)["error"] == "ModelDomainError"


def test_presets_listing(tmp_path, capsys):
    code, out, _ = _run(capsys, "presets", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["transducers"]["transducer1"]["eta_mw"] == 0.8
    assert doc["transducers"]["transducer2"]["eta_tot"] == pytest.approx(0.0475)
    assert doc["qubits"]["qubit1"]["t_coh_us"] == 200.0
    assert "brubaker2022" in doc["devices"]
    assert doc["devices"]["brubaker2022"]["eta_tot"] == 0.38
    assert doc["devices"]["brubaker2022"]["t_rep_us"] == 5000.0


def test_schema_error_pointer_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "transducer": "preset:transducer1",
        "qubit": "preset:qubit1",
        "protocol": {"basis": "one_photon", "pump": "tms"},
        "policy": {"t_del_us": 88.0, "typo_key": 1},
    }))
    code, _, err = _run(capsys, "analyze", "--config", str(bad), "--out", str(tmp_path))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "SchemaError"
    assert payload["pointer"] == "/policy/typo_key"


def test_model_domain_error_carries_offending_sum(tmp_path, capsys):
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({
        "transducer": "preset:transducer1",
        "qubit": "preset:qubit1",
        "protocol": {"basis": "one_photon", "pump": "upconversion", "alpha": 0.05},
        "policy": {"t_del_us": 50.0},
    }))
    # distill given a config resolves its link, as analyze does
    code, _, err = _run(
        capsys, "distill", "--config", str(cfg), "--rounds", "2",
        "--out", str(tmp_path / "distill"),
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ModelDomainError"
    assert payload["offending_sum"] == pytest.approx(1.3, rel=1e-9)
    code, _, err = _run(capsys, "analyze", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ModelDomainError"
    assert payload["offending_sum"] == pytest.approx(1.3, rel=1e-9)


@pytest.mark.parametrize("command, base, sections, artifact, key", [
    ("plan", LATTICE, {"architecture": {"qubits_per_processor": 1000,
                                        "clock_cycle_us": 1e-310,
                                        "transducer_budget": 10000,
                                        "target_fidelity": 0.89}},
     "plan.json", "/plan/speedup"),
    # a link capacity of 1e308 * 0.01 / 1e-3
    ("analyze", EX1, {"transducer": {**vars(preset("transducer1")), "t_rep_us": 1e-3},
                      "qubit": {"t_coh_us": 1e308}, "policy": {"t_del_us": 0.088}},
     "metrics.json", "/metrics/eta_link"),
], ids=["plan-speedup", "analyze-eta_link"])
def test_result_beyond_the_float_range_exits_2(tmp_path, capsys, command, base, sections,
                                                artifact, key):
    """A JSON artifact holds no Infinity: a result that overflows is a
    model-domain error that names the artifact and the key, and nothing is
    written."""
    cfg = {**json.loads(Path(base).read_text()), **sections}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, command, "--config", str(config), "--out", str(out_dir))
    assert (code, out, err.count("\n")) == (2, "", 1)
    payload = json.loads(err)
    assert payload["error"] == "ModelDomainError"
    assert payload["message"].startswith(f"{artifact}: {key} is not finite")
    assert not out_dir.exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert _run(capsys, "frobnicate")[0] == 1
    assert _run(capsys, "analyze")[0] == 1  # --config is required
    code, _, err = _run(capsys, "analyze", "--config", str(tmp_path / "none.json"))
    assert code == 1
    assert "cannot read" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--config", EX1, "--k-max", "0"],
        ["analyze", "--config", EX1, "--k-max", "-5"],
        ["simulate", "--config", EX1, "--trials", "100", "--jobs", "0"],
        ["simulate", "--config", EX1, "--trials", "100", "--jobs", "-3"],
        ["simulate", "--config", EX1, "--trials", "100", "--seed", "-1"],
        ["simulate", "--config", EX1, "--trials", "100", "--seed", str(2**64)],
        ["simulate", "--config", EX1, "--trials", str(10**15)],
    ],
    ids=["k-max-0", "k-max-neg", "jobs-0", "jobs-neg", "seed-neg",
         "seed-2**64", "trials-10**15"],
)
def test_out_of_range_flags_exit_1(tmp_path, capsys, argv):
    code, out, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ConfigError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag, expected",
    [
        (["distill", "--rounds", "2"], "--f-in", (2, "ModelDomainError")),
    ],
    ids=["f-in"],
)
def test_negative_exponent_after_a_space(tmp_path, capsys, argv, flag, expected):
    """-1e5 after a space is the value that --flag=-1e5 gives, not a missing one."""
    spaced = _run(capsys, *argv, flag, "-1e5", "--out", str(tmp_path))
    joined = _run(capsys, *argv, f"{flag}=-1e5", "--out", str(tmp_path))
    assert spaced == joined
    code, out, err = spaced
    assert (code, out, json.loads(err)["error"]) == (expected[0], "", expected[1])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["presets"], ["analyze", "--config", EX1]], ids=["presets", "analyze"]
)
def test_unwritable_out_exits_1(tmp_path, capsys, argv):
    """An --out below a regular file is one JSON error line, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, out, err = _run(capsys, *argv, "--out", str(blocker / "sub"))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "NotADirectoryError"
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "x"


# What the `translink` console script runs, and then a list of the modules
# that were loaded when main returned, written to the file named first.
_PROCESS_SHIM = (
    "import sys; from translink.cli import main; code = main(sys.argv[2:]); "
    "open(sys.argv[1], 'w').write('\\n'.join(sorted(sys.modules))); sys.exit(code)"
)
_CREATED = re.compile(rb'"created_utc": "[^"]*"')


def test_simulate_as_a_process(tmp_path, capsys, monkeypatch):
    """A fresh interpreter runs one job without a thread pool, and the
    exit-time freeze loses no output: stdout is the artifact, which matches
    an in-process run's."""
    argv = ["simulate", "--config", EX1, "--trials", "5000", "--seed", "3",
            "--jobs", "1", "--out", "out"]
    process_dir, local_dir = tmp_path / "process", tmp_path / "local"
    process_dir.mkdir()
    local_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    modules = tmp_path / "modules.txt"
    done = subprocess.run(
        [sys.executable, "-c", _PROCESS_SHIM, str(modules), *argv],
        cwd=process_dir, env=env, capture_output=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    loaded = modules.read_text().split()
    assert "translink.mcsim" in loaded
    assert "concurrent.futures" not in loaded
    artifact = (process_dir / "out" / "mcstats.json").read_bytes()
    assert done.stdout == artifact

    monkeypatch.chdir(local_dir)
    assert _run(capsys, *argv)[0] == 0
    local = (local_dir / "out" / "mcstats.json").read_bytes()
    assert _CREATED.sub(b"", artifact) == _CREATED.sub(b"", local)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Imports the modules named on the command line, in order, and loads numpy:
# a numpy that translink.cli deferred loads through cli's own binding, at the
# first attribute read. Then prints the process's task (thread) count and the
# BLAS thread variables it sees.
_TASK_PROBE = (
    "import json, os, sys\n"
    "for name in sys.argv[1:]: __import__(name)\n"
    "if 'translink.cli' in sys.modules: sys.modules['translink.cli'].np.ndarray\n"
    "assert 'numpy._core' in sys.modules\n"
    "print(json.dumps([len(os.listdir('/proc/self/task')), {k: os.environ[k] for k in "
    + repr(_BLAS_THREAD_VARS) + " if k in os.environ}]))"
)
_NEEDS_TASKS = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc/self/task, with 2 or more CPUs",
)


def _fresh_env(**blas_env) -> dict:
    """The environment of a fresh interpreter that imports src/: this one's,
    with none of the BLAS thread variables but `blas_env`."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env.update(blas_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _tasks_after(*modules, **blas_env):
    """(task count, BLAS thread variables) of a fresh interpreter that imported
    `modules` and loaded numpy, started with none of the BLAS thread variables
    but `blas_env`."""
    done = subprocess.run(
        [sys.executable, "-c", _TASK_PROBE, *modules], env=_fresh_env(**blas_env),
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return tuple(json.loads(done.stdout))


@_NEEDS_TASKS
def test_bare_numpy_starts_a_blas_pool():
    """The control: numpy's own import starts BLAS workers beside the main
    thread, which the tests below expect the CLI to avoid."""
    build = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = build.get("blas", {}).get("name") or ""  # numpy >= 1.26 records it
    if "openblas" not in blas.lower():
        pytest.skip(f"no threaded BLAS known: numpy's is {blas!r}")
    tasks, seen = _tasks_after("numpy")
    assert tasks > 1
    assert seen == {}


@_NEEDS_TASKS
def test_cli_import_runs_one_thread_and_leaves_the_environment():
    assert _tasks_after("translink.cli") == (1, {})


@_NEEDS_TASKS
def test_cli_import_keeps_a_users_blas_setting():
    want = _tasks_after("numpy", OPENBLAS_NUM_THREADS="2")
    assert want[1] == {"OPENBLAS_NUM_THREADS": "2"}
    assert _tasks_after("translink.cli", OPENBLAS_NUM_THREADS="2") == want


@_NEEDS_TASKS
def test_cli_import_after_numpy_changes_nothing():
    assert _tasks_after("numpy", "translink.cli") == _tasks_after("numpy")


# `translink` in a fresh interpreter. At exit, --help's included, it writes to
# the file named first whether numpy ran (numpy._core is loaded), its task
# count, and whether OPENBLAS_NUM_THREADS is set.
_LOAD_SHIM = (
    "import atexit, json, os, sys\n"
    "def report():\n"
    "    tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else ()\n"
    "    with open(sys.argv[1], 'w') as f:\n"
    "        json.dump(['numpy._core' in sys.modules, len(tasks),\n"
    "                   'OPENBLAS_NUM_THREADS' in os.environ], f)\n"
    "atexit.register(report)\n"
    "from translink.cli import main; sys.exit(main(sys.argv[2:]))"
)


def _fresh_run(tmp_path, argv):
    """(exit code, stdout, stderr, numpy ran, task count, OPENBLAS_NUM_THREADS
    set) of `translink argv` in a fresh interpreter, started in tmp_path with
    none of the BLAS thread variables."""
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, "-c", _LOAD_SHIM, str(report), *argv],
        cwd=tmp_path, env=_fresh_env(), capture_output=True, text=True, timeout=120,
    )
    return (done.returncode, done.stdout, done.stderr, *json.loads(report.read_text()))


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of cli.main(argv), --help's SystemExit included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    (["presets"], 0),
    (["distill", "--f-in", "0.91", "--rounds", "4"], 0),
    (["--help"], 0),
    (["presets", "--no-such-flag"], 1),
    (["analyze", "--config", "unknown_key.json"], 1),
], ids=["presets", "distill-f-in", "help", "unknown-flag", "schema-error"])
def test_commands_without_arrays_never_run_numpy(tmp_path, capsys, monkeypatch, argv, code):
    """A command that builds no array exits as it does in process, with the
    same stdout and stderr, and never executes numpy."""
    monkeypatch.setenv("COLUMNS", "80")  # --help's width, here and in the child
    monkeypatch.chdir(tmp_path)
    cfg = json.loads(Path(EX1).read_text())
    cfg["policy"]["no_such_key"] = 1
    (tmp_path / "unknown_key.json").write_text(json.dumps(cfg))
    fresh_code, out, err, numpy_ran, _, _ = _fresh_run(tmp_path, [*argv, "--out", "out"])
    local_code, local_out, local_err = _in_process(capsys, [*argv, "--out", "out"])
    assert not numpy_ran
    assert fresh_code == local_code == code
    assert _CREATED.sub(b"", out.encode()) == _CREATED.sub(b"", local_out.encode())
    assert err == local_err
    if code:
        assert json.loads(err)["error"] in ("ConfigError", "SchemaError")


@pytest.mark.parametrize("argv, artifact", [
    (["analyze", "--config", EX1], "metrics.json"),
    (["simulate", "--config", EX1, "--trials", "1000"], "mcstats.json"),
    (["distill", "--config", EX1], "distill.json"),
], ids=["analyze", "simulate", "distill-config"])
def test_commands_with_arrays_run_numpy_capped(tmp_path, argv, artifact):
    """A command that builds arrays loads numpy, with OpenBLAS capped at the
    calling thread and the environment left as it was."""
    code, out, err, numpy_ran, tasks, blas_var_left = _fresh_run(
        tmp_path, [*argv, "--out", "out"]
    )
    assert (code, err) == (0, "")
    assert out == (tmp_path / "out" / artifact).read_text()
    assert numpy_ran
    assert not blas_var_left
    if Path("/proc/self/task").is_dir():
        assert tasks == 1


# `translink` in a fresh interpreter that writes to the file named first, at
# exit, whether numpy had loaded at each thread start
_THREAD_SHIM = (
    "import atexit, json, sys, threading\n"
    "loaded_at_start = []\n"
    "start = threading.Thread.start\n"
    "def recorded(self):\n"
    "    loaded_at_start.append('numpy._core' in sys.modules)\n"
    "    start(self)\n"
    "threading.Thread.start = recorded\n"
    "atexit.register(lambda: open(sys.argv[1], 'w').write(json.dumps(loaded_at_start)))\n"
    "from translink.cli import main; sys.exit(main(sys.argv[2:]))"
)


def test_simulate_loads_numpy_before_its_workers(tmp_path):
    """At the round cap, with no --keep-trials, run_trials builds no array
    before its spans, so a deferred numpy would first load in two workers at
    once; Python 3.10 and 3.11's lazy loader has no lock, and one of them
    would read a half-built numpy. The calling thread loads it first."""
    config = _config_file(tmp_path / "cfg.json", EX1, p_her_reference=1e-7, t_del_us=1e7)
    report = tmp_path / "report.json"
    argv = ["simulate", "--config", config, "--trials", "131072", "--jobs", "2"]
    done = subprocess.run(
        [sys.executable, "-c", _THREAD_SHIM, str(report), *argv, "--out", "out"],
        cwd=tmp_path, env=_fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(report.read_text()) == [True]
    assert done.stdout == (tmp_path / "out" / "mcstats.json").read_text()


def test_trial_columns_memory_follows_the_kept_trials(tmp_path):
    """At the 10^7-round cap, trials.csv's columns for 2000 kept trials hold
    no array over the rounds, which as int32 alone is 40 MB."""
    config = _config_file(tmp_path / "cfg.json", EX1, p_her_reference=1e-7, t_del_us=1e7)
    cols = run_trials(resolve(parse_config(config).link), 2000, 21, keep_trials=True).trials
    assert cols.herald_round.max() > 10**6
    tracemalloc.start()
    try:
        cli._trial_columns(cols, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
