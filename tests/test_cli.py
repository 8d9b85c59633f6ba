"""End-to-end CLI behavior: artifacts, stdout/stderr contracts, exit codes."""

import json
import math
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from translink import cli
from translink import (
    DeliveryPolicy,
    LinkConfig,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    delivered_fidelity,
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
    code, out, _ = _run(
        capsys, "analyze", "--config", EX1, "--out", str(tmp_path),
        "--fidelity-model", "linear",
    )
    assert code == 0
    assert json.loads(out)["metrics"]["f_her"] == pytest.approx(0.664)


def test_analyze_t_del_override(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "analyze", "--config", EX1, "--out", str(tmp_path), "--t-del", "44",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["resolved_config"]["policy"]["t_del_us"] == 44.0
    assert doc["metrics"]["p_success"] == pytest.approx(1 - 0.99**44, rel=1e-8)


def test_protocol_override_drops_alpha(tmp_path, capsys):
    cfg = {
        "transducer": "preset:transducer1",
        "qubit": "preset:qubit1",
        "protocol": {"basis": "one_photon", "pump": "upconversion", "alpha": 0.1},
        "policy": {"t_del_us": 50.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(
        capsys, "analyze", "--config", str(path), "--out", str(tmp_path),
        "--protocol", "2p-tms",
    )
    assert code == 0
    resolved = json.loads(out)["manifest"]["resolved_config"]
    assert resolved["protocol"]["basis"] == "two_photon"
    assert "alpha" not in resolved["protocol"]


def test_protocol_override_requiring_alpha_fails(tmp_path, capsys):
    code, _, err = _run(
        capsys, "analyze", "--config", EX1, "--out", str(tmp_path),
        "--protocol", "1p-upconv",
    )
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert any("alpha" in v for v in payload["violations"])


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
    cfg["qubit"] = {"t1_us": 1e6, "t2_us": 1e6}
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


def test_plan_without_architecture_fails(tmp_path, capsys):
    code, _, err = _run(capsys, "plan", "--config", EX1, "--out", str(tmp_path))
    assert code == 1
    assert "architecture" in json.loads(err)["message"]


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
    assert "no link sections" in json.loads(err)["message"]
    assert not out_dir.exists()


def test_analyze_long_coherence_default_grid(tmp_path, capsys):
    # 10 T_coh is 2e7 rounds, past MAX_GRID_POINTS, but the default curve
    # needs only 1000 of them; plan, which searches all 2e7, still exits 1
    cfg = json.loads(Path(LATTICE).read_text())
    cfg["qubit"] = {"t1_us": 1e5, "t2_us": 2e6}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cfg))
    code, _, err = _run(capsys, "analyze", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    lines = (tmp_path / "delivery_curve.csv").read_text().splitlines()
    assert len(lines) == 2 + 1000
    code, _, err = _run(capsys, "plan", "--config", str(path), "--out", str(tmp_path))
    assert code == 1
    assert "exceeds" in json.loads(err)["message"]


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


def _tradeoff_config(tmp_path, budget=16):
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
    path = str(_tradeoff_config(tmp_path))
    thermal = _tradeoff_rows(capsys, tmp_path / "thermal", "--config", path)
    linear = _tradeoff_rows(
        capsys, tmp_path / "linear", "--config", path, "--fidelity-model", "linear"
    )
    assert linear[0]["n_links"] == thermal[0]["n_links"] == 16
    assert linear[0]["f_del"] < thermal[0]["f_del"]


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
    code, _, err = _run(capsys, "analyze", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ModelDomainError"
    assert payload["offending_sum"] == pytest.approx(1.3, rel=1e-9)


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
        ["analyze", "--config", EX1, "--t-del", "inf"],
        ["simulate", "--config", EX1, "--trials", "100", "--jobs", "0"],
        ["simulate", "--config", EX1, "--trials", "100", "--jobs", "-3"],
        ["simulate", "--config", EX1, "--trials", "100", "--seed", "-1"],
        ["simulate", "--config", EX1, "--trials", "100", "--seed", str(2**64)],
        ["simulate", "--config", EX1, "--trials", str(10**15)],
    ],
    ids=["k-max-0", "k-max-neg", "t-del-inf", "jobs-0", "jobs-neg", "seed-neg",
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
