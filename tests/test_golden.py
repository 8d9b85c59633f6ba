"""Golden output of the six subcommands on the shipped examples.

Each command runs in process from a scratch directory that holds copies of
the example configs, so the command line recorded in every manifest is the
same on every checkout. The digest covers the exit code, stdout, stderr and
every artifact, with the manifest's `created_utc` masked. The constants were
taken from the code before the config schema became declarative, except the
two `simulate` ones, and `analyze-ex2-k200000`, taken before emit_csv began
to format runs of equal cells once: its 2x10^5-row grid pins the long flat
tail that it writes. The `simulate` ones were taken when Monte Carlo trials
became two inversion draws each, and again when the herald histogram became
sparse (the rounds that heralded and their counts); the retake left
`trials.csv` byte for byte as it was. `presets` was retaken when the
transducers lost their two unread fields, `bandwidth_mhz` and
`eta_per_uw`: its only change is their two `null` keys per transducer.

Every constant but `distill-flags`, whose resolved config is empty, was
retaken when the storage qubit lost `t1_us` and `t2_us`, which no model
read, and kept `t_coh_us` as its one field. The stdout and artifacts of
the code before that change, with their `t1_us` and `t2_us` entries
deleted, hash to the new constants: the qubit objects in the manifests and
in `presets.json` are the only change.

`analyze-ex3-k200000` was taken from the code before the delivery grid
began to write the powers that underflow as +0.0 without calling pow. Its
grid reaches both zero tails, r^k from k = 1844 and d^k from k = 149026;
ex2's d = 0.9996 never underflows within 2x10^5 rounds, so
`analyze-ex2-k200000` pins only the r^k one.

The five `analyze` constants were retaken when the delivery model moved to
log space and the breakdown began to read S from the evaluator instead of
recovering it from f_del. Their one changed cell is row one's
`decoherence` in `infidelity_breakdown.csv`, which became `0`: at
t_del = t_rep nothing is stored, and the recovery printed rounding noise
of about 5e-17 there. Every other byte is as it was.

`analyze-ex2`, `analyze-ex3` and their two `--k-max 200000` constants were
retaken again when the breakdown began to form `fallback` as gain r^k =
gain e^(k a), from the evaluator's own a, instead of gain (1 - p_success).
Only `fallback` cells of `infidelity_breakdown.csv` moved: 420 on ex2 (from
k = 455) and 957 on ex3 (from k = 44) on the default grids, and 23847 and
1798 on the 2x10^5-round ones. 1 - p_success had lost their digits once
r^k fell below about 1e-7, and printed 0 below about 1e-16; ex3's row 1000
went from `0` to `1.40216968e-176`. `analyze-ex1`, `metrics.json` and
`delivery_curve.csv` did not move.

`analyze-ex1-k200000` was taken from the code before emit_csv began to
classify each float column of a block by its min and max and to build
blocks of one-text and whole-number columns as bytes. Its `fallback`
decays through 18 blocks of distinct values before the flat tail, so it
pins the third artifact set of the analytic sweep next to ex2's and ex3's.

`plan-lattice` was retaken when the plan report lost
`qubits_communication`, which always equalled `total_transducers`. The
stdout and `plan.json` of the code before that change, with that key's line
deleted, hash to the new constant.

`plan-lattice-distill2` was taken when `plan` began to credit the
distillation rounds that it charges for: two calibrated rounds lift the
lattice link past a 0.95 target, which the code before that change found
unattainable (exit 2).
"""

import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from translink import cli

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
_CREATED = re.compile(r'"created_utc": "[^"]*"')

COMMANDS = {
    "analyze-ex1": ["analyze", "--config", "ex1.json"],
    "analyze-ex2": ["analyze", "--config", "ex2.json"],
    "analyze-ex3": ["analyze", "--config", "ex3.json"],
    "analyze-ex1-k200000": ["analyze", "--config", "ex1.json", "--k-max", "200000"],
    "analyze-ex2-k200000": ["analyze", "--config", "ex2.json", "--k-max", "200000"],
    "analyze-ex3-k200000": ["analyze", "--config", "ex3.json", "--k-max", "200000"],
    "simulate-ex1-keep": [
        "simulate", "--config", "ex1.json", "--trials", "3000", "--seed", "7",
        "--keep-trials",
    ],
    "simulate-ex3-jobs2": [
        "simulate", "--config", "ex3.json", "--trials", "2000", "--seed", "1",
        "--jobs", "2",
    ],
    "plan-lattice": ["plan", "--config", "lattice.json", "--code-distance", "7"],
    "plan-lattice-distill2": ["plan", "--config", "lattice_distill2.json"],
    "tradeoff-csv": ["tradeoff", "--config", "lattice64.json", "--format", "csv"],
    "tradeoff-json": ["tradeoff", "--config", "lattice64.json", "--format", "json"],
    "distill-config": [
        "distill", "--config", "ex2.json", "--mode", "recurrence", "--rounds", "3",
    ],
    "distill-flags": ["distill", "--mode", "calibrated", "--f-in", "0.91",
                      "--rounds", "4"],
    "presets": ["presets"],
}

GOLDEN = {
    "analyze-ex1":
        "ac6ba1b8d89dfaaf3d255e65490cdd6550a228a454094524c7be01f69fa136f5",
    "analyze-ex2":
        "cb00b54d1c647083ea0f2e9ee8e00ad1af0cf39ad354ac2300264c6d2c37b727",
    "analyze-ex3":
        "7bdcb3f2537b3be7032744bfc3c63affe59e9aedd6cca5366515ac1276ac3929",
    "analyze-ex1-k200000":
        "4a61db683770cc995bc2d8571dad6cbc9689b3243a7200b41d4c26c259c70632",
    "analyze-ex2-k200000":
        "cae1b7786e8e562729004c4c386e0216be96aaa41e51eb1c88559e91be0f73a2",
    "analyze-ex3-k200000":
        "de3a7d26a03b42f5d2642323d8da6d1096a191ba883a5b55869b0dd68a03d72c",
    "simulate-ex1-keep":
        "889abeef26a3867fea48880b77bac1e3a3b8f4a8c36112a43c24465864074bf0",
    "simulate-ex3-jobs2":
        "d87fdb3df9a41e790154f738a4a4e9a8186ef4c766eab8f2d91a4e0fa83c858f",
    "plan-lattice":
        "00447cd3d049bba93c82bb887d4ca323145f73c577d1808858b592eeb392148f",
    "plan-lattice-distill2":
        "9561028e8bc0aa3918e468aba9daff10d0b07a2879f28ab9c441d184aa12f267",
    "tradeoff-csv":
        "a8e582949ebb3c70e9c25392c473fbb3e926f04f62921714cbd66361b2640b0b",
    "tradeoff-json":
        "c75d9bb9e1752a0031b21812c0e86fbe87c212af78502a76296a0dd93abd5368",
    "distill-config":
        "9db8a691343248aafb4512d3887ea325403c9dc699eef777486e1f2ccb87aafb",
    "distill-flags":
        "ed07e7eb53a900bca2c38216919df93097a6bfdce8b25696af4268024a074647",
    "presets":
        "788d25bd002b93623b15319ee087a7768777ec635f692ca080ce9aef258ce2c9",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in ("ex1.json", "ex2.json", "ex3.json", "lattice.json"):
        shutil.copy(EXAMPLES / name, tmp_path / name)
    small = json.loads((EXAMPLES / "lattice.json").read_text())
    small["architecture"]["transducer_budget"] = 64
    (tmp_path / "lattice64.json").write_text(json.dumps(small))
    distilled = json.loads((EXAMPLES / "lattice.json").read_text())
    distilled["policy"]["distill_rounds"] = 2
    distilled["architecture"]["target_fidelity"] = 0.95
    (tmp_path / "lattice_distill2.json").write_text(json.dumps(distilled))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", list(COMMANDS))
def test_golden_output(workdir, capsys, name):
    code = cli.main(COMMANDS[name] + ["--out", "out"])
    captured = capsys.readouterr()
    digest = hashlib.sha256()
    digest.update(f"{code}\0{captured.err}\0".encode())
    digest.update(_CREATED.sub('"created_utc": ""', captured.out).encode())
    for path in sorted((workdir / "out").iterdir()):
        text = _CREATED.sub('"created_utc": ""', path.read_text())
        digest.update(f"\0{path.name}\0{text}".encode())
    assert code == 0 and captured.err == ""
    assert digest.hexdigest() == GOLDEN[name]
