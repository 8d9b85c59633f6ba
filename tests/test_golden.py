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
    "analyze-ex2-k200000": ["analyze", "--config", "ex2.json", "--k-max", "200000"],
    "simulate-ex1-keep": [
        "simulate", "--config", "ex1.json", "--trials", "3000", "--seed", "7",
        "--keep-trials",
    ],
    "simulate-ex3-jobs2": [
        "simulate", "--config", "ex3.json", "--trials", "2000", "--seed", "1",
        "--jobs", "2",
    ],
    "plan-lattice": ["plan", "--config", "lattice.json", "--code-distance", "7"],
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
        "6256d31eb42dd16e1d4436dbf62c308beb387ee23925128616632ebb78bbc74c",
    "analyze-ex2":
        "5957c1b20052f349c88278f50601ce6ab1338284da2726e541ca172f02a0b440",
    "analyze-ex3":
        "e0f872848e997eba209c2c87b18285576d9b440fa0bd3e4774b63ca6fcda53eb",
    "analyze-ex2-k200000":
        "a0c65a81fd98b6f969cd708351c91eef0f38a1caa52c999e037fecc5d81124d1",
    "simulate-ex1-keep":
        "ca240468b4c72956666145c134e5b52566be7f73123dc320dc515734092074f3",
    "simulate-ex3-jobs2":
        "a345e2457d3d3360b5099a0f8c5f98f26e5b6d09c06d96e5f5c351dea160d880",
    "plan-lattice":
        "b3b7235673f0915ec484f0bf7aa20de87ee5e021421c4915056578ed3b328f8a",
    "tradeoff-csv":
        "c369b382457d64f4a2299ee4ac48ddb5058082142c3ad2744d4eb4848606d000",
    "tradeoff-json":
        "ef35611c4e041d985a90c51d3b4c38a0a53fb04d650019ab60fabb704f72413a",
    "distill-config":
        "7609de50fc242c862153ee98cf5110366d7d3a16d8c16fe24833f2769716b368",
    "distill-flags":
        "ed07e7eb53a900bca2c38216919df93097a6bfdce8b25696af4268024a074647",
    "presets":
        "f9fc829aded1b332032d64ceca0655f4e7032dce21abb59b994debde4d650c8f",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in ("ex1.json", "ex2.json", "ex3.json", "lattice.json"):
        shutil.copy(EXAMPLES / name, tmp_path / name)
    small = json.loads((EXAMPLES / "lattice.json").read_text())
    small["architecture"]["transducer_budget"] = 64
    (tmp_path / "lattice64.json").write_text(json.dumps(small))
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
