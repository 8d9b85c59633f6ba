"""Strict config parsing, resolved-config round-trips, artifact emission."""

import json
import math
import os
import re
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from translink import (
    ArchitectureSpec,
    ConfigError,
    DeliveryPolicy,
    FidelityModel,
    MemoryKind,
    MemoryParams,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    SchemaError,
    StorageQubitParams,
    TOOL_VERSION,
    TransducerParams,
    build_manifest,
    emit_csv,
    emit_json,
    parse_config,
    parse_config_data,
    resolved_config,
)
from translink import config_io

ROOT = Path(__file__).resolve().parents[1]
# repo-relative, so the parametrized test IDs do not depend on the checkout
EXAMPLES = ("examples/ex1.json", "examples/ex2.json", "examples/ex3.json")


def _base_data():
    return {
        "transducer": "preset:transducer1",
        "qubit": "preset:qubit1",
        "protocol": {"basis": "one_photon", "pump": "tms"},
        "policy": {"t_del_us": 88.0},
    }


def test_parse_shipped_examples():
    p1 = parse_config(ROOT / "examples/ex1.json")
    assert p1.link.transducer.name == "transducer1"
    assert p1.link.protocol.basis is PhotonBasis.ONE_PHOTON
    assert p1.link.protocol.pump is PumpMode.TMS
    assert p1.link.policy.t_del_us == 88.0
    assert p1.architecture is None
    assert p1.p_her_reference is None

    p2 = parse_config(ROOT / "examples/ex2.json")
    assert p2.link.memory.kind is MemoryKind.SPIN_CAVITY
    assert p2.p_her_reference == 0.03

    p3 = parse_config(ROOT / "examples/ex3.json")
    assert p3.link.protocol.p_mo_override == 0.02
    assert p3.link.policy.n_parallel == 20

    plan = parse_config(ROOT / "examples/lattice.json")
    assert plan.architecture.qubits_per_processor == 1000
    assert plan.architecture.target_fidelity == 0.89


def test_readme_configuration_sample_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    sample = section.split("```json", 1)[1].split("```", 1)[0]
    parsed = parse_config_data(json.loads(sample))
    assert parsed.link.memory.kind is MemoryKind.SPIN_CAVITY
    assert parsed.architecture is not None
    assert parsed.p_her_reference == 0.03


def test_readme_names_every_config_field():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    for cls in (TransducerParams, StorageQubitParams, ProtocolSpec, MemoryParams,
                DeliveryPolicy, ArchitectureSpec):
        for f in fields(cls):
            assert f"`{f.name}`" in section, f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize(
    "path", EXAMPLES + ("examples/lattice.json",)
)
def test_resolved_config_round_trips(path):
    parsed = parse_config(ROOT / path)
    resolved = resolved_config(parsed)
    assert parse_config_data(resolved) == parsed
    # and the resolved form is a fixed point
    assert resolved_config(parse_config_data(resolved)) == resolved


def test_round_trip_synthetic_full_config():
    data = {
        "transducer": {
            "name": "bench",
            "eta_mw": 0.9,
            "p_mo": 0.04,
            "eta_det": 0.6,
            "n_th": 0.02,
            "t_rep_us": 0.5,
            "bandwidth_mhz": 2.5,
        },
        "qubit": {"t1_us": 300.0, "t2_us": 120.0, "t_coh_us": 150.0},
        "protocol": {"basis": "two_photon", "pump": "tms"},
        "memory": {"kind": "catch_release", "eta_mem": 0.8, "lifetime_us": 500.0},
        "policy": {
            "t_del_us": 40.0,
            "n_parallel": 4,
            "distill_rounds": 2,
            "fidelity_model": "linear_sum",
        },
        "architecture": {
            "qubits_per_processor": 500,
            "clock_cycle_us": 2.0,
            "transducer_budget": 2000,
            "target_fidelity": 0.8,
            "architecture": "lattice_surgery",
        },
        "p_her_reference": 0.01,
    }
    parsed = parse_config_data(data)
    assert parsed.link.qubit.t_coh_us == 150.0
    assert parsed.link.policy.fidelity_model is FidelityModel.LINEAR_SUM
    assert parse_config_data(resolved_config(parsed)) == parsed
    # lattice surgery is the only architecture that the planner computes
    for kind in ("sparse_links", "graph_state"):
        data["architecture"]["architecture"] = kind
        with pytest.raises(SchemaError) as err:
            parse_config_data(data)
        assert err.value.pointer == "/architecture/architecture"


def test_unknown_keys_rejected_with_pointer():
    for section, pointer in (
        ("transducer", "/transducer/bogus"),
        ("protocol", "/protocol/bogus"),
        ("policy", "/policy/bogus"),
    ):
        data = _base_data()
        data[section] = dict(
            data[section] if isinstance(data[section], dict) else {}
        )
        if section == "transducer":
            data[section] = {
                "eta_mw": 0.8, "p_mo": 0.01, "eta_det": 0.5,
                "n_th": 0.1, "t_rep_us": 1.0, "bogus": 1,
            }
        else:
            data[section]["bogus"] = 1
            if section == "protocol":
                data[section] = {"basis": "one_photon", "pump": "tms", "bogus": 1}
        with pytest.raises(SchemaError) as err:
            parse_config_data(data)
        assert err.value.pointer == pointer

    with pytest.raises(SchemaError) as err:
        parse_config_data({**_base_data(), "weird": 1})
    assert err.value.pointer == "/weird"


def test_missing_required_key():
    data = _base_data()
    data["transducer"] = {
        "eta_mw": 0.8, "p_mo": 0.01, "eta_det": 0.5, "t_rep_us": 1.0
    }
    with pytest.raises(SchemaError) as err:
        parse_config_data(data)
    assert err.value.pointer == "/transducer"
    assert "n_th" in str(err.value)


def test_preset_expansion_errors():
    data = _base_data()
    data["transducer"] = "preset:qubit1"
    with pytest.raises(SchemaError) as err:
        parse_config_data(data)
    assert "not a transducer" in str(err.value)

    data["transducer"] = "preset:nope"
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert "nope" in str(err.value)

    data["transducer"] = "transducer1"  # missing the preset: prefix
    with pytest.raises(SchemaError):
        parse_config_data(data)


def test_incomplete_link_rejected():
    with pytest.raises(SchemaError) as err:
        parse_config_data({"transducer": "preset:transducer1", "qubit": "preset:qubit1"})
    assert err.value.pointer == "/"
    assert "protocol" in str(err.value) and "policy" in str(err.value)


def test_memory_requires_link():
    data = {
        "memory": {"kind": "spin_cavity", "eta_mem": 1.0, "lifetime_us": 100.0},
        "architecture": {
            "qubits_per_processor": 100,
            "clock_cycle_us": 1.0,
            "transducer_budget": 100,
            "target_fidelity": 0.9,
        },
    }
    with pytest.raises(SchemaError) as err:
        parse_config_data(data)
    assert err.value.pointer == "/memory"


def test_empty_config_rejected():
    with pytest.raises(SchemaError) as err:
        parse_config_data({})
    assert err.value.pointer == "/"


def test_p_her_reference_bounds():
    for bad in (0.0, -0.5, 1.0001, "0.5", True):
        with pytest.raises(SchemaError):
            parse_config_data({**_base_data(), "p_her_reference": bad})
    ok = parse_config_data({**_base_data(), "p_her_reference": 1.0})
    assert ok.p_her_reference == 1.0


def test_type_strictness():
    data = _base_data()
    data["policy"] = {"t_del_us": 88.0, "n_parallel": 2.0}
    with pytest.raises(SchemaError) as err:
        parse_config_data(data)
    assert err.value.pointer == "/policy/n_parallel"

    data["policy"] = {"t_del_us": True}
    with pytest.raises(SchemaError):
        parse_config_data(data)

    data["policy"] = {"t_del_us": math.nan}
    with pytest.raises(SchemaError):
        parse_config_data(data)

    data["policy"] = {"t_del_us": 88.0, "fidelity_model": "fancy"}
    with pytest.raises(SchemaError) as err:
        parse_config_data(data)
    assert "linear_sum" in str(err.value) and "thermal_half" in str(err.value)

    # a number where an enum's string value belongs
    data = _base_data()
    data["protocol"] = {**data["protocol"], "basis": 5}
    with pytest.raises(SchemaError) as err:
        parse_config_data(data)
    assert err.value.pointer == "/protocol/basis"


def test_semantic_violations_surface_as_config_error():
    data = _base_data()
    data["transducer"] = {
        "eta_mw": 1.2, "p_mo": 0.01, "eta_det": 0.5, "n_th": 0.1, "t_rep_us": 1.0
    }
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert any("eta_mw" in v for v in err.value.violations)


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(tmp_path / "missing.json")
    assert "cannot read" in str(err.value)

    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(SchemaError) as err:
        parse_config(empty)
    assert "empty" in str(err.value)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError) as err:
        parse_config(bad)
    assert "invalid JSON" in str(err.value)

    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]")
    with pytest.raises(SchemaError):
        parse_config(toplevel)


def test_config_file_round_trip_via_emit(tmp_path):
    parsed = parse_config(ROOT / "examples/ex2.json")
    manifest = build_manifest("translink analyze", resolved_config(parsed), seed=None)
    out = tmp_path / "resolved.json"
    emit_json(out, resolved_config(parsed), manifest)
    reread = json.loads(out.read_text())
    reread.pop("manifest")
    assert parse_config_data(reread) == parsed


def test_manifest_shape():
    m = build_manifest("translink analyze --config x.json", {"a": 1}, seed=9)
    d = asdict(m)
    assert list(d) == ["tool_version", "command", "seed", "created_utc", "resolved_config"]
    assert d["tool_version"] == TOOL_VERSION
    assert d["seed"] == 9
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", d["created_utc"])
    assert build_manifest("c", {}).seed is None


def test_emit_json_rounds_floats(tmp_path):
    manifest = build_manifest("cmd", {"pi": math.pi})
    path = tmp_path / "out.json"
    text = emit_json(path, {"third": 1 / 3, "flag": True, "n": 3}, manifest)
    assert text == path.read_text()
    doc = json.loads(text)
    assert doc["third"] == 0.333333333
    assert doc["flag"] is True
    assert doc["n"] == 3
    assert doc["manifest"]["resolved_config"]["pi"] == 3.14159265
    assert list(doc)[0] == "manifest"


# Rows per formatting block in emit_csv; the lengths below straddle it.
BLOCK = config_io._CSV_BLOCK
SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308,
    0.1 + 0.2, 1 / 3, 2.0, 1234567891.0, 0.9999332549974261,
]


def _oracle_csv(columns, manifest_line):
    """The CSV text of `columns`, one cell at a time: floats via format(x, ".9g")."""
    cells = [
        [format(float(v), ".9g") if isinstance(v, (float, np.floating)) else str(v)
         for v in column]
        for column in columns.values()
    ]
    lines = [manifest_line, ",".join(columns)]
    lines += [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _check_against_oracle(tmp_path, columns):
    manifest = build_manifest("cmd", {"x": 1 / 3})
    path = tmp_path / "out.csv"
    text = emit_csv(path, columns, manifest)
    assert path.read_text() == text
    assert text == _oracle_csv(columns, text.splitlines()[0])
    return text


def test_emit_csv_format(tmp_path):
    manifest = build_manifest("cmd", {})
    path = tmp_path / "out.csv"
    text = emit_csv(
        path,
        {
            "a": np.array([1, 2]),
            "b": np.array([1 / 3, 0.5]),
            "c": np.array(["x", ""], dtype=object),
        },
        manifest,
    )
    lines = text.splitlines()
    assert lines[0].startswith("# manifest: {")
    assert lines[1] == "a,b,c"
    assert lines[2] == "1,0.333333333,x"
    assert lines[3] == "2,0.5,"
    assert path.read_text() == text

    with pytest.raises(ValueError):
        emit_csv(path, {"a": [1.0, 2.0], "b": [1.0]}, manifest)


def test_format_float_nine_digits(tmp_path):
    # nine significant digits, shortest form, exponent past 1e9
    text = emit_csv(tmp_path / "out.csv", {"x": SPECIAL_FLOATS}, build_manifest("cmd", {}))
    assert text.splitlines()[2:] == [
        "0", "-0", "inf", "-inf", "nan", "4.94065646e-324", "-4.94065646e-324",
        "1.79769313e+308", "-1.79769313e+308",
        "0.3", "0.333333333", "2", "1.23456789e+09", "0.999933255",
    ]


@pytest.mark.parametrize(
    "n_rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
)
def test_emit_csv_block_boundaries(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 301, n_rows)
    floats[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n_rows]
    ints = rng.integers(-(2**62), 2**62, n_rows)
    cells = ints.astype(object)
    cells[::3] = ""
    text = _check_against_oracle(
        tmp_path, {"f": floats, "i": ints, "o": cells, "g": floats[::-1].copy()}
    )
    assert text.count("\n") == n_rows + 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**64 - 1).map(
                lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
            ),
            st.integers(-(2**63), 2**63 - 1),
            st.one_of(st.just(""), st.integers(0, 10**4)),
        ),
        max_size=3 * BLOCK,
    )
)
def test_emit_csv_matches_per_cell_oracle(tmp_path_factory, rows):
    floats, ints, cells = zip(*rows) if rows else ((), (), ())
    columns = {
        "f": np.array(floats, dtype=float),
        "i": np.array(ints, dtype=np.int64),
        "o": np.array(cells, dtype=object),
    }
    _check_against_oracle(tmp_path_factory.mktemp("csv"), columns)


def test_emit_failure_leaves_no_artifact(tmp_path, monkeypatch):
    manifest = build_manifest("cmd", {})
    target = tmp_path / "artifact.json"

    with pytest.raises(TypeError):
        emit_json(target, {"bad": object()}, manifest)
    assert not target.exists()

    def boom(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        emit_json(target, {"ok": 1}, manifest)
    monkeypatch.undo()
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # temp file cleaned up


def test_emit_creates_directories(tmp_path):
    nested = tmp_path / "a" / "b" / "out.json"
    emit_json(nested, {"x": 1}, build_manifest("cmd", {}))
    assert nested.exists()
