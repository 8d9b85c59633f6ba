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
from hypothesis import example, given, settings, strategies as st

from translink import (
    ArchitectureSpec,
    ConfigError,
    DeliveryPolicy,
    FidelityModel,
    MemoryKind,
    ModelDomainError,
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
    resolve,
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
    assert p1.link.p_her_reference is None

    p2 = parse_config(ROOT / "examples/ex2.json")
    assert p2.link.memory.kind is MemoryKind.SPIN_CAVITY
    assert p2.link.p_her_reference == 0.03
    # the link alone resolves to the reference, not the formula's 0.02375
    assert resolve(p2.link).p_her == 0.03

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
    assert parsed.link.p_her_reference == 0.03


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
        },
        "qubit": {"t_coh_us": 150.0},
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
    # the transducer's former informational fields are read by no model
    for key in ("bandwidth_mhz", "eta_per_uw"):
        with pytest.raises(SchemaError) as err:
            parse_config_data({**data, "transducer": {**data["transducer"], key: 2.5}})
        assert err.value.pointer == f"/transducer/{key}"
        assert str(err.value).endswith("unknown key")
    # the qubit's T1 and T2 are read by no model: t_coh_us is its one field
    for key in ("t1_us", "t2_us"):
        with pytest.raises(SchemaError) as err:
            parse_config_data({**data, "qubit": {**data["qubit"], key: 200.0}})
        assert err.value.pointer == f"/qubit/{key}"
        assert str(err.value).endswith("unknown key")
    with pytest.raises(SchemaError) as err:
        parse_config_data({**data, "qubit": {}})
    assert err.value.pointer == "/qubit"
    assert str(err.value).endswith("missing required key 't_coh_us'")
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
    assert err.value.pointer == "/"
    assert "transducer" in str(err.value)


def test_missing_keys_named_in_one_error():
    data = _base_data()
    data["transducer"] = {"eta_mw": 0.8, "p_mo": 0.01, "eta_det": 0.5}
    with pytest.raises(SchemaError) as err:
        parse_config_data(data)
    assert err.value.pointer == "/transducer"
    assert str(err.value).endswith("missing required keys 'n_th', 't_rep_us'")


def test_resolved_config_follows_link_field_order():
    # given in the reverse order, written back in LinkConfig's field order
    data = {
        "p_her_reference": 0.01,
        "architecture": {
            "qubits_per_processor": 500,
            "clock_cycle_us": 2.0,
            "transducer_budget": 2000,
            "target_fidelity": 0.8,
        },
        "policy": {"t_del_us": 40.0},
        "memory": {"kind": "catch_release", "eta_mem": 0.8, "lifetime_us": 500.0},
        "protocol": {"basis": "two_photon", "pump": "tms"},
        "qubit": "preset:qubit1",
        "transducer": "preset:transducer1",
    }
    assert list(resolved_config(parse_config_data(data))) == [
        "transducer", "qubit", "protocol", "memory", "policy",
        "p_her_reference", "architecture",
    ]


def test_link_violations_in_section_order():
    data = _base_data()
    data["protocol"] = {"basis": "two_photon", "pump": "upconversion"}
    data["policy"] = {"t_del_us": 88.0, "n_parallel": 0}
    data["memory"] = {"kind": "spin_cavity", "eta_mem": 2.0, "lifetime_us": 100.0}
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert err.value.violations == [
        "memory.eta_mem out of [0, 1]", "policy.n_parallel must be >= 1"
    ]


def test_empty_config_rejected():
    with pytest.raises(SchemaError) as err:
        parse_config_data({})
    assert err.value.pointer == "/"


def test_p_her_reference_bounds():
    # a number out of range breaks the link's declared range, as any field's does
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(ConfigError) as err:
            parse_config_data({**_base_data(), "p_her_reference": bad})
        assert not isinstance(err.value, SchemaError)
        assert err.value.violations == ["p_her_reference out of (0, 1]"]
    for bad in ("0.5", True):
        with pytest.raises(SchemaError):
            parse_config_data({**_base_data(), "p_her_reference": bad})
    ok = parse_config_data({**_base_data(), "p_her_reference": 1.0})
    assert ok.link.p_her_reference == 1.0


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

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"transducer": "preset:transducer\xff"}')
    with pytest.raises(ConfigError) as err:
        parse_config(latin1)
    assert "cannot read" in str(err.value)

    # more digits than int() reads from a string
    long_int = tmp_path / "long_int.json"
    digits = "1" + "0" * 5000
    long_int.write_text(json.dumps(_base_data())[:-1] + f', "p_her_reference": {digits}}}')
    with pytest.raises(SchemaError) as err:
        parse_config(long_int)
    assert "invalid JSON" in str(err.value)


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


def test_emit_json_scalars_and_int_lists(tmp_path):
    """numpy scalars write as their Python values at 9 digits; a list or tuple
    of ints alone writes as an array, and one with a bool or a float in it
    goes cell by cell."""
    payload = {
        "f32": np.float32(0.1), "f64": np.float64(1 / 3), "i64": np.int64(-7),
        "ints": (3, 1, 2**70), "flags": [True, 0], "mixed": [1, 2.123456789012],
    }
    text = emit_json(tmp_path / "out.json", payload, build_manifest("cmd", {}))
    doc = json.loads(text)
    del doc["manifest"]
    assert doc == {
        "f32": 0.100000001, "f64": 0.333333333, "i64": -7,
        "ints": [3, 1, 2**70], "flags": [True, 0], "mixed": [1, 2.12345679],
    }
    assert '"flags": [\n    true,\n    0\n  ]' in text


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.inf)],
                         ids=["inf", "-inf", "nan", "numpy-inf"])
def test_emit_json_refuses_non_finite_floats(tmp_path, value):
    """JSON has no Infinity or NaN: the key is named and nothing is written."""
    payload = {"plan": {"speedup": 1.0, "rows": [0.5, value]}, "flag": True}
    with pytest.raises(ModelDomainError) as err:
        emit_json(tmp_path / "plan.json", payload, build_manifest("cmd", {}))
    assert str(err.value).startswith("plan.json: /plan/rows/1 is not finite")
    with pytest.raises(ModelDomainError, match="^out.csv: /resolved_config/x is"):
        emit_csv(tmp_path / "out.csv", {"x": [value]}, build_manifest("cmd", {"x": value}))
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_emit_csv_blocks_of_literals_only(tmp_path, n_rows):
    """Every float column is one run within each block, so each block's row
    is all literals and the block is that row repeated."""
    def runs(*values):
        return np.repeat(values, BLOCK)[:n_rows]

    text = _check_against_oracle(tmp_path, {
        "a": runs(1 / 3, 2.5, 7.0),
        "b": runs(-0.0, math.nan, 0.0),
        "c": runs(math.inf, 1e-300, -2.0),
    })
    assert text.count("\n") == n_rows + 2


@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_emit_csv_one_varying_column(tmp_path, n_rows):
    """One column varies and the others are literals: each block's cells
    are that column's alone."""
    rng = np.random.default_rng(n_rows)
    text = _check_against_oracle(tmp_path, {
        "flat": np.full(n_rows, 0.5),
        "v": rng.standard_normal(n_rows),
        "zero": np.zeros(n_rows),
    })
    assert text.count("\n") == n_rows + 2


def _straddle(boundary: str) -> tuple[float, float]:
    """The two adjacent doubles on either side of a 9th-digit rounding
    boundary, which print different texts."""
    near = float(boundary)
    for lo in (math.nextafter(near, -math.inf), near):
        hi = math.nextafter(lo, math.inf)
        if format(lo, ".9g") != format(hi, ".9g"):
            return lo, hi
    raise ValueError(f"{boundary} is not a 9th-digit rounding boundary")


def _with(value, at, n_rows, fill):
    """A column of `fill` that holds `value` at row `at`."""
    column = np.full(n_rows, fill)
    column[at] = value
    return column


# Each case is one float column of two blocks, and how many of them are
# built as bytes, alone or beside a whole-number column.
N_KIND = 2 * BLOCK
STEPS = np.arange(N_KIND)
KIND_CASES = {
    # cells that differ in bits but print one text: the plateau is a literal
    "plateau-of-ulps": (0.5 + STEPS * 2.0**-45, 2),
    "negative-plateau-of-ulps": (-(1e-300 + STEPS * 2.0**-1040), 2),
    # min and max one ulp either side of a rounding boundary must not merge
    "straddles-rounding-boundary": (
        np.where(STEPS % 3 == 0, *_straddle("1.000000005")), 0),
    "straddles-at-block-edges": (
        np.resize(_straddle("0.1234567855"), N_KIND), 0),
    # 0.0 and -0.0 compare equal and print 0 and -0
    "zeros-with-one-negative-zero-first": (_with(-0.0, 0, N_KIND, 0.0), 1),
    "zeros-with-one-negative-zero-last": (_with(-0.0, BLOCK - 1, N_KIND, 0.0), 1),
    "negative-zeros-with-one-zero": (_with(0.0, BLOCK // 2, N_KIND, -0.0), 1),
    "zeros-spanning-zero": (np.where(STEPS % 2 == 0, 0.0, -5e-324), 0),
    "zero-plateau": (np.zeros(N_KIND), 2),
    "negative-zero-plateau": (np.full(N_KIND, -0.0), 2),
    # a NaN turns min and max into NaN
    "nan-in-plateau": (_with(math.nan, BLOCK // 3, N_KIND, 0.5), 1),
    "nan-first-in-plateau": (_with(math.nan, 0, N_KIND, -2.5), 1),
    "nan-plateau": (np.full(N_KIND, math.nan), 2),
    "inf-plateau": (np.full(N_KIND, math.inf), 2),
    "inf-with-largest-finite": (_with(1.7976931348623157e308, 7, N_KIND, math.inf), 1),
    "-inf-with-lowest-finite": (_with(-1.7976931348623157e308, 7, N_KIND, -math.inf), 1),
    "inf-and-minus-inf": (np.where(STEPS % 2 == 0, math.inf, -math.inf), 0),
    # whole numbers that change digit count inside a block, and the 1e9 edge
    "digits-4-to-5": (9999.0 - BLOCK // 2 + STEPS, 1),
    "digits-8-to-9": (99999999.0 - BLOCK // 2 + STEPS, 1),
    "digits-up-to-1e9-minus-1": (1e9 - N_KIND + STEPS, 2),
    "digits-across-1e9": (1e9 - BLOCK // 2 + STEPS, 0),
    "digits-0-to-1": (STEPS % 12.0, 0),
    "one-digit-count": (1000.0 + STEPS % 9000, 2),
    "whole-with-negative-zero": (_with(-0.0, 5, N_KIND, 3.0), 1),
    "negative-whole": (-10000.0 - STEPS, 0),
    "negative-whole-across-zero": (STEPS - float(BLOCK), 0),
    "negative-whole-plateau": (np.full(N_KIND, -7.0), 2),
    # float32 cells print the %.9g of their float64 value
    "float32-plateau": (np.full(N_KIND, 0.1, dtype=np.float32), 2),
    "float32-whole": ((1000 + STEPS % 9000).astype(np.float32), 2),
    "float32-varying": (np.float32(0.1) + STEPS.astype(np.float32) * np.float32(1e-7), 0),
}


@pytest.mark.parametrize("case", list(KIND_CASES))
def test_emit_csv_block_kinds_match_per_cell_oracle(tmp_path, monkeypatch, case):
    """Each way a float column's block is classified prints %.9g's text:
    alone, beside a whole-number column, and beside a varying one."""
    column, byte_blocks = KIND_CASES[case]
    calls = []
    byte_rows = config_io._byte_rows
    monkeypatch.setattr(config_io, "_byte_rows",
                        lambda fields, n: calls.append(n) or byte_rows(fields, n))
    for columns, blocks in (
        ({"x": column}, byte_blocks),
        ({"t": 10000.0 + STEPS, "x": column}, byte_blocks),
        ({"x": column, "v": np.linspace(-1, 1, N_KIND), "i": STEPS}, 0),
    ):
        calls.clear()
        _check_against_oracle(tmp_path, columns)
        assert calls == [BLOCK] * blocks


# What run-heavy columns are drawn from: both zeros, NaNs of two bit
# patterns, infinities, whole numbers at and inside the 1e9 edge of the
# whole-number path, and fractions.
RUN_POOL = np.array([
    0.0, -0.0, math.nan, struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0],
    math.inf, -math.inf, 1e9 - 1, -(1e9 - 1), 1e9, -1e9, -7.0, 3.0, 0.5, 1 / 3,
])


@settings(max_examples=80, deadline=None)
@given(
    n_rows=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    | st.integers(0, 3 * BLOCK),
    specs=st.lists(
        st.tuples(
            st.lists(st.integers(0, len(RUN_POOL) - 1), min_size=1, max_size=4),
            st.sampled_from([0.0, 0.99, 1.0]),
            st.sampled_from([np.float64, np.float32]),
            st.sampled_from([0, 1, 2**20]),
        ),
        min_size=1,
        max_size=3,
    ),
    max_run=st.sampled_from([1, 3, 64, 2 * BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
# a few pool cells in otherwise fresh whole numbers: the edges of the
# whole-number path (1e9, also float32's rounding of 1e9 - 1, and -0.0)
@example(
    n_rows=BLOCK + 1,
    specs=[([8], 0.99, np.float64, 0), ([9, 7], 0.99, np.float64, 0),
           ([6], 0.99, np.float32, 0), ([1], 0.99, np.float64, 0)],
    max_run=1,
    seed=0,
)
# plateaus whose cells differ in their last bits: 0.5 and 1/3, which print
# one text, and both zeros, whose nudged cells are subnormals of either sign
@example(
    n_rows=2 * BLOCK + 1,
    specs=[([12], 0.0, np.float64, 2**20), ([13], 0.0, np.float64, 2**20),
           ([0, 1], 0.0, np.float64, 1)],
    max_run=2 * BLOCK,
    seed=0,
)
# float32 infinities nudged by one ulp into signalling NaNs
@example(
    n_rows=BLOCK + 1,
    specs=[([4, 5], 0.0, np.float32, 1)],
    max_run=64,
    seed=0,
)
def test_emit_csv_runs_match_per_cell_oracle(tmp_path_factory, n_rows, specs, max_run, seed):
    """Run-heavy, plateau and whole-number columns: every block path prints
    %.9g's text.

    Each run's value comes from the pool, or with probability `fresh` is a
    new whole number below 1e9 in magnitude. Then each cell's bits are
    nudged up by at most `ulps`, so that a long run becomes a plateau whose
    cells differ in bits but mostly print one text, and a nudged infinity
    becomes a NaN, a signalling one among them.
    """
    rng = np.random.default_rng(seed)
    columns = {"i": np.arange(n_rows)}
    for j, (pool, fresh, dtype, ulps) in enumerate(specs):
        heads = np.where(
            rng.random(n_rows) < fresh,
            rng.integers(-(10**9 - 1), 10**9, n_rows),
            RUN_POOL[rng.choice(pool, n_rows)],
        )
        lengths = rng.integers(1, max_run + 1, n_rows)
        column = np.repeat(heads, lengths)[:n_rows].astype(dtype)
        bits = column.view(np.int64 if dtype is np.float64 else np.int32)
        bits += rng.integers(0, ulps + 1, n_rows, dtype=bits.dtype)
        columns[f"f{j}"] = column
    _check_against_oracle(tmp_path_factory.mktemp("csv"), columns)


def test_emit_csv_float32_signalling_nan(tmp_path):
    """A float32 signalling NaN prints nan, and its cast to float64, which
    numpy warns about, does not make emit_csv raise."""
    column = np.array([1, 2, 0], dtype=np.float32)
    column.view(np.uint32)[2] = 0x7F800001
    text = _check_against_oracle(tmp_path, {"x": column})
    assert text.splitlines()[2:] == ["1", "2", "nan"]


def test_emit_csv_needs_a_column(tmp_path):
    with pytest.raises(ValueError, match="no columns"):
        emit_csv(tmp_path / "out.csv", {}, build_manifest("cmd", {}))
    assert list(tmp_path.iterdir()) == []


def _ungrouped(columns):
    """The columns with each dictionary-encoded group written out in full."""
    plain = {}
    for key, column in columns.items():
        if isinstance(key, tuple):
            codes, table = column
            for name, values in zip(key, table):
                plain[name] = np.asarray(values)[np.asarray(codes, dtype=np.intp)]
        else:
            plain[key] = column
    return plain


def _check_groups_against_oracle(tmp_path, columns):
    """emit_csv with groups writes the oracle's text for the written-out columns."""
    manifest = build_manifest("cmd", {"x": 1 / 3})
    path = tmp_path / "out.csv"
    text = emit_csv(path, columns, manifest)
    assert path.read_text() == text
    assert text == _oracle_csv(_ungrouped(columns), text.splitlines()[0])
    return text


def test_emit_csv_group_format(tmp_path):
    codes = np.array([1, 0, 1, 2, 1])
    text = _check_groups_against_oracle(tmp_path, {
        "trial": np.arange(5),
        ("r", "c", "f"): (codes, (
            np.array(["", 1, 4], dtype=object),
            np.array(["", 0, 0], dtype=object),
            np.array([0.5, 1 / 3, 0.25]),
        )),
        ("g",): (codes[::-1], (np.array([7, 8, 9]),)),
    })
    assert text.splitlines()[1:] == [
        "trial,r,c,f,g",
        "0,1,0,0.333333333,8",
        "1,,,0.5,9",
        "2,1,0,0.333333333,8",
        "3,4,0,0.25,7",
        "4,1,0,0.333333333,8",
    ]


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]) | st.integers(0, 3 * BLOCK),
    table_rows=st.integers(1, 2 * BLOCK + 1),
    kinds=st.lists(st.lists(st.sampled_from("fio"), min_size=1, max_size=3),
                   min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_emit_csv_groups_match_per_cell_oracle(tmp_path_factory, n_rows, table_rows, kinds, seed):
    """Groups of float, int and object table columns between plain columns."""
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL_FLOATS + [0.5, -7.0, 1e9])

    def column(kind, n):
        if kind == "f":
            return np.where(rng.random(n) < 0.5, rng.standard_normal(n),
                            pool[rng.integers(0, len(pool), n)])
        ints = rng.integers(-(2**62), 2**62, n)
        if kind == "i":
            return ints
        cells = ints.astype(object)
        cells[rng.random(n) < 0.3] = ""
        return cells

    columns = {"trial": np.arange(n_rows)}
    for j, group in enumerate(kinds):
        names = tuple(f"g{j}{kind}{k}" for k, kind in enumerate(group))
        table = tuple(column(kind, table_rows) for kind in group)
        columns[names] = (rng.integers(0, table_rows, n_rows), table)
        columns[f"p{j}"] = column(group[0], n_rows)
    _check_groups_against_oracle(tmp_path_factory.mktemp("csv"), columns)


def test_emit_csv_group_errors(tmp_path):
    manifest = build_manifest("cmd", {})
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="differ in length"):
        emit_csv(path, {"a": [1, 2], ("b",): ([0, 0, 0], ([5],))}, manifest)
    with pytest.raises(ValueError, match="table columns"):
        emit_csv(path, {("a", "b"): ([0], ([1.0],))}, manifest)
    with pytest.raises(ValueError, match="newline"):
        emit_csv(path, {("a",): ([0, 1], (np.array(["x", "y\nz"], dtype=object),))}, manifest)
    assert not path.exists()


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


def test_emit_csv_failure_mid_stream_leaves_no_artifact(tmp_path, monkeypatch):
    """A block that fails after earlier blocks went out leaves the old file."""
    target = tmp_path / "artifact.csv"
    target.write_text("old\n")
    calls = []
    float_cells = config_io._float_cells

    def fail_on_third_block(block):
        calls.append(len(block))
        if len(calls) == 3:
            raise MemoryError("out of memory")
        return float_cells(block)

    monkeypatch.setattr(config_io, "_float_cells", fail_on_third_block)
    with pytest.raises(MemoryError):
        emit_csv(target, {"x": np.arange(3 * BLOCK) / 7}, build_manifest("cmd", {}))
    assert calls == [BLOCK] * 3
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


def test_emit_creates_directories(tmp_path):
    nested = tmp_path / "a" / "b" / "out.json"
    emit_json(nested, {"x": 1}, build_manifest("cmd", {}))
    assert nested.exists()
