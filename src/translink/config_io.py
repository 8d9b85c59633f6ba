"""JSON config ingestion and artifact emission.

The config file is a single JSON object with sections

    transducer, qubit, protocol, policy   (a link; all four together)
    memory                                 (optional, with the link)
    architecture                           (optional; required for planning)
    p_her_reference                        (optional externally quoted p_her)

The transducer and qubit sections accept "preset:<name>" strings in place
of objects. Parsing is strict: unknown keys are rejected with a JSON-pointer
path, and no invalid file produces a partially usable object.

Every emitted artifact embeds a RunManifest (tool version, command line,
fully resolved config, seed, timestamp); the resolved config parses back to
the identical configuration. Floats are serialized with 9 significant
digits; files are written to a temp name and renamed so failures never leave
partial artifacts.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, SchemaError
from .params import (
    DeliveryPolicy,
    FidelityModel,
    LinkConfig,
    MemoryKind,
    MemoryParams,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    StorageQubitParams,
    TransducerParams,
    preset,
    validate,
)
from .planner import Architecture, ArchitectureSpec, validate_architecture

TOOL_VERSION = "0.1.0"

_PRESET_PREFIX = "preset:"
_LINK_SECTIONS = ("transducer", "qubit", "protocol", "policy")
_TOP_KEYS = set(_LINK_SECTIONS) | {"memory", "architecture", "p_her_reference"}


@dataclass(frozen=True)
class ParsedConfig:
    """Everything a single config file can define."""

    link: LinkConfig | None
    architecture: ArchitectureSpec | None
    p_her_reference: float | None


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record embedded in every artifact."""

    tool_version: str
    command: str
    resolved_config: dict
    seed: int | None
    created_utc: str

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "command": self.command,
            "seed": self.seed,
            "created_utc": self.created_utc,
            "resolved_config": self.resolved_config,
        }


def build_manifest(command: str, resolved_config: dict, seed: int | None = None) -> RunManifest:
    return RunManifest(
        tool_version=TOOL_VERSION,
        command=command,
        resolved_config=resolved_config,
        seed=seed,
        created_utc=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    )


# ---------------------------------------------------------------- parsing


def _check_keys(obj: dict, pointer: str, required: tuple, optional: tuple):
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{pointer}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(pointer, f"missing required key {key!r}")


def _expect_object(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(pointer, "expected an object")
    return value


def _expect_number(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(pointer, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(pointer, "expected a finite number")
    return value


def _expect_int(value, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, "expected an integer")
    return value


def _expect_enum(value, pointer: str, enum_cls):
    if not isinstance(value, str):
        raise SchemaError(pointer, "expected a string")
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(sorted(m.value for m in enum_cls))
        raise SchemaError(pointer, f"must be one of: {valid}") from None


def _maybe_number(obj: dict, key: str, pointer: str) -> float | None:
    if key not in obj:
        return None
    return _expect_number(obj[key], f"{pointer}/{key}")


def _parse_transducer(value, pointer: str) -> TransducerParams:
    if isinstance(value, str):
        if not value.startswith(_PRESET_PREFIX):
            raise SchemaError(pointer, 'expected an object or "preset:<name>"')
        found = preset(value[len(_PRESET_PREFIX):])
        if not isinstance(found, TransducerParams):
            raise SchemaError(
                pointer, f"preset {value[len(_PRESET_PREFIX):]!r} is not a transducer"
            )
        return found
    obj = _expect_object(value, pointer)
    _check_keys(
        obj,
        pointer,
        required=("eta_mw", "p_mo", "eta_det", "n_th", "t_rep_us"),
        optional=("name", "bandwidth_mhz", "eta_per_uw"),
    )
    name = obj.get("name", "custom")
    if not isinstance(name, str):
        raise SchemaError(f"{pointer}/name", "expected a string")
    return TransducerParams(
        name=name,
        eta_mw=_expect_number(obj["eta_mw"], f"{pointer}/eta_mw"),
        p_mo=_expect_number(obj["p_mo"], f"{pointer}/p_mo"),
        eta_det=_expect_number(obj["eta_det"], f"{pointer}/eta_det"),
        n_th=_expect_number(obj["n_th"], f"{pointer}/n_th"),
        t_rep_us=_expect_number(obj["t_rep_us"], f"{pointer}/t_rep_us"),
        bandwidth_mhz=_maybe_number(obj, "bandwidth_mhz", pointer),
        eta_per_uw=_maybe_number(obj, "eta_per_uw", pointer),
    )


def _parse_qubit(value, pointer: str) -> StorageQubitParams:
    if isinstance(value, str):
        if not value.startswith(_PRESET_PREFIX):
            raise SchemaError(pointer, 'expected an object or "preset:<name>"')
        found = preset(value[len(_PRESET_PREFIX):])
        if not isinstance(found, StorageQubitParams):
            raise SchemaError(
                pointer, f"preset {value[len(_PRESET_PREFIX):]!r} is not a storage qubit"
            )
        return found
    obj = _expect_object(value, pointer)
    _check_keys(obj, pointer, required=("t1_us", "t2_us"), optional=("t_coh_us",))
    return StorageQubitParams(
        t1_us=_expect_number(obj["t1_us"], f"{pointer}/t1_us"),
        t2_us=_expect_number(obj["t2_us"], f"{pointer}/t2_us"),
        t_coh_us=_maybe_number(obj, "t_coh_us", pointer),
    )


def _parse_protocol(value, pointer: str) -> ProtocolSpec:
    obj = _expect_object(value, pointer)
    _check_keys(
        obj, pointer, required=("basis", "pump"), optional=("alpha", "p_mo_override")
    )
    return ProtocolSpec(
        basis=_expect_enum(obj["basis"], f"{pointer}/basis", PhotonBasis),
        pump=_expect_enum(obj["pump"], f"{pointer}/pump", PumpMode),
        alpha=_maybe_number(obj, "alpha", pointer),
        p_mo_override=_maybe_number(obj, "p_mo_override", pointer),
    )


def _parse_memory(value, pointer: str) -> MemoryParams:
    obj = _expect_object(value, pointer)
    _check_keys(obj, pointer, required=("kind", "eta_mem", "lifetime_us"), optional=())
    return MemoryParams(
        kind=_expect_enum(obj["kind"], f"{pointer}/kind", MemoryKind),
        eta_mem=_expect_number(obj["eta_mem"], f"{pointer}/eta_mem"),
        lifetime_us=_expect_number(obj["lifetime_us"], f"{pointer}/lifetime_us"),
    )


def _parse_policy(value, pointer: str) -> DeliveryPolicy:
    obj = _expect_object(value, pointer)
    _check_keys(
        obj,
        pointer,
        required=("t_del_us",),
        optional=("n_parallel", "distill_rounds", "fidelity_model"),
    )
    n_parallel = 1
    if "n_parallel" in obj:
        n_parallel = _expect_int(obj["n_parallel"], f"{pointer}/n_parallel")
    distill_rounds = 0
    if "distill_rounds" in obj:
        distill_rounds = _expect_int(obj["distill_rounds"], f"{pointer}/distill_rounds")
    model = FidelityModel.THERMAL_HALF
    if "fidelity_model" in obj:
        model = _expect_enum(
            obj["fidelity_model"], f"{pointer}/fidelity_model", FidelityModel
        )
    return DeliveryPolicy(
        t_del_us=_expect_number(obj["t_del_us"], f"{pointer}/t_del_us"),
        n_parallel=n_parallel,
        distill_rounds=distill_rounds,
        fidelity_model=model,
    )


def _parse_architecture(value, pointer: str) -> ArchitectureSpec:
    obj = _expect_object(value, pointer)
    _check_keys(
        obj,
        pointer,
        required=(
            "qubits_per_processor",
            "clock_cycle_us",
            "transducer_budget",
            "target_fidelity",
        ),
        optional=("architecture",),
    )
    kind = Architecture.LATTICE_SURGERY
    if "architecture" in obj:
        kind = _expect_enum(obj["architecture"], f"{pointer}/architecture", Architecture)
    return ArchitectureSpec(
        qubits_per_processor=_expect_int(
            obj["qubits_per_processor"], f"{pointer}/qubits_per_processor"
        ),
        clock_cycle_us=_expect_number(obj["clock_cycle_us"], f"{pointer}/clock_cycle_us"),
        transducer_budget=_expect_int(
            obj["transducer_budget"], f"{pointer}/transducer_budget"
        ),
        target_fidelity=_expect_number(
            obj["target_fidelity"], f"{pointer}/target_fidelity"
        ),
        architecture=kind,
    )


def parse_config_data(data) -> ParsedConfig:
    """Validate a decoded JSON document and build the typed configuration."""
    obj = _expect_object(data, "/")
    for key in obj:
        if key not in _TOP_KEYS:
            raise SchemaError(f"/{key}", "unknown key")
    present = [k for k in _LINK_SECTIONS if k in obj]
    if present and len(present) < len(_LINK_SECTIONS):
        missing = [k for k in _LINK_SECTIONS if k not in obj]
        raise SchemaError(
            "/", "incomplete link config; missing: " + ", ".join(missing)
        )
    if "memory" in obj and not present:
        raise SchemaError("/memory", "memory requires a link config")
    if not present and "architecture" not in obj:
        raise SchemaError(
            "/", "config must define a link (transducer/qubit/protocol/policy) "
            "or an architecture section"
        )

    link = None
    if present:
        link = LinkConfig(
            transducer=_parse_transducer(obj["transducer"], "/transducer"),
            qubit=_parse_qubit(obj["qubit"], "/qubit"),
            protocol=_parse_protocol(obj["protocol"], "/protocol"),
            policy=_parse_policy(obj["policy"], "/policy"),
            memory=_parse_memory(obj["memory"], "/memory") if "memory" in obj else None,
        )
        violations = validate(link)
        if violations:
            raise ConfigError(
                "invalid link config: " + "; ".join(violations), violations
            )

    architecture = None
    if "architecture" in obj:
        architecture = _parse_architecture(obj["architecture"], "/architecture")
        violations = validate_architecture(architecture)
        if violations:
            raise ConfigError(
                "invalid architecture spec: " + "; ".join(violations), violations
            )

    reference = None
    if "p_her_reference" in obj:
        reference = _expect_number(obj["p_her_reference"], "/p_her_reference")
        if not 0.0 < reference <= 1.0:
            raise SchemaError("/p_her_reference", "out of (0, 1]")
    return ParsedConfig(link=link, architecture=architecture, p_her_reference=reference)


def parse_config(path) -> ParsedConfig:
    """Load and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        raise SchemaError("/", "empty config file")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    return parse_config_data(data)


# ------------------------------------------------------------- resolution


def resolved_config(parsed: ParsedConfig) -> dict:
    """Materialize every default into a plain dict that parses back equal."""
    doc: dict = {}
    if parsed.link is not None:
        t = parsed.link.transducer
        transducer = {
            "name": t.name,
            "eta_mw": t.eta_mw,
            "p_mo": t.p_mo,
            "eta_det": t.eta_det,
            "n_th": t.n_th,
            "t_rep_us": t.t_rep_us,
        }
        if t.bandwidth_mhz is not None:
            transducer["bandwidth_mhz"] = t.bandwidth_mhz
        if t.eta_per_uw is not None:
            transducer["eta_per_uw"] = t.eta_per_uw
        doc["transducer"] = transducer
        q = parsed.link.qubit
        doc["qubit"] = {"t1_us": q.t1_us, "t2_us": q.t2_us, "t_coh_us": q.t_coh_us}
        p = parsed.link.protocol
        protocol = {"basis": p.basis.value, "pump": p.pump.value}
        if p.alpha is not None:
            protocol["alpha"] = p.alpha
        if p.p_mo_override is not None:
            protocol["p_mo_override"] = p.p_mo_override
        doc["protocol"] = protocol
        m = parsed.link.memory
        if m is not None:
            doc["memory"] = {
                "kind": m.kind.value,
                "eta_mem": m.eta_mem,
                "lifetime_us": m.lifetime_us,
            }
        pol = parsed.link.policy
        doc["policy"] = {
            "t_del_us": pol.t_del_us,
            "n_parallel": pol.n_parallel,
            "distill_rounds": pol.distill_rounds,
            "fidelity_model": pol.fidelity_model.value,
        }
    if parsed.architecture is not None:
        a = parsed.architecture
        doc["architecture"] = {
            "qubits_per_processor": a.qubits_per_processor,
            "clock_cycle_us": a.clock_cycle_us,
            "transducer_budget": a.transducer_budget,
            "target_fidelity": a.target_fidelity,
            "architecture": a.architecture.value,
        }
    if parsed.p_her_reference is not None:
        doc["p_her_reference"] = parsed.p_her_reference
    return doc


# --------------------------------------------------------------- emission


def _nine_digits(obj):
    """Round every float in a JSON-like tree to 9 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(format(float(obj), ".9g"))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _nine_digits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nine_digits(v) for v in obj]
    return obj


def _atomic_write(path, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", newline="\n", dir=directory,
        prefix=os.path.basename(path) + ".", suffix=".tmp", delete=False,
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def format_float(x: float) -> str:
    return format(float(x), ".9g")


def emit_json(path, payload: dict, manifest: RunManifest) -> str:
    """Write a JSON artifact with the manifest as its first key."""
    doc = {"manifest": manifest.to_dict()}
    doc.update(payload)
    text = json.dumps(_nine_digits(doc), indent=2) + "\n"
    _atomic_write(path, text)
    return text


def emit_csv(path, header, rows, manifest: RunManifest) -> str:
    """Write a CSV artifact; the manifest rides along as a '#' comment line."""
    lines = ["# manifest: " + json.dumps(_nine_digits(manifest.to_dict()))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(
            ",".join(
                format_float(v)
                if isinstance(v, (float, np.floating))
                else str(v)
                for v in row
            )
        )
    text = "\n".join(lines) + "\n"
    _atomic_write(path, text)
    return text
