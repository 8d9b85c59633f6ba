"""JSON config ingestion and artifact emission.

The config file is a single JSON object with sections

    transducer, qubit, protocol, policy   (a link; all four together)
    memory                                 (optional, with the link)
    architecture                           (optional; required for planning)
    p_her_reference                        (optional externally quoted p_her)

The transducer and qubit sections accept "preset:<name>" strings in place
of objects. A section's keys, their types, defaults and ranges are the
fields declared on its dataclass (see params.schema). Parsing is strict:
unknown keys are rejected with a JSON-pointer path, and no invalid file
produces a partially usable object.

Every emitted artifact embeds a RunManifest (tool version, command line,
fully resolved config, seed, timestamp); the resolved config parses back to
the identical configuration. Floats are serialized with 9 significant
digits; files are written to a temp name and renamed so failures never leave
partial artifacts, and they get the mode that the umask gives a new file.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .errors import ConfigError, SchemaError
from .params import (
    ArchitectureSpec,
    DeliveryPolicy,
    LinkConfig,
    MemoryParams,
    ProtocolSpec,
    StorageQubitParams,
    TransducerParams,
    preset,
    schema,
    validate,
    validate_architecture,
)

TOOL_VERSION = "0.1.0"

_PRESET_PREFIX = "preset:"
# The sections that accept "preset:<name>", and what their presets are.
_PRESET_KINDS = {TransducerParams: "transducer", StorageQubitParams: "storage qubit"}
# The link's sections in the order that they are parsed and written back:
# memory comes before policy, unlike in LinkConfig.
_LINK_SECTIONS = {
    "transducer": TransducerParams,
    "qubit": StorageQubitParams,
    "protocol": ProtocolSpec,
    "memory": MemoryParams,
    "policy": DeliveryPolicy,
}
_REQUIRED_SECTIONS = tuple(f.name for f in fields(LinkConfig) if f.default is MISSING)
_TOP_KEYS = set(_LINK_SECTIONS) | {"architecture", "p_her_reference"}


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
    seed: int | None
    created_utc: str
    resolved_config: dict


def build_manifest(command: str, resolved_config: dict, seed: int | None = None) -> RunManifest:
    return RunManifest(
        tool_version=TOOL_VERSION,
        command=command,
        resolved_config=resolved_config,
        seed=seed,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


# ---------------------------------------------------------------- parsing


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


def _parse_value(kind, value, pointer: str):
    """One JSON value as a field of declared type float, int, str or an Enum."""
    if kind is float:
        return _expect_number(value, pointer)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(pointer, "expected an integer")
        return value
    if not isinstance(value, str):
        raise SchemaError(pointer, "expected a string")
    if kind is str:
        return value
    try:
        return kind(value)
    except ValueError:
        valid = ", ".join(sorted(m.value for m in kind))
        raise SchemaError(pointer, f"must be one of: {valid}") from None


def _parse_section(cls, value, pointer: str):
    """Build the section dataclass `cls` from its JSON value, strictly.

    The keys are the declared fields: an unknown key or a missing required
    one is a SchemaError, and each value must have its field's type. The
    sections in _PRESET_KINDS also take a "preset:<name>" string.
    """
    if cls in _PRESET_KINDS and isinstance(value, str):
        if not value.startswith(_PRESET_PREFIX):
            raise SchemaError(pointer, 'expected an object or "preset:<name>"')
        name = value[len(_PRESET_PREFIX):]
        found = preset(name)
        if not isinstance(found, cls):
            raise SchemaError(pointer, f"preset {name!r} is not a {_PRESET_KINDS[cls]}")
        return found
    obj = _expect_object(value, pointer)
    declared = schema(cls)
    names = {f.name for f, _, _ in declared}
    for key in obj:
        if key not in names:
            raise SchemaError(f"{pointer}/{key}", "unknown key")
    for f, _, _ in declared:
        required = f.default is MISSING and "config_default" not in f.metadata
        if required and f.name not in obj:
            raise SchemaError(pointer, f"missing required key {f.name!r}")
    kwargs = {}
    for f, kind, _ in declared:
        if f.name in obj:
            kwargs[f.name] = _parse_value(kind, obj[f.name], f"{pointer}/{f.name}")
        elif "config_default" in f.metadata:
            kwargs[f.name] = f.metadata["config_default"]
    return cls(**kwargs)


def parse_config_data(data) -> ParsedConfig:
    """Validate a decoded JSON document and build the typed configuration."""
    obj = _expect_object(data, "/")
    for key in obj:
        if key not in _TOP_KEYS:
            raise SchemaError(f"/{key}", "unknown key")
    present = [k for k in _REQUIRED_SECTIONS if k in obj]
    if present and len(present) < len(_REQUIRED_SECTIONS):
        missing = [k for k in _REQUIRED_SECTIONS if k not in obj]
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
        link = LinkConfig(**{
            name: _parse_section(cls, obj[name], f"/{name}")
            for name, cls in _LINK_SECTIONS.items()
            if name in obj
        })
        violations = validate(link)
        if violations:
            raise ConfigError(
                "invalid link config: " + "; ".join(violations), violations
            )

    architecture = None
    if "architecture" in obj:
        architecture = _parse_section(
            ArchitectureSpec, obj["architecture"], "/architecture"
        )
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


def _section_doc(section) -> dict:
    """A section's fields in declared order, Enums by value, unset ones dropped."""
    doc = {}
    for f, _, _ in schema(type(section)):
        value = getattr(section, f.name)
        if value is not None:
            doc[f.name] = value.value if isinstance(value, Enum) else value
    return doc


def resolved_config(parsed: ParsedConfig) -> dict:
    """Materialize every default into a plain dict that parses back equal."""
    doc: dict = {}
    if parsed.link is not None:
        for name in _LINK_SECTIONS:
            section = getattr(parsed.link, name)
            if section is not None:
                doc[name] = _section_doc(section)
    if parsed.architecture is not None:
        doc["architecture"] = _section_doc(parsed.architecture)
    if parsed.p_her_reference is not None:
        doc["p_her_reference"] = parsed.p_her_reference
    return doc


# --------------------------------------------------------------- emission

# Rows per % call in emit_csv: enough to amortize the call, few enough that
# a block's cells stay small next to the columns themselves.
_CSV_BLOCK = 4096


def _nine_digits(obj):
    """Round every float in a JSON-like tree, dataclasses included, to 9 digits."""
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
    if is_dataclass(obj):
        return _nine_digits(asdict(obj))
    return obj


@contextmanager
def _atomic_writer(path):
    """A text handle on a new sibling of `path`, renamed onto it on success.

    The file is created like any other, with mode 0o666 less the umask. On
    any failure it is removed, so `path` never holds a partial artifact.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp = os.path.join(
        directory, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp"
    )
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def emit_json(path, payload: dict, manifest: RunManifest) -> str:
    """Write a JSON artifact with the manifest as its first key."""
    doc = {"manifest": manifest}
    doc.update(payload)
    text = json.dumps(_nine_digits(doc), indent=2) + "\n"
    with _atomic_writer(path) as handle:
        handle.write(text)
    return text


def _float_cells(block: np.ndarray) -> tuple[str, list | None]:
    """One float64 block as (row-format field, the values that it takes).

    Each cell prints as format(v, ".9g"). Runs of equal cells are found bit
    for bit, so 0.0 and -0.0 stay apart and no NaN merges. A block that is
    one run becomes a literal field that takes no values. When at least half
    of the cells repeat the cell above them, each run's first value is
    formatted once and its string repeated. When every value is a whole
    number below 1e9 in magnitude and none is -0.0, the values go on as
    ints, whose str is the %.9g text. Any other block keeps %.9g.
    """
    bits = block.view(np.int64)
    changes = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if not len(changes):
        return "%.9g" % block[0], None  # the text holds no "%"
    if 2 * (len(block) - 1 - len(changes)) >= len(block):
        starts = np.concatenate(([0], changes))
        heads = block[starts].tolist()
        texts = np.array(("%.9g," * len(heads) % tuple(heads)).split(",")[:-1], dtype=object)
        return "%s", np.repeat(texts, np.diff(starts, append=len(block))).tolist()
    if (np.abs(block) < 1e9).all():
        ints = block.astype(np.int64)
        # the round trip is bit-exact only for whole numbers other than -0.0
        if np.array_equal(ints.astype(np.float64).view(np.int64), bits):
            return "%s", ints.tolist()
    return "%.9g", block.tolist()


def emit_csv(path, columns: dict, manifest: RunManifest) -> str:
    """Write a CSV artifact of named, equal-length columns.

    `columns` maps each header name to its column, in order. A floating
    column is written at 9 significant digits (%.9g), any other with %s:
    integers in decimal, and an object column may hold "" for an empty cell.
    The manifest rides along as a '#' comment line above the header. Each
    block of _CSV_BLOCK rows is formatted by one % on a repeated row format
    and written out at once, and a float column is cast to float64 a block
    at a time; the whole text is joined only to be returned. Within a block,
    a float column that is one run of equal cells, or in which at least half
    of the cells repeat the one above, formats each run once, and one of
    whole numbers below 1e9 goes as ints; each cell still prints what %.9g
    prints (see _float_cells).
    """
    arrays = [np.asarray(column) for column in columns.values()]
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError("CSV columns differ in length")
    parts = [
        "# manifest: " + json.dumps(_nine_digits(manifest)) + "\n",
        ",".join(columns) + "\n",
    ]
    with _atomic_writer(path) as handle:
        handle.write(parts[0] + parts[1])
        for start in range(0, n_rows, _CSV_BLOCK):
            specs, block = [], []
            for a in arrays:
                cells = a[start:start + _CSV_BLOCK]
                if a.dtype.kind == "f":
                    spec, cells = _float_cells(
                        np.ascontiguousarray(cells, dtype=np.float64)
                    )
                else:
                    spec, cells = "%s", cells.tolist()
                specs.append(spec)
                if cells is not None:
                    block.append(cells)
            row = ",".join(specs) + "\n"
            n_block = min(_CSV_BLOCK, n_rows - start)
            parts.append(row * n_block % tuple(chain.from_iterable(zip(*block))))
            handle.write(parts[-1])
    return "".join(parts)
