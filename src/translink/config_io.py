"""JSON config ingestion and artifact emission.

The config file is a single JSON object: a LinkConfig plus one key,

    transducer, qubit, protocol, policy   (the link; required in every config)
    memory                                 (optional)
    p_her_reference                        (optional externally quoted p_her)
    architecture                           (optional; required for planning)

The transducer and qubit sections accept "preset:<name>" strings in place
of objects. The link's keys are the fields of LinkConfig, and a section's
keys, their types, defaults and ranges are the fields declared on its
dataclass (see params.schema). Parsing is strict: unknown keys are
rejected with a JSON-pointer path, missing ones are all named in one error,
and no invalid file produces a partially usable object.

Every emitted artifact embeds a RunManifest (tool version, command line,
fully resolved config, seed, timestamp); the resolved config parses back to
the identical configuration. Floats are serialized with 9 significant
digits. JSON is strict (RFC 8259), so a non-finite float in a JSON artifact
or manifest line is a ModelDomainError, while a CSV cell writes inf or nan.
Files are written to a temp name and renamed so failures never leave
partial artifacts, and they get the mode that the umask gives a new file.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, is_dataclass
from enum import Enum

from ._numpy import np
from .errors import ConfigError, ModelDomainError, SchemaError
from .params import (
    ArchitectureSpec,
    LinkConfig,
    Record,
    StorageQubitParams,
    TransducerParams,
    preset,
    raise_violations,
    schema,
    validate,
    validate_architecture,
)

TOOL_VERSION = "0.1.0"

_PRESET_PREFIX = "preset:"
# The sections that accept "preset:<name>", and what their presets are.
_PRESET_KINDS = {TransducerParams: "transducer", StorageQubitParams: "storage qubit"}


class ParsedConfig(Record):
    """Everything a single config file can define: a link, p_her_reference
    included, and an optional architecture."""

    link: LinkConfig
    architecture: ArchitectureSpec | None


class RunManifest(Record):
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
    """One JSON value as a field of declared type float, int, str, an Enum or
    a section dataclass."""
    if is_dataclass(kind):
        return _parse_section(kind, value, pointer)
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

    The keys are the declared fields: an unknown key is a SchemaError, as
    are the missing keys whose fields have no default, all named in one,
    and each value must have its field's type. The sections in _PRESET_KINDS
    also take a "preset:<name>" string. The root's `pointer` is "".
    """
    if cls in _PRESET_KINDS and isinstance(value, str):
        if not value.startswith(_PRESET_PREFIX):
            raise SchemaError(pointer, 'expected an object or "preset:<name>"')
        name = value[len(_PRESET_PREFIX):]
        found = preset(name)
        if not isinstance(found, cls):
            raise SchemaError(pointer, f"preset {name!r} is not a {_PRESET_KINDS[cls]}")
        return found
    obj = _expect_object(value, pointer or "/")
    declared = schema(cls)
    names = {f.name for f, _, _ in declared}
    for key in obj:
        if key not in names:
            raise SchemaError(f"{pointer}/{key}", "unknown key")
    missing = [repr(f.name) for f, _, _ in declared
               if f.default is MISSING and f.name not in obj]
    if missing:
        keys = "key" if len(missing) == 1 else "keys"
        raise SchemaError(pointer or "/", f"missing required {keys} {', '.join(missing)}")
    return cls(**{
        f.name: _parse_value(kind, obj[f.name], f"{pointer}/{f.name}")
        for f, kind, _ in declared
        if f.name in obj
    })


def parse_config_data(data) -> ParsedConfig:
    """Validate a decoded JSON document and build the typed configuration."""
    obj = _expect_object(data, "/")
    link = _parse_section(
        LinkConfig, {key: value for key, value in obj.items() if key != "architecture"}, ""
    )
    raise_violations("link config", validate(link))

    architecture = None
    if "architecture" in obj:
        architecture = _parse_section(
            ArchitectureSpec, obj["architecture"], "/architecture"
        )
        raise_violations("architecture spec", validate_architecture(architecture))
    return ParsedConfig(link=link, architecture=architecture)


def parse_config(path) -> ParsedConfig:
    """Load and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        raise SchemaError("/", "empty config file")
    try:
        data = json.loads(text)
    except ValueError as exc:  # bad syntax, or an integer longer than int() reads
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    return parse_config_data(data)


# ------------------------------------------------------------- resolution


def _section_doc(section) -> dict:
    """A section's fields in declared order, Enums by value, sections as
    their docs, unset ones dropped."""
    doc = {}
    for f, _, _ in schema(type(section)):
        value = getattr(section, f.name)
        if isinstance(value, Enum):
            value = value.value
        elif is_dataclass(value):
            value = _section_doc(value)
        if value is not None:
            doc[f.name] = value
    return doc


def resolved_config(parsed: ParsedConfig) -> dict:
    """Materialize every default into a plain dict that parses back equal."""
    doc = _section_doc(parsed.link)
    if parsed.architecture is not None:
        doc["architecture"] = _section_doc(parsed.architecture)
    return doc


# --------------------------------------------------------------- emission

# Rows per % call in emit_csv: enough to amortize the call, few enough that
# a block's cells stay small next to the columns themselves.
_CSV_BLOCK = 4096


def _nine_digits(obj):
    """Round every float in a JSON-like tree, dataclasses included, to 9 digits.

    Plain Python types are checked before numpy's scalar types, whose first
    read would load a deferred numpy (see _numpy). A list or tuple of ints
    alone, such as a herald-round histogram, is returned as it is, without a
    call per element: json writes a tuple as an array, and a copy would only
    raise the peak memory.
    """
    if isinstance(obj, float):
        return float(format(float(obj), ".9g"))
    if obj is None or isinstance(obj, (int, str)):  # bools are ints
        return obj
    if isinstance(obj, dict):
        return {k: _nine_digits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if all(type(v) is int for v in obj):
            return obj
        return [_nine_digits(v) for v in obj]
    if is_dataclass(obj):
        return _nine_digits(asdict(obj))
    if isinstance(obj, (np.floating, np.integer)):
        return _nine_digits(obj.item())
    return obj


def _non_finite(obj, pointer: str = ""):
    """The JSON pointers of the non-finite floats in a _nine_digits tree."""
    if isinstance(obj, float) and not math.isfinite(obj):
        yield pointer
    elif isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _non_finite(value, f"{pointer}/{key}")


def _json_text(obj, path, **dumps_kwargs) -> str:
    """obj as strict JSON at 9 digits; a non-finite float raises
    ModelDomainError naming the artifact at `path` and the float's key."""
    doc = _nine_digits(obj)
    try:
        return json.dumps(doc, allow_nan=False, **dumps_kwargs)
    except ValueError:
        pointer = next(_non_finite(doc), None)
        if pointer is None:  # not a float: an int with more digits than str() prints
            raise
        raise ModelDomainError(
            f"{os.path.basename(path)}: {pointer} is not finite, "
            "and JSON has no Infinity or NaN"
        ) from None


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
    text = _json_text(doc, path, indent=2) + "\n"
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


def _format_rows(columns: list) -> str:
    """The CSV lines of equal-length column slices, formatted by one %.

    A floating slice goes through _float_cells as float64, any other is
    written with %s. The row format repeats once per row, and the values go
    to % in one flat list: each of the n value columns is slice-assigned
    into every n-th slot, so no tuple is built per row.
    """
    specs, values = [], []
    for cells in columns:
        if cells.dtype.kind == "f":
            spec, cells = _float_cells(np.ascontiguousarray(cells, dtype=np.float64))
        else:
            spec, cells = "%s", cells.tolist()
        specs.append(spec)
        if cells is not None:
            values.append(cells)
    n_rows = len(columns[0])
    flat = [None] * (n_rows * len(values))
    for j, column in enumerate(values):
        flat[j::len(values)] = column
    return (",".join(specs) + "\n") * n_rows % tuple(flat)


def _table_texts(names: tuple, table) -> np.ndarray:
    """Each row of a group's table as the text of its cells, in an object array."""
    table = [np.asarray(column) for column in table]
    if len(table) != len(names):
        raise ValueError(f"group {names} has {len(table)} table columns")
    n_rows = len(table[0])
    texts = "".join(
        _format_rows([column[start:start + _CSV_BLOCK] for column in table])
        for start in range(0, n_rows, _CSV_BLOCK)
    ).split("\n")[:-1]
    if len(texts) != n_rows:
        raise ValueError(f"group {names}: a table cell holds a newline")
    return np.array(texts, dtype=object)


def emit_csv(path, columns: dict, manifest: RunManifest) -> str:
    """Write a CSV artifact of named, equal-length columns.

    `columns` maps each header name to its column, in order. A floating
    column is written at 9 significant digits (%.9g), any other with %s:
    integers in decimal, and an object column may hold "" for an empty cell.
    A key may also be a tuple of adjacent header names, a dictionary-encoded
    group: its value is (codes, table), where `table` holds one column per
    name and row i takes the cells of table row codes[i]. Each table row is
    formatted once, by the same rules, and its text is gathered by code.
    The manifest rides along as a '#' comment line above the header. Each
    block of _CSV_BLOCK rows is formatted by one % (see _format_rows) and
    written out at once, and a float column is cast to float64 a block at a
    time; the whole text is joined only to be returned. Within a block, a
    float column that is one run of equal cells, or in which at least half
    of the cells repeat the one above, formats each run once, and one of
    whole numbers below 1e9 goes as ints; each cell still prints what %.9g
    prints (see _float_cells).
    """
    names, sources = [], []  # sources: (values, codes into them or None)
    for key, column in columns.items():
        if isinstance(key, tuple):
            codes, table = column
            names += key
            sources.append((_table_texts(key, table), np.asarray(codes)))
        else:
            names.append(key)
            sources.append((np.asarray(column), None))
    lengths = {len(values if codes is None else codes) for values, codes in sources}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    n_rows = lengths.pop()
    parts = [
        "# manifest: " + _json_text(manifest, path) + "\n",
        ",".join(names) + "\n",
    ]
    with _atomic_writer(path) as handle:
        handle.write(parts[0] + parts[1])
        for start in range(0, n_rows, _CSV_BLOCK):
            stop = start + _CSV_BLOCK
            parts.append(_format_rows([
                values[start:stop] if codes is None else values[codes[start:stop]]
                for values, codes in sources
            ]))
            handle.write(parts[-1])
    return "".join(parts)
