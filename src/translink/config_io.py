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
from functools import cache

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

# Rows per block in emit_csv: enough to amortize a block's % call or byte
# build, few enough that its cells stay small next to the columns themselves.
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


def _float_cells(block: np.ndarray) -> tuple[str, list | np.ndarray | None]:
    """One float64 block as (row-format field, the values that it takes).

    Each cell prints as format(v, ".9g"). The block is classified once, from
    its min and max:
    - one text, a literal field that takes no values, when its cells are
      equal bit for bit, or when it holds no NaN, does not span zero, and
      its min and max print the same text. %.9g rounds correctly, so it is
      monotone and every cell between them prints that text too. A NaN
      would turn both reductions into NaN, and 0.0 and -0.0 compare equal
      but print 0 and -0, so such blocks need equal bits;
    - whole numbers below 1e9 in magnitude, none of them -0.0, go on as
      ints, whose str is the %.9g text: an int64 array when all are >= 0
      with one digit count, which _byte_rows can write, a list otherwise;
    - any other block keeps %.9g.
    """
    lo, hi = float(block.min()), float(block.max())
    bits = block.view(np.int64)
    if lo > 0 or hi < 0:  # no NaN, no zero
        if "%.9g" % lo == "%.9g" % hi:
            return "%.9g" % lo, None  # the text holds no "%"
    elif (bits == bits[0]).all():
        return "%.9g" % lo, None
    if -1e9 < lo and hi < 1e9 and lo.is_integer() and hi.is_integer():
        ints = block.astype(np.int64)
        # the round trip is bit-exact only for whole numbers other than -0.0
        if np.array_equal(ints.astype(np.float64).view(np.int64), bits):
            if lo >= 0 and len(str(int(lo))) == len(str(int(hi))):
                return "%s", ints
            return "%s", ints.tolist()
    return "%.9g", block.tolist()


@cache
def _digit_triples() -> np.ndarray:
    """The ASCII digits of 000 to 999, one row of three bytes each."""
    return np.frombuffer("".join(map("{:03d}".format, range(1000))).encode(),
                         dtype=np.uint8).reshape(1000, 3)


def _byte_rows(fields: list, n_rows: int) -> str:
    """The lines of a block whose fields are literals or int64 arrays of
    one digit count, built as bytes from one template row.

    The template holds each literal and the first row's digits; the other
    rows' digits go into a (rows, width) uint8 copy of it, three at a time
    from _digit_triples, and the block is decoded once.
    """
    texts = [spec if cells is None else str(cells[0]) for spec, cells in fields]
    row = ",".join(texts) + "\n"
    lines = np.tile(np.frombuffer(row.encode(), dtype=np.uint8), (n_rows, 1))
    triples = _digit_triples()
    start = 0
    for text, (_, cells) in zip(texts, fields):
        stop = start + len(text)
        if cells is not None:
            rest = cells
            for end in range(stop, start, -3):
                rest, low = np.divmod(rest, 1000)
                width = min(3, end - start)
                lines[:, end - width:end] = triples.take(low, axis=0)[:, 3 - width:]
        start = stop + 1
    return str(lines.data, "ascii")


def _format_rows(columns: list) -> str:
    """The CSV lines of equal-length column slices.

    A floating slice goes through _float_cells as float64, any other is
    written with %s. A block of float columns that _float_cells makes all
    literals or int64 arrays is built as bytes by _byte_rows. Any other
    block is formatted by one %: the row format repeats once per row, and
    the values go to % in one flat list, each of the n value columns
    slice-assigned into every n-th slot, so no tuple is built per row.
    """
    with np.errstate(invalid="ignore"):  # the cast of a float32 signalling NaN warns
        fields = [
            _float_cells(np.ascontiguousarray(cells, dtype=np.float64))
            if cells.dtype.kind == "f" else ("%s", cells.tolist())
            for cells in columns
        ]
    n_rows = len(columns[0])
    if all(cells is None or isinstance(cells, np.ndarray) for _, cells in fields):
        return _byte_rows(fields, n_rows)
    values = [cells if isinstance(cells, list) else cells.tolist()
              for _, cells in fields if cells is not None]
    flat = [None] * (n_rows * len(values))
    for j, column in enumerate(values):
        flat[j::len(values)] = column
    return (",".join(spec for spec, _ in fields) + "\n") * n_rows % tuple(flat)


def _blocks(sources: list, n_rows: int):
    """The CSV text of each block of _CSV_BLOCK rows, in order (see _format_rows).

    A source is (values, codes): row i takes values[i], or values[codes[i]]
    where codes is not None.
    """
    for start in range(0, n_rows, _CSV_BLOCK):
        stop = start + _CSV_BLOCK
        yield _format_rows([
            values[start:stop] if codes is None else values[codes[start:stop]]
            for values, codes in sources
        ])


def _table_texts(names: tuple, table) -> np.ndarray:
    """Each row of a group's table as the text of its cells, in an object array."""
    table = [np.asarray(column) for column in table]
    if len(table) != len(names):
        raise ValueError(f"group {names} has {len(table)} table columns")
    n_rows = len(table[0])
    texts = "".join(_blocks([(column, None) for column in table], n_rows)).split("\n")[:-1]
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
    block of _CSV_BLOCK rows is formatted at once and written out, and a
    float column is cast to float64 a block at a time; the whole text is
    joined only to be returned. Within a block, a float column whose cells
    all print one text is formatted once, and one of whole numbers below
    1e9 goes as ints (see _float_cells). A block whose columns all print
    one text or hold whole numbers >= 0 of one digit count, such as the
    flat tail of a long analyze grid, is built as bytes from one template
    row (see _byte_rows); any other goes through one % (see _format_rows).
    Each cell still prints what %.9g prints. A CSV of no columns is a
    ValueError, raised before any file is opened.
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
    if len(lengths) != 1:
        raise ValueError("CSV columns differ in length" if lengths else "CSV has no columns")
    n_rows = lengths.pop()
    parts = [
        "# manifest: " + _json_text(manifest, path) + "\n",
        ",".join(names) + "\n",
    ]
    with _atomic_writer(path) as handle:
        handle.write(parts[0] + parts[1])
        for text in _blocks(sources, n_rows):
            parts.append(text)
            handle.write(text)
    return "".join(parts)
