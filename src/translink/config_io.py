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


def _float_cells(block: np.ndarray) -> tuple:
    """One float64 block as a field (spec, cells) whose cells print
    format(v, ".9g").

    The block is classified once, from its min and max:
    - one text, a literal field with cells None, when its cells are equal
      bit for bit, or when it holds no NaN, does not span zero, and its min
      and max print the same text. %.9g rounds correctly, so it is
      monotone and every cell between them prints that text too. A NaN
      would turn both reductions into NaN, and 0.0 and -0.0 compare equal
      but print 0 and -0, so such blocks need equal bits;
    - varying cells with a NaN or an infinity keep "%.9g", the values in
      a list;
    - whole numbers below 1e9 in magnitude, none of them -0.0, print as
      ints (see _whole_slot);
    - any other block prints the digits that _decimal_slot decides, or
      asks with (None, row) to be split before that row.
    A slot field ("", (text, groups)) has one fixed-width text per cell:
    the literal bytes of every cell, NUL in the others, and digit groups
    (packed digits, first byte) that _byte_rows ORs into them. NUL is left
    where a cell is shorter.
    """
    lo, hi = float(block.min()), float(block.max())
    bits = block.view(np.int64)
    if lo > 0 or hi < 0:  # no NaN, no zero
        if "%.9g" % lo == "%.9g" % hi:
            return "%.9g" % lo, None  # the text holds no "%"
    elif (bits == bits[0]).all():
        return "%.9g" % lo, None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return "%.9g", block.tolist()
    if -1e9 < lo and hi < 1e9 and lo.is_integer() and hi.is_integer():
        ints = block.astype(np.int64)
        # the round trip is bit-exact only for whole numbers other than -0.0
        if np.array_equal(ints.astype(np.float64).view(np.int64), bits):
            return _whole_slot(ints, int(lo), int(hi))
    return _decimal_slot(block, lo, hi)


def _int_cells(cells: np.ndarray) -> tuple:
    """An integer block as a field: a slot below 10**18 in magnitude, else %s."""
    lo, hi = int(cells.min()), int(cells.max())
    if -10**18 < lo and hi < 10**18:
        return _whole_slot(cells.astype(np.int64), lo, hi)
    return "%s", cells.tolist()


def _whole_slot(ints: np.ndarray, lo: int, hi: int) -> tuple:
    """The slot field of int64 cells from lo to hi, below 10**18 in
    magnitude: a sign byte if any is negative, then right-aligned digits."""
    sign = int(lo < 0)
    width = len(str(max(-lo, hi)))
    groups = _int_groups(np.abs(ints) if sign else ints, width, sign)
    if sign:
        groups.append(((ints < 0) * np.uint64(45), 0))
    return "", ("\0" * (sign + width), groups)


# A digit group is the text of up to eight bytes packed little-endian into a
# uint64 (first byte lowest), NUL for each digit it leaves out. The groups of
# 000 to 999 come in six variants of 1000, at these offsets: plain; trailing
# zeros NUL; leading zeros NUL; leading zeros NUL but the units digit; and
# the first two after a point (".ddd"), where a point left with no digit
# after it is NUL too. Each trailing-zero variant is 1000 after its twin.
_PLAIN, _TRAILING, _LEADING, _UNITS, _POINT = 0, 1000, 2000, 3000, 4000


@cache
def _digit_groups() -> np.ndarray:
    """The six variants of 000 to 999 (see _PLAIN), 6000 packed groups."""
    text = np.zeros((6, 10, 10, 10, 8), dtype=np.uint8)  # [variant, d1, d2, d3, byte]
    digits = np.arange(48, 58, dtype=np.uint8)
    text[:4, :, :, :, 0] = digits[:, None, None]
    text[:4, :, :, :, 1] = digits[:, None]
    text[:4, :, :, :, 2] = digits
    text[1, :, :, 0, 2] = text[1, :, 0, 0, 1] = text[1, 0, 0, 0, 0] = 0
    text[2:4, 0, :, :, 0] = text[2:4, 0, 0, :, 1] = text[2, 0, 0, 0, 2] = 0
    text[4:, :, :, :, 0] = 46
    text[4:, :, :, :, 1:4] = text[:2, :, :, :, :3]
    text[5, 0, 0, 0, 0] = 0
    return text.view("<u8").ravel()


@cache
def _exponents() -> np.ndarray:
    """%.9g's exponent text, e±XX or e±XXX from |e| = 100, of e = -324..308
    packed at e + 324."""
    triples = _digit_groups().view(np.uint8).reshape(6000, 8)[:1000, :3]
    size = np.concatenate([triples[324::-1], triples[1:309]])  # the digits of |e|
    text = np.zeros((633, 8), dtype=np.uint8)
    text[:, 0] = 101
    text[:324, 1], text[324:, 1] = 45, 43
    text[:225, 2:5], text[424:, 2:5] = size[:225], size[424:]
    text[225:424, 2:4] = size[225:424, 1:]
    return text.view("<u8").ravel()


@cache
def _powers() -> tuple:
    """10**(16 j) for j = -19..19 and 10**i for i = 0..31, each the double
    nearest to it: Python rounds int to float and int / int correctly."""
    big = [1 / 10 ** (16 * j) for j in range(19, 0, -1)]
    big += [float(10 ** (16 * j)) for j in range(20)]
    return np.array(big), np.array([float(10**i) for i in range(32)])


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10**(8 - e) within a relative 4 * 2**-53, for a > 0 and whole
    e >= -324.

    With k = 8 - e = 16 j + i, j <= 19, the product is a * 10**(16 j) *
    10**i. It rounds four times, each within half an ulp: the two powers
    (10**i is exact below 10**23) and the two products. The first product
    is normal even for a subnormal a, whose k puts j at 19.
    """
    big, small = _powers()
    k = (8 - e).astype(np.intp)
    j = np.minimum(k >> 4, 19)
    return a * big.take(j + 19) * small.take(k - (j << 4))


# A scaled y below 1e9 + 1 is within 4 * 2**-53 * (1e9 + 1) < 2**-21 of the
# exact product: a cell whose y lies nearer than that to a rounding tie
# (n + 0.5) cannot be decided from y.
_TIE_MARGIN = 2.0**-21


def _decimal_slot(block: np.ndarray, lo: float, hi: float) -> tuple:
    """The %.9g digits of a finite, varying float64 block, as _float_cells
    returns them; (None, row) asks for the block to be split before row.

    Each magnitude is scaled by a power of ten to y in [1e8, 1e9), so that
    n = rint(y) holds its nine digits and e is its decimal exponent. log10
    only estimates e: a y out of that range moves its e by one and is
    scaled again, so no text depends on log10's last bit. A cell whose y
    lies within _TIE_MARGIN of a tie takes its digits from "%.8e". A y
    that rounds to 1e9 carries into e. The block takes one layout, from
    its exponents: fixed notation, the point after the units digit, when
    each e is in -4..8, else d.dddddddde±XX[X]. A block whose nonzero
    cells mix the two is split at the first that changes. Exact zeros
    print 0 or -0 in either.
    """
    sign = None if lo > 0 else np.signbit(block)
    a = np.abs(block) if lo < 0 else block
    zero = None
    if lo <= 0 <= hi:
        sign = sign if sign.any() else None
        zero = a == 0
        if zero.any():
            a = np.where(zero, float(a.max()) or 1.0, a)
        else:
            zero = None
    e = np.floor(np.log10(a))
    y = _scaled(a, e)
    y_lo, y_hi = float(y.min()), float(y.max())
    if y_lo < 1e8 or y_hi >= 1e9:
        e += (y >= 1e9).astype(np.float64) - (y < 1e8)
        y = _scaled(a, e)
        y_lo, y_hi = float(y.min()), float(y.max())
    # y within 2**-10 below 1e8 or above 1e9 still rounds to the next
    # exponent's text, as n = 1e8 and a carried 1e9
    if y_lo < 1e8 - 2.0**-10 or y_hi >= 1e9 + 2.0**-10:
        return "%.9g", block.tolist()
    n = np.rint(y)
    y -= n
    if float(y.max()) > 0.5 - _TIE_MARGIN or float(y.min()) < _TIE_MARGIN - 0.5:
        for i in np.flatnonzero(np.abs(y) > 0.5 - _TIE_MARGIN):
            text = "%.8e" % a[i]
            n[i], e[i] = int(text[0] + text[2:10]), int(text[11:])
    if y_hi >= 1e9 - 0.5:
        carry = n >= 1e9
        n[carry] = 1e8
        e += carry
    e_lo, e_hi = int(e.min()), int(e.max())
    fixed = -4 <= e_lo and e_hi <= 8
    if not (fixed or e_hi < -4 or e_lo > 8):
        rows = np.arange(len(block)) if zero is None else np.flatnonzero(~zero)
        layout = (e[rows] >= -4) & (e[rows] <= 8)
        changes = np.flatnonzero(layout[1:] != layout[:-1])
        if len(changes) > 3:
            return "%.9g", block.tolist()
        if len(changes):
            return None, int(rows[changes[0] + 1])
    if zero is not None:
        n[zero] = 0.0
    n = n.astype(np.int64)
    groups = [] if sign is None else [(sign * np.uint64(45), 0)]
    text = "\0" * len(groups)
    # the digits of n * 10**(d - 8): d = e in fixed notation, else d = 0
    d_lo, d_hi = (e_lo, e_hi) if fixed else (0, 0)
    d = e.astype(np.int64) if d_lo < d_hi else d_lo
    if d_hi < 0:  # every units digit is 0
        rest = n
        text += "0"
    else:
        point = 10 ** (8 - d)
        units = n // point
        rest = n - units * point
        groups += _int_groups(units, d_hi + 1, len(text))
        text += "\0" * (d_hi + 1)
    if d_lo < 8:  # 8 - d_lo digits after the point, padded to whole triples
        triples = (10 - d_lo) // 3
        if d_lo < d_hi or 3 * triples != 8 - d_lo:
            rest = rest * 10 ** (3 * triples - 8 + d)
        groups += _fraction_groups(rest, triples, len(text))
        text += "\0" * (9 - d_lo)
    if not fixed:
        exponents = _exponents().take(e.astype(np.intp) + 324)
        if zero is not None:
            exponents[zero] = 0
        groups.append((exponents, len(text)))
        text += "\0" * (4 + (max(-e_lo, e_hi) >= 100))
    return "", (text, groups)


def _int_groups(q: np.ndarray, width: int, start: int) -> list:
    """The digit groups of whole numbers 0 <= q < 10**width, right-aligned
    in bytes start..start + width: leading zeros NUL but the units digit."""
    if width == 1:
        return [((q + 48).astype(np.uint64), start)]
    table = _digit_groups()
    groups, rest = [], q
    for j, stop in enumerate(range(start + width, start, -3)):
        high = rest // 1000
        index = rest - high * 1000
        rest = high
        variant = _UNITS if j == 0 else _LEADING
        if stop - 3 <= start:  # the first digit's group: no digit before it
            index += variant
        else:
            index += (q < 1000 ** (j + 1)) * variant
        length = min(3, stop - start)
        groups.append((table.take(index) >> np.uint64(24 - 8 * length), stop - length))
    return groups


def _fraction_groups(fraction: np.ndarray, triples: int, start: int) -> list:
    """The groups of a point and the 3 * triples digits of the whole
    numbers in fraction, from byte start: trailing zeros NUL, and the point
    too if no digit is left."""
    table = _digit_groups()
    groups, rest, tail = [], fraction, None  # tail: every later digit is 0
    for j in reversed(range(triples)):
        high = rest // 1000
        triple = rest - high * 1000
        trailing = _TRAILING if tail is None else tail * _TRAILING
        index = triple + ((_POINT if j == 0 else _PLAIN) + trailing)
        tail = triple == 0 if tail is None else tail & (triple == 0)
        groups.append((table.take(index), start + 3 * j + (j > 0)))
        rest = high
    return groups


def _byte_rows(fields: list, n_rows: int) -> str:
    """The lines of a block whose fields are literals or slots, built as
    bytes from one template row.

    The template row holds each literal and each slot's text; it is tiled
    into n_rows rows, and 8 more that only absorb the last row's reach.
    Each digit group is OR-ed into its bytes of every row at once, through
    a uint64 view that steps a row at a time: the bytes a group holds past
    its digits are NUL and change nothing. One bytes.replace drops every
    NUL, and the block is decoded once.
    """
    texts = [spec if cells is None else cells[0] for spec, cells in fields]
    row = (",".join(texts) + "\n").encode()
    lines = np.tile(np.frombuffer(row, dtype=np.uint8), n_rows + 8)
    start = 0
    for text, (_, cells) in zip(texts, fields):
        for digits, first in () if cells is None else cells[1]:
            view = np.ndarray((n_rows,), "<u8", lines, start + first, (len(row),))
            view |= digits
        start += len(text) + 1
    return str(lines[:len(row) * n_rows].tobytes().replace(b"\0", b""), "ascii")


def _format_rows(columns: list) -> str:
    """The CSV lines of equal-length column slices.

    In a block of numbers only, a floating slice goes through _float_cells
    as float64, and an integer one below 10**18 in magnitude is a slot of
    whole numbers. If every field is a literal or a slot, _byte_rows builds
    the block as bytes; one that _float_cells asks to split is formatted in
    two parts. Any other block is formatted by one %, each value column as
    %.9g or %s: the row format repeats once per row, and the values go to
    % in one flat list, each of the n value columns slice-assigned into
    every n-th slot, so no tuple is built per row.
    """
    with np.errstate(invalid="ignore"):  # the cast of a float32 signalling NaN warns
        blocks = [np.ascontiguousarray(cells, dtype=np.float64) if cells.dtype.kind == "f"
                  else None for cells in columns]
    n_rows = len(columns[0])
    fields = []
    if all(cells.dtype.kind in "fiu" for cells in columns):
        for block, cells in zip(blocks, columns):
            spec, cells = _float_cells(block) if block is not None else _int_cells(cells)
            if spec is None:  # cells is the row to split the block before
                return _format_rows([c[:cells] for c in columns]) + _format_rows(
                    [c[cells:] for c in columns])
            fields.append((spec, cells))
        if not any(isinstance(cells, list) for _, cells in fields):
            return _byte_rows(fields, n_rows)
    # one %: a literal or list field stays; a slot, and every column of a
    # block with an object column, takes its values as a list
    fields = [
        field if field and (field[1] is None or isinstance(field[1], list))
        else ("%s", column.tolist()) if block is None else ("%.9g", block.tolist())
        for block, column, field in zip(blocks, columns, fields or [None] * len(columns))
    ]
    values = [cells for _, cells in fields if cells is not None]
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
    all print one text is formatted once; any other finite one has its
    nine digits and exponent decided by numpy (see _decimal_slot), and an
    integer column is written digit by digit. A block of such columns is
    built as bytes from one template row (see _byte_rows); one with an
    object column or a varying NaN or infinity goes through one % (see
    _format_rows). Each cell still prints what %.9g prints. A CSV of no
    columns is a ValueError, raised before any file is opened.
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
